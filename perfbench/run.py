"""Run one benchmark workload against the recloss sources of this checkout.

    python3 perfbench/run.py --blas-threads 1 --workload bpr-wide --seed 3 \
        --seconds 30 --trace 0

The BLAS thread count is pinned before NumPy loads.  The run writes its
inputs from the seed, then repeats whole rounds, each a few fresh setups
followed by the workload's operations, until ``--seconds`` have passed after
one warm-up round.  It checks the outputs against references computed apart
from the program and prints one JSON object as its last line.  With
``--trace 0`` that object holds the end-to-end metrics, means over the
measured setups and over the measured rounds in which no operation
failed; with ``--trace 1`` the measured rounds alternate untraced and
traced, and it holds the per-layer metrics, medians over the traced rounds.
A full record of each run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3
# setups per round, each timed on its own; setup_s is the mean of them
SETUP_REPEATS = 8
MIN_TRACED_ROUNDS = 2

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> (accumulated span key, phase it is taken from)
LAYER_TIMES = {
    "mf.batch_objective.self_s": ("mf.batch_objective.self", "round"),
    "losses.evaluate_loss_s": ("losses.evaluate_loss.total", "round"),
    "mf.adam_step_s": ("mf.adam_step.total", "round"),
    "mf.train_epoch.self_s": ("mf.train_epoch.self", "round"),
    "data.train_pairs_s": ("data.train_pairs.total", "round"),
    "sampling.negatives_s": ("sampling.negatives.total", "round"),
    "sampling.extra_positives_s": ("sampling.extra_positives.total", "round"),
    "metrics.evaluate.self_s": ("metrics.evaluate.self", "round"),
    "mf.score_block_s": ("mf.score_block.total", "round"),
    "linear.score_block_s": ("linear.score_block.total", "round"),
    "linear.ials_fit.self_s": ("linear.ials_fit.self", "round"),
    "linear.ials_objective_s": ("linear.ials_objective.total", "round"),
    "linear.ease_fit_s": ("linear.ease_fit.total", "round"),
    "data.load_dataset.self_s": ("data.load_dataset.self", "setup"),
    "data.validate_s": ("data.validate.total", "setup"),
    "data.make_validation_split_s": ("data.make_validation_split.total", "setup"),
    "data.train_matrix_s": ("data.train_matrix.total", "setup"),
}
LAYER_COUNTS = {
    "mf.batch_objective.calls": ("mf.batch_objective.calls",),
    "sampling.items_drawn": ("sampling.negatives.items", "sampling.extra_positives.items"),
    "metrics.users_ranked": ("metrics.evaluate.users",),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, required=True)
    args = p.parse_args(argv)
    nproc = os.cpu_count() or 1
    if not 1 <= args.blas_threads <= nproc:
        p.error(f"--blas-threads must lie in [1, {nproc}] (the CPU count)")
    return args


def blas_threads_in_use() -> list[int]:
    """Thread counts reported by every OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def install_tracing(tracer):
    from recloss import data, linear, losses, metrics, mf, sampling

    def items(out):
        return {"items": int(out.size)}

    for owner, attr, name, counts in (
        (data, "load_dataset", "data.load_dataset", None),
        (data.InteractionDataset, "validate", "data.validate", None),
        (data, "make_validation_split", "data.make_validation_split", None),
        (data.InteractionDataset, "train_matrix", "data.train_matrix", None),
        (data.InteractionDataset, "train_pairs", "data.train_pairs", None),
        (mf, "train_epoch", "mf.train_epoch", None),
        (mf, "batch_objective", "mf.batch_objective", None),
        (mf, "evaluate_loss", "losses.evaluate_loss", None),
        (losses, "evaluate_loss", "losses.evaluate_loss", None),
        (mf, "adam_step", "mf.adam_step", None),
        (mf.ScoringModel, "score_block", "mf.score_block", None),
        (sampling.BatchSampler, "negatives", "sampling.negatives", items),
        (sampling.BatchSampler, "extra_positives", "sampling.extra_positives", items),
        (metrics, "evaluate", "metrics.evaluate", lambda r: {"users": r.users_evaluated}),
        (linear, "ials_fit", "linear.ials_fit", None),
        (linear, "ials_objective", "linear.ials_objective", None),
        (linear, "ease_fit", "linear.ease_fit", None),
        (linear, "ease_debiased_fit", "linear.ease_fit", None),
        (linear.IALSState, "score_block", "linear.score_block", None),
        (linear.EASEScorer, "score_block", "linear.score_block", None),
    ):
        tracer.wrap(owner, attr, name, counts)


def layer_metrics(tracer, peak_alloc_mb: float, overhead_s: float) -> dict:
    from spans import phase_median

    setups, rounds = tracer.per_phase("setup"), tracer.per_phase("round")
    out = {}
    for metric, (key, phase) in LAYER_TIMES.items():
        out[metric] = (phase_median(setups if phase == "setup" else rounds, key), "s")
    for metric, keys in LAYER_COUNTS.items():
        out[metric] = (sum(phase_median(rounds, k) for k in keys), "count")
    out["mf.batch_objective.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    out["tracing.overhead_s"] = (overhead_s, "s")
    return out


def measure_alloc(probe) -> float:
    """Peak traced allocation, in MB, of one call."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        probe()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(args.blas_threads)
    if not (ROOT / "src" / "recloss" / "__init__.py").is_file():
        print(f"error: no recloss sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import recloss
    from spans import Tracer
    from workloads import WORKLOADS, Ops, write_inputs

    if Path(recloss.__file__).resolve().parent != ROOT / "src" / "recloss":
        print(f"error: imported recloss from {recloss.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    blas = blas_threads_in_use()
    if any(n != args.blas_threads for n in blas):
        print(f"error: BLAS reports {blas} threads, not the {args.blas_threads} asked for",
              file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    workload = WORKLOADS[args.workload]()
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    input_dir = OUT / f"inputs-{tag}-{os.getpid()}"
    tracer = Tracer()
    try:
        paths = write_inputs(workload.shape, args.seed, workload.name, input_dir)
        if args.trace:
            install_tracing(tracer)
        clock = time.perf_counter
        # Every round starts with SETUP_REPEATS fresh setups and works on the
        # last, so setup samples spread over the whole run like the round
        # samples do.  Round 0 warms caches and first-use allocations;
        # neither its setups nor its operations are measured.  A traced run
        # alternates untraced and traced rounds so both see the same state
        # of the machine.
        setup_s, rounds = [], []  # rounds: (traced, clean, [(kind, seconds) per operation])
        attempted = failed = 0
        begin = None
        for r in itertools.count():
            setup_times = []
            for k in range(SETUP_REPEATS):
                state = None
                gc.collect()
                tracer.on, tracer.phase = bool(args.trace) and r > 0, f"setup-{r}-{k}"
                start = clock()
                state = workload.setup(paths, args.seed)
                setup_times.append(clock() - start)
                attempted += 1
            traced = bool(args.trace) and r % 2 == 0 and r > 0
            tracer.on, tracer.phase = traced, f"round-{r}"
            ops = Ops(clock, log)
            gc.collect()
            workload.round(state, ops, args.seed, r)
            attempted += ops.attempted
            failed += ops.failed
            if r == 0:
                begin = clock()
                continue
            setup_s.extend(setup_times)
            rounds.append((traced, ops.failed == 0, ops.times))
            n_traced = sum(t for t, _, _ in rounds)
            enough = (n_traced >= MIN_TRACED_ROUNDS and len(rounds) - n_traced >= MIN_TRACED_ROUNDS
                      if args.trace else len(rounds) >= MIN_ROUNDS)
            if enough and clock() - begin >= args.seconds:
                break
        tracer.on = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # On a shared machine the CPU runs at two speeds up to twice apart and
        # switches between them within seconds.  A mean over the run moves in
        # proportion to the share of time spent slow; a median jumps from one
        # speed to the other when that share crosses one half, and a minimum
        # depends on whether a rare fast stretch occurred.  A round in which an
        # operation raised did less work, so it is not timed.
        plain = [times for t, clean, times in rounds if clean and not t]
        traced_rounds = [times for t, clean, times in rounds if clean and t]
        if not plain or (args.trace and not traced_rounds):
            log("error: no measured round ran without a failed operation")
            return 1
        metrics = {
            "setup_s": (statistics.fmean(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fit_s": (statistics.fmean(sum(s for k, s in times if k == "fit") for times in plain), "s"),
            "round_s": (statistics.fmean(sum(s for _, s in times) for times in plain), "s"),
        }
        if args.trace:
            missing = [n for n in workload.required if not tracer.calls().get(n)]
            if missing:
                log(f"error: traced run recorded no call of {', '.join(missing)}")
                return 1
            traced_round_s = statistics.fmean(sum(s for _, s in times) for times in traced_rounds)
            probe = getattr(workload, "alloc_probe", None)
            peak_alloc = measure_alloc(probe(state, args.seed)) if probe else 0.0
            metrics = layer_metrics(tracer, peak_alloc, traced_round_s - metrics["round_s"][0])
            tracer.dump(OUT / f"spans-{tag}.json")

        checks = workload.check(state, args.seed)
    finally:
        tracer.unpatch()
        shutil.rmtree(input_dir, ignore_errors=True)

    correct = all(c["ok"] for c in checks)
    for c in checks:
        log(f"{'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} measured rounds, BLAS threads {args.blas_threads} (library reports {blas}), "
          f"{os.cpu_count()} CPUs, numpy {np.__version__}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"  tracing overhead: {metrics['tracing.overhead_s'][0]:+.4f} s per round "
              "(traced round_s minus untraced round_s)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, blas_threads=args.blas_threads, blas_reported=blas,
                  cpus=os.cpu_count(), setup_s=setup_s,
                  rounds=[{"traced": t, "clean": c, "ops": times} for t, c, times in rounds],
                  checks=checks)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
