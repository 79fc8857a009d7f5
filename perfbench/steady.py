"""Check that the benchmark is steady: two sets of runs of the same commit.

    python3 perfbench/steady.py                          # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --workloads bpr-wide --runs 5

Runs the command in BENCHMARK.json once per seed (every run gets its own
seed), in two sets one after the other, and reports, for each workload and
end-to-end metric, each set's median and quartiles, the spread
(q3 - q1) / median against the metric's bound, and how far the two sets'
medians lie apart, |m2 - m1| / min(m1, m2).  Exits 1 when any spread or
any distance between the sets exceeds its bound, or when the sets' shares
of failed operations differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def distance(first: float, second: float) -> float:
    """How far two medians lie apart, as a share of the smaller one; the
    same whichever set ran first."""
    return abs(second - first) / min(first, second)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs: dict[str, list[list[dict]]] = {w: [] for w in names}
    seed = args.first_seed
    for s in range(2):
        for w in names:
            runs[w].append([])
            for _ in range(args.runs):
                res = run_once(bench, w, seed)
                print(f"set {s + 1} {w} seed {seed}: {res['wall_s']:.1f} s wall, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
                runs[w][-1].append(res)
                seed += 1

    ok = True
    report = {}
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<14} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            per_set = [[r["metrics"][m["name"]]["value"] for r in rs] for rs in runs[w]]
            rows = []
            for s, values in enumerate(per_set):
                q1, med, q3 = quartiles(values)
                sp = (q3 - q1) / med
                steady = sp <= m["bound"]
                verdict = "ok" if sp <= m["bound"] / 3 else ("within bound" if steady else "TOO WIDE")
                ok &= steady
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": sp})
                print(f"  {m['name']:<14} {s + 1:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{sp:>8.2%} {m['bound']:>6.0%}  {verdict}")
            apart = distance(rows[0]["median"], rows[1]["median"])
            ok &= apart <= m["bound"]
            print(f"  {'':<14} medians apart by {apart:.2%} "
                  f"({'ok' if apart <= m['bound'] else 'OVER BOUND'})")
            report.setdefault(w, {})[m["name"]] = {"sets": rows, "bound": m["bound"],
                                                   "apart": apart}
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]]
        same = len(set(shares)) == 1
        ok &= same
        print(f"  failed share per set: {shares} ({'same' if same else 'DIFFERENT'})")
        report[w]["failed_share"] = shares

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(report, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
