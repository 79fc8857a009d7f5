"""Command-line front end: stats, train, eval, solve, verify, sweep.

Every command resolves one JSON config (defaults < preset < file < --set
overrides) and, when it writes artifacts, drops the resolved document next
to them as `config.resolved` so the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import linear, metrics, mf, verify
from .config import ConfigError
from .data import dataset_stats, load_dataset
from .sampling import SamplerConfig
from .synthetic import synthetic_dataset

EVAL_HEADER = "dataset,model,loss,k,recall,ndcg,users_evaluated"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_data(cfg: dict):
    synth = cfg["data"]["synthetic"]
    if synth is not None:
        return synthetic_dataset(**{"seed": cfg["seed"], **synth})
    train, test = cfg["data"]["train"], cfg["data"]["test"]
    if train is None:
        raise ConfigError("no dataset: set data.train/data.test or data.synthetic")
    return load_dataset(train, test)


def _train_config(cfg: dict) -> mf.TrainConfig:
    # the sampler and train tables hold exactly the SamplerConfig/TrainConfig fields
    return mf.TrainConfig(
        **cfg["train"],
        loss=cfg["loss"]["kind"],
        loss_params=dict(cfg["loss"]["params"]),
        sampler=SamplerConfig(**cfg["sampler"]),
        seed=cfg["seed"],
        eval_k=cfg["eval"]["k"],
    )


def _eval_row(cfg: dict, model_label: str, loss_label: str, report) -> str:
    return (
        f"{cfg['dataset_name']},{model_label},{loss_label},{report.k},"
        f"{report.recall:.6f},{report.ndcg:.6f},{report.users_evaluated}"
    )


def _write_artifact(cfg: dict, out_dir: str, name: str, lines) -> None:
    """Write one CSV artifact, and the resolved config beside it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    cfgmod.write_resolved(cfg, out_dir)


def cmd_stats(cfg: dict, args) -> int:
    """Print the dataset summary."""
    ds = _load_data(cfg)
    stats = dataset_stats(ds)
    lines = [f"{f.name},{getattr(stats, f.name)}" for f in dataclasses.fields(stats)]
    for line in lines:
        print(line)
    if args.output:
        _write_artifact(cfg, args.output, "stats.csv", lines)
    return 0


def train_and_evaluate(cfg: dict):
    """Shared by `train` and each sweep grid point."""
    ds = _load_data(cfg)
    model, history = mf.fit(ds, _train_config(cfg))
    report = metrics.evaluate(model, ds, k=cfg["eval"]["k"])
    return model, history, report


def cmd_train(cfg: dict, args) -> int:
    """Train an embedding model."""
    if not args.output:
        raise ConfigError("train requires --output for its artifacts")
    model, history, report = train_and_evaluate(cfg)
    os.makedirs(args.output, exist_ok=True)
    ckpt.save_checkpoint(os.path.join(args.output, "checkpoint.bin"), model)
    history.to_csv(os.path.join(args.output, "history.csv"))
    row = _eval_row(cfg, model.mode, cfg["loss"]["kind"], report)
    _write_artifact(cfg, args.output, "eval.csv", [EVAL_HEADER, row])
    print(row)
    return 0


def cmd_eval(cfg: dict, args) -> int:
    """Evaluate a checkpoint."""
    ds = _load_data(cfg)
    mode, payload = ckpt.load_checkpoint(args.checkpoint)
    scorer = linear.EASEScorer(ds, payload) if mode == "ease" else payload
    report = metrics.evaluate(scorer, ds, k=cfg["eval"]["k"])
    row = _eval_row(cfg, args.model_label or mode, args.loss_label, report)
    print(EVAL_HEADER)
    print(row)
    if args.output:
        _write_artifact(cfg, args.output, "eval.csv", [EVAL_HEADER, row])
    return 0


def cmd_solve(cfg: dict, args) -> int:
    """Fit a closed-form linear model."""
    if not args.output:
        raise ConfigError("solve requires --output for its artifacts")
    ds = _load_data(cfg)
    lin = cfg["linear"]
    model_kind = lin["model"]
    if model_kind not in linear.LINEAR_MODELS:
        raise ConfigError(f"unknown linear model {model_kind!r}; expected one of {linear.LINEAR_MODELS}")
    os.makedirs(args.output, exist_ok=True)
    if model_kind.startswith("ials"):
        ials_cfg = linear.IALSConfig(
            d=lin["d"], alpha0=lin["alpha0"], lam=lin["lambda"], nu=lin["nu"],
            c_u=lin["c_u"], num_sweeps=lin["sweeps"], seed=cfg["seed"],
        )
        state = linear.ials_fit(ds, ials_cfg, debiased=model_kind.endswith("debiased"))
        scorer = state
        ckpt.save_checkpoint(
            os.path.join(args.output, "checkpoint.bin"),
            mf.ScoringModel(state.W, state.H, mode="dot"),
        )
        trace = state.objective_trace
        print(f"objective: {trace[0]:.6g} -> {trace[-1]:.6g} over {len(trace) - 1} sweeps")
    else:
        if ds.num_items > lin["item_budget"]:
            # ease_fit peaks below three dense n x n float64 matrices: 2.68 * 8n^2
            # bytes measured at n = 1,000 with a dense Gram (the sparse Gram
            # and its dense copy coexist), so 24 n^2 bytes keeps a margin; the
            # sparse X adds 12 bytes per interaction (a float and an index)
            need = 24 * ds.num_items**2 + 12 * ds.train_interactions
            raise ConfigError(
                f"catalog has {ds.num_items} items, above the dense-solve budget "
                f"of {lin['item_budget']}; an EASE fit would need about "
                f"{need / 1e9:.2g} GB. Raise linear.item_budget "
                "only where that much memory is free"
            )
        X = ds.train_csr()
        if model_kind == "ease":
            sol = linear.ease_fit(X, lin["lambda"])
        else:
            sol = linear.ease_debiased_fit(X, lin["lambda"], lin["alpha"])
        scorer = linear.EASEScorer(ds, sol.W)
        ckpt.save_checkpoint(os.path.join(args.output, "checkpoint.bin"), sol.W)
    report = metrics.evaluate(scorer, ds, k=cfg["eval"]["k"])
    row = _eval_row(cfg, model_kind, "mse-closed-form", report)
    _write_artifact(cfg, args.output, "eval.csv", [EVAL_HEADER, row])
    print(row)
    return 0


def cmd_verify(cfg: dict, args) -> int:
    """Run the bound and theorem checks."""
    report = verify.run_verification(**cfg["verify"], seed=cfg["seed"])
    for prop in report["properties"]:
        flag = "PASS" if prop["passed"] else "FAIL"
        print(f"{flag} {prop['name']}: worst={prop['worst']:.3e} "
              f"tol={prop['tolerance']:.1e} n={prop['instances']}")
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        verify.write_report(report, os.path.join(args.output, "report.json"))
        cfgmod.write_resolved(cfg, args.output)
    return 0 if report["passed"] else 1


def _sweep_point(cfg_json: str) -> dict:
    """One grid point; takes serialized config so it can cross process bounds."""
    cfg = json.loads(cfg_json)
    try:
        cfgmod.validate_config(cfg)
        _, _, report = train_and_evaluate(cfg)
        return {"recall": report.recall, "ndcg": report.ndcg, "status": "ok"}
    except Exception as exc:  # record and continue: a bad point must not kill the sweep
        return {"recall": float("nan"), "ndcg": float("nan"), "status": "error",
                "message": str(exc)}


def cmd_sweep(cfg: dict, args) -> int:
    """Train and evaluate across a hyperparameter grid."""
    if not args.output:
        raise ConfigError("sweep requires --output for its artifacts")
    axis = cfg["sweep"]["axis"]
    if not axis:
        raise ConfigError("sweep needs an axis (--axis key.path)")
    if args.values:
        values = [cfgmod._parse_override_value(v) for v in args.values.split(",")]
    elif not args.log_range and cfg["sweep"]["values"]:
        values = cfg["sweep"]["values"]
    else:
        log_range = args.log_range or cfg["sweep"]["log_range"]
        if not log_range:
            raise ConfigError("sweep needs --values or --log-range")
        if not isinstance(log_range, (list, tuple)) or len(log_range) != 3:
            raise ConfigError(f"sweep.log_range must be [lo, hi, count], got {log_range!r}")
        lo, hi, count = log_range
        values = [float(v) for v in np.geomspace(float(lo), float(hi), int(count))]
    cfg = cfgmod.apply_override(cfg, "sweep.values", values)
    workers = max(1, min(cfg["sweep"]["workers"], cfg["threads"]))
    points = [json.dumps(cfgmod.apply_override(cfg, axis, value)) for value in values]
    if workers > 1:
        # spawned workers load BLAS afresh and read these thread counts,
        # which split cfg["threads"] between them
        saved = dict(os.environ)
        os.environ.update(dict.fromkeys(BLAS_ENV_VARS, str(max(1, cfg["threads"] // workers))))
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                results = list(pool.map(_sweep_point, points))
        finally:
            os.environ.clear()
            os.environ.update(saved)
    else:
        results = [_sweep_point(p) for p in points]

    lines = ["axis,value,recall,ndcg,status"]
    for value, res in zip(values, results):
        if res["status"] != "ok":
            print(f"sweep point {axis}={value} failed: {res.get('message')}", file=sys.stderr)
        lines.append(
            f"{axis},{value},{res['recall']:.6f},{res['ndcg']:.6f},{res['status']}"
        )
    _write_artifact(cfg, args.output, "sweep.csv", lines)
    print("\n".join(lines))
    # a sweep with no usable point (say, an axis that names no key) failed
    return 0 if any(res["status"] == "ok" for res in results) else 1


_HANDLERS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "eval": cmd_eval,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


# (command, flag, config key): each convenience flag sets one config key and
# takes its type from that key's default; "*" marks the flags of every command
FLAGS = (
    ("*", "--train", "data.train"),
    ("*", "--test", "data.test"),
    ("*", "--seed", "seed"),
    ("eval", "--k", "eval.k"),
    ("solve", "--model", "linear.model"),
    ("solve", "--alpha0", "linear.alpha0"),
    ("solve", "--lambda", "linear.lambda"),
    ("solve", "--alpha", "linear.alpha"),
    ("solve", "--c-u", "linear.c_u"),
    ("solve", "--sweeps", "linear.sweeps"),
    ("solve", "--d", "linear.d"),
    ("solve", "--item-budget", "linear.item_budget"),
    ("verify", "--bounds", "verify.bound_instances"),
    ("verify", "--theorem-instances", "verify.theorem_instances"),
    ("sweep", "--axis", "sweep.axis"),
    ("sweep", "--workers", "sweep.workers"),
)
_FLAG_CHOICES = {"linear.model": linear.LINEAR_MODELS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recloss",
        description="Contrastive and classical recommendation losses, linear solvers, and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named hyperparameter bundle, e.g. mine+/gowalla")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override one config value")
        p.add_argument("--data-dir", dest="data_dir",
                       help="directory holding train.txt and test.txt")
        p.add_argument("--output", help="artifact directory")
        for flag_command, flag, key in FLAGS:
            if flag_command in ("*", command):
                default = functools.reduce(dict.__getitem__, key.split("."), cfgmod.DEFAULTS)
                p.add_argument(flag, dest=key, type=str if default is None else type(default),
                               choices=_FLAG_CHOICES.get(key), help=f"sets {key}")

    p = sub.choices["eval"]
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--model-label")
    p.add_argument("--loss-label", default="-")
    p = sub.choices["sweep"]
    p.add_argument("--values", help="comma-separated grid values")
    p.add_argument("--log-range", nargs=3, metavar=("LO", "HI", "COUNT"),
                   help="geometric grid from LO to HI with COUNT points")
    return parser


def _flag_overrides(args) -> list[str]:
    """Convenience flags become ordinary config overrides; each value is
    JSON-quoted, so a path such as "123" stays a string."""
    sets = []
    if args.data_dir:
        sets.append(f"data.train={json.dumps(os.path.join(args.data_dir, 'train.txt'))}")
        sets.append(f"data.test={json.dumps(os.path.join(args.data_dir, 'test.txt'))}")
    for _, _, key in FLAGS:
        if getattr(args, key, None) is not None:
            sets.append(f"{key}={json.dumps(getattr(args, key))}")
    return sets


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.resolve_config(
            config_path=args.config,
            preset=args.preset,
            overrides=_flag_overrides(args) + list(args.sets),
        )
        return _HANDLERS[args.command](cfg, args)
    except (ValueError, FileNotFoundError, mf.TrainingDivergedError) as exc:
        # ValueError covers ConfigError, the data and checkpoint format errors
        # and the settings the config dataclasses reject
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
