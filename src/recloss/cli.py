"""Command-line front end: stats, train, eval, solve, verify, sweep.

Every command resolves one JSON config (defaults < preset < file < --set
overrides) and, when it writes artifacts, drops the resolved document next
to them as `config.resolved` so the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
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
from .synthetic import make_planted_blocks, make_random_dataset

EVAL_HEADER = "dataset,model,loss,k,recall,ndcg,users_evaluated"


def _load_data(cfg: dict):
    synth = cfg["data"]["synthetic"]
    if synth is not None:
        params = dict(synth)
        kind = params.pop("kind", "planted")
        params.setdefault("seed", cfg["seed"])
        if kind == "planted":
            return make_planted_blocks(**params).dataset
        if kind == "random":
            return make_random_dataset(**params)
        raise ConfigError(f"unknown synthetic data kind {kind!r}")
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
        sampler=SamplerConfig(**cfg["sampler"], seed=cfg["seed"]),
        seed=cfg["seed"],
        eval_k=cfg["eval"]["k"],
    )


def _eval_row(cfg: dict, model_label: str, loss_label: str, report) -> str:
    return (
        f"{cfg['dataset_name']},{model_label},{loss_label},{report.k},"
        f"{report.recall:.6f},{report.ndcg:.6f},{report.users_evaluated}"
    )


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_stats(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    stats = dataset_stats(ds)
    lines = [f"{f.name},{getattr(stats, f.name)}" for f in dataclasses.fields(stats)]
    for line in lines:
        print(line)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        _write_lines(os.path.join(args.output, "stats.csv"), lines)
        cfgmod.write_resolved(cfg, args.output)
    return 0


def train_and_evaluate(cfg: dict):
    """Shared by `train` and each sweep grid point."""
    ds = _load_data(cfg)
    train_cfg = _train_config(cfg)
    model, history = mf.fit(ds, train_cfg)
    report = metrics.evaluate(model, ds, k=cfg["eval"]["k"])
    return model, history, report


def cmd_train(cfg: dict, args) -> int:
    if not args.output:
        raise ConfigError("train requires --output for its artifacts")
    model, history, report = train_and_evaluate(cfg)
    os.makedirs(args.output, exist_ok=True)
    ckpt.save_checkpoint(os.path.join(args.output, "checkpoint.bin"), model)
    history.to_csv(os.path.join(args.output, "history.csv"))
    row = _eval_row(cfg, model.mode, cfg["loss"]["kind"], report)
    _write_lines(os.path.join(args.output, "eval.csv"), [EVAL_HEADER, row])
    cfgmod.write_resolved(cfg, args.output)
    print(row)
    return 0


def cmd_eval(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    mode, payload = ckpt.load_checkpoint(args.checkpoint)
    scorer = linear.EASEScorer(ds, payload) if mode == "ease" else payload
    report = metrics.evaluate(scorer, ds, k=cfg["eval"]["k"])
    row = _eval_row(cfg, args.model_label or mode, args.loss_label, report)
    print(EVAL_HEADER)
    print(row)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        _write_lines(os.path.join(args.output, "eval.csv"), [EVAL_HEADER, row])
        cfgmod.write_resolved(cfg, args.output)
    return 0


def cmd_solve(cfg: dict, args) -> int:
    if not args.output:
        raise ConfigError("solve requires --output for its artifacts")
    ds = _load_data(cfg)
    lin = cfg["linear"]
    model_kind = lin["model"]
    os.makedirs(args.output, exist_ok=True)
    if model_kind in ("ials", "ials-debiased"):
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
    elif model_kind in ("ease", "ease-debiased"):
        if ds.num_items > lin["item_budget"]:
            raise ConfigError(
                f"catalog has {ds.num_items} items, above the dense-solve budget "
                f"of {lin['item_budget']} (linear.item_budget)"
            )
        X = ds.train_matrix()
        if model_kind == "ease":
            sol = linear.ease_fit(X, lin["lambda"])
        else:
            sol = linear.ease_debiased_fit(X, lin["lambda"], lin["alpha"])
        scorer = linear.EASEScorer(ds, sol.W)
        ckpt.save_checkpoint(os.path.join(args.output, "checkpoint.bin"), sol.W)
    else:
        raise ConfigError(
            f"unknown linear model {model_kind!r}; expected ials, ials-debiased, ease, ease-debiased"
        )
    report = metrics.evaluate(scorer, ds, k=cfg["eval"]["k"])
    row = _eval_row(cfg, model_kind, "mse-closed-form", report)
    _write_lines(os.path.join(args.output, "eval.csv"), [EVAL_HEADER, row])
    cfgmod.write_resolved(cfg, args.output)
    print(row)
    return 0


def cmd_verify(cfg: dict, args) -> int:
    report = verify.run_verification(
        bound_instances=cfg["verify"]["bound_instances"],
        theorem_instances=cfg["verify"]["theorem_instances"],
        seed=cfg["seed"],
    )
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
        _, _, report = train_and_evaluate(cfg)
        return {"recall": report.recall, "ndcg": report.ndcg, "status": "ok"}
    except Exception as exc:  # record and continue: a bad point must not kill the sweep
        return {"recall": float("nan"), "ndcg": float("nan"), "status": "error",
                "message": str(exc)}


def cmd_sweep(cfg: dict, args) -> int:
    if not args.output:
        raise ConfigError("sweep requires --output for its artifacts")
    axis = args.axis or cfg["sweep"]["axis"]
    if not axis:
        raise ConfigError("sweep needs an axis (--axis key.path)")
    if args.values:
        values = [cfgmod._parse_override_value(v) for v in args.values.split(",")]
    elif args.log_range:
        lo, hi, count = args.log_range
        values = [float(v) for v in np.geomspace(float(lo), float(hi), int(count))]
    elif cfg["sweep"]["values"]:
        values = cfg["sweep"]["values"]
    else:
        raise ConfigError("sweep needs --values or --log-range")
    cfg = copy.deepcopy(cfg)
    cfg["sweep"]["axis"], cfg["sweep"]["values"] = axis, values
    workers = max(1, min(int(args.workers or cfg["sweep"]["workers"]), cfg["threads"]))

    points = []
    for value in values:
        point = copy.deepcopy(cfg)
        cfgmod.apply_override(point, axis, value)
        points.append(json.dumps(point))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]

    os.makedirs(args.output, exist_ok=True)
    lines = ["axis,value,recall,ndcg,status"]
    for value, res in zip(values, results):
        if res["status"] != "ok":
            print(f"sweep point {axis}={value} failed: {res.get('message')}", file=sys.stderr)
        lines.append(
            f"{axis},{value},{res['recall']:.6f},{res['ndcg']:.6f},{res['status']}"
        )
    _write_lines(os.path.join(args.output, "sweep.csv"), lines)
    cfgmod.write_resolved(cfg, args.output)
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recloss",
        description="Contrastive and classical recommendation losses, linear solvers, and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named hyperparameter bundle, e.g. mine+/gowalla")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override one config value")
        p.add_argument("--data-dir", dest="data_dir",
                       help="directory holding train.txt and test.txt")
        p.add_argument("--train", dest="train_path", help="train interactions file")
        p.add_argument("--test", dest="test_path", help="test interactions file")
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="artifact directory")

    p = sub.add_parser("stats", help="dataset summary")
    add_common(p)

    p = sub.add_parser("train", help="train an embedding model")
    add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--model-label")
    p.add_argument("--loss-label", default="-")

    p = sub.add_parser("solve", help="fit a closed-form linear model")
    add_common(p)
    p.add_argument("--model", choices=["ials", "ials-debiased", "ease", "ease-debiased"])
    p.add_argument("--alpha0", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--c-u", dest="c_u", type=float)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--item-budget", dest="item_budget", type=int)

    p = sub.add_parser("verify", help="run bound and theorem checks")
    add_common(p)
    p.add_argument("--bounds", type=int, help="bound-chain instance count")
    p.add_argument("--theorem-instances", type=int)

    p = sub.add_parser("sweep", help="train/eval across a hyperparameter grid")
    add_common(p)
    p.add_argument("--axis", help="dotted config path, e.g. loss.params.lambda")
    p.add_argument("--values", help="comma-separated grid values")
    p.add_argument("--log-range", nargs=3, metavar=("LO", "HI", "COUNT"),
                   help="geometric grid from LO to HI with COUNT points")
    p.add_argument("--workers", type=int)

    return parser


# subcommand flag -> the config key it sets
_FLAG_KEYS = {
    "seed": "seed",
    "k": "eval.k",
    "model": "linear.model",
    "alpha0": "linear.alpha0",
    "lam": "linear.lambda",
    "alpha": "linear.alpha",
    "c_u": "linear.c_u",
    "sweeps": "linear.sweeps",
    "d": "linear.d",
    "item_budget": "linear.item_budget",
    "bounds": "verify.bound_instances",
    "theorem_instances": "verify.theorem_instances",
}


def _flag_overrides(args) -> list[str]:
    """Convenience flags become ordinary config overrides."""
    sets = []
    if args.data_dir:
        sets.append(f"data.train={os.path.join(args.data_dir, 'train.txt')}")
        sets.append(f"data.test={os.path.join(args.data_dir, 'test.txt')}")
    if args.train_path:
        sets.append(f"data.train={args.train_path}")
    if args.test_path:
        sets.append(f"data.test={args.test_path}")
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            sets.append(f"{key}={getattr(args, flag)}")
    return sets


_HANDLERS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "eval": cmd_eval,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


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
