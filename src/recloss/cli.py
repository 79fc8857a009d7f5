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
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import linear, metrics, mf, verify
from .config import ConfigError
from .data import _atomic_write, dataset_stats, load_dataset
from .synthetic import synthetic_dataset

EVAL_HEADER = "dataset,model,loss,k,recall,ndcg,users_evaluated"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the commands whose artifacts are their result
OUTPUT_REQUIRED = ("train", "solve", "sweep")


def _load_data(cfg: dict):
    synth = cfg["data"]["synthetic"]
    if synth is not None:
        return synthetic_dataset(**{"seed": cfg["seed"], **synth})
    train, test = cfg["data"]["train"], cfg["data"]["test"]
    if train is None:
        raise ConfigError("no dataset: set data.train/data.test or data.synthetic")
    return load_dataset(train, test)


def _eval_row(cfg: dict, model_label: str, loss_label: str, report) -> str:
    return (
        f"{cfg['dataset_name']},{model_label},{loss_label},{report.k},"
        f"{report.recall:.6f},{report.ndcg:.6f},{report.users_evaluated}"
    )


def _write_artifact(cfg: dict, out_dir: str, name: str, lines) -> None:
    """Write one CSV artifact, and the resolved config beside it."""
    os.makedirs(out_dir, exist_ok=True)
    with _atomic_write(os.path.join(out_dir, name)) as fh:
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
    """Shared by `train` and each sweep grid point; settings are checked before data is read."""
    train_cfg, ds = cfgmod.train_config(cfg), _load_data(cfg)
    model, history = mf.fit(ds, train_cfg)
    report = metrics.evaluate(model, ds, k=cfg["eval"]["k"])
    return model, history, report


def cmd_train(cfg: dict, args) -> int:
    """Train an embedding model."""
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
    # EASE weights hold no user rows, so they fit any number of users
    users = ds.num_users if mode == "ease" else payload.num_users
    items = len(payload) if mode == "ease" else payload.num_items
    if (users, items) != (ds.num_users, ds.num_items):
        raise ConfigError(
            f"checkpoint {args.checkpoint} holds {users} users x {items} items but the "
            f"dataset has {ds.num_users} users x {ds.num_items} items; evaluate a "
            "checkpoint on the dataset it was fitted on"
        )
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
    lin = cfg["linear"]
    family, debiased, _ = linear.LINEAR_MODELS[lin["model"]]
    ials_cfg = cfgmod.solve_config(cfg)  # checked before any data is read
    ds = _load_data(cfg)
    if family == "ials":
        fit = linear.ials_fit(ds, ials_cfg, debiased=debiased)
        scorer = weights = mf.ScoringModel(fit.W, fit.H, mode="dot")
        trace = fit.objective_trace
        print(f"objective: {trace[0]:.6g} -> {trace[-1]:.6g} over {len(trace) - 1} sweeps")
        if trace[-1] >= linear.ials_objective(0 * fit.W, 0 * fit.H, ds, ials_cfg, debiased):
            print("warning: the fit ended no lower than all-zero factors, whose scores all tie; "
                  "lower linear.lambda", file=sys.stderr)
    else:
        if ds.num_items > lin["item_budget"]:
            _, need = linear._ease_plan(ds.num_users, ds.num_items, ds.train_interactions)
            raise ConfigError(f"catalog has {ds.num_items} items, above the dense-solve budget "
                              f"of {lin['item_budget']}; an EASE fit would need about "
                              f"{need / 1e9:.2g} GB. Raise linear.item_budget only where that "
                              "much memory is free")
        X = ds.train_csr()
        sol = (linear.ease_debiased_fit(X, lin["lambda"], lin["alpha"]) if debiased
               else linear.ease_fit(X, lin["lambda"]))
        scorer, weights = linear.EASEScorer(ds, sol.W), sol.W
    # the output directory is made only once the fit has succeeded
    os.makedirs(args.output, exist_ok=True)
    ckpt.save_checkpoint(os.path.join(args.output, "checkpoint.bin"), weights)
    report = metrics.evaluate(scorer, ds, k=cfg["eval"]["k"])
    row = _eval_row(cfg, lin["model"], "mse-closed-form", report)
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
    axis = cfg["sweep"]["axis"]
    if not axis:
        raise ConfigError("sweep needs an axis (--axis key.path)")
    values, log_range = cfg["sweep"]["values"], cfg["sweep"]["log_range"]
    if not values:
        if not log_range:
            raise ConfigError("sweep needs --values or --log-range")
        values = [float(v) for v in np.geomspace(*log_range)]
    # config.resolved holds the grid as its points alone, so it reruns the same grid
    cfg = cfgmod.apply_override(cfg, "sweep", {"values": values, "log_range": None})
    workers = min(cfg["threads"], len(values))
    points = [json.dumps(cfgmod.apply_override(cfg, axis, value)) for value in values]
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawned workers load BLAS afresh and read these counts, threads // workers each
        saved = dict(os.environ)
        os.environ.update(dict.fromkeys(BLAS_ENV_VARS, str(cfg["threads"] // workers)))
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
    grid = sub.choices["sweep"].add_mutually_exclusive_group()
    grid.add_argument("--values", type=lambda text: text.split(","),
                      help="comma-separated grid values; sets sweep.values")
    grid.add_argument("--log-range", nargs=3, metavar=("LO", "HI", "COUNT"),
                      help="geometric grid from LO to HI with COUNT points; sets sweep.log_range")
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
    for key, other in (("values", "log_range"), ("log_range", "values")):
        # a grid flag sets its key and clears the other, so it outranks a grid
        # from a preset or file; each item is parsed as a --set value is
        if getattr(args, key, None):
            items = [cfgmod._parse_override_value(item) for item in getattr(args, key)]
            sets += [f"sweep.{key}={json.dumps(items)}", f"sweep.{other}=null"]
    return sets


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.resolve_config(
            config_path=args.config,
            preset=args.preset,
            overrides=_flag_overrides(args) + list(args.sets),
        )
        if args.command in OUTPUT_REQUIRED and not args.output:
            raise ConfigError(f"{args.command} requires --output for its artifacts")
        return _HANDLERS[args.command](cfg, args)
    except (ValueError, OSError, FloatingPointError, mf.TrainingDivergedError) as exc:
        # ValueError covers ConfigError, the data and checkpoint format errors and
        # the settings the config dataclasses reject; OSError a path that cannot be
        # read, such as a missing file or a directory; FloatingPointError a refused solve
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
