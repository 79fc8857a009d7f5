"""Run configuration: JSON documents, strict key validation, named presets.

A run is described by one nested dict.  Precedence, lowest to highest:
built-in defaults, preset bundle, config file, command-line overrides.
Unknown keys anywhere are rejected so typos cannot silently fall back to
defaults.  Every command that produces artifacts writes the fully resolved
document back out as `config.resolved`.
"""

from __future__ import annotations

import copy
import json
import os

from .losses import LOSS_KINDS, LOSS_TABLE
from .sampling import SAMPLER_KINDS

THREADS_ENV_VAR = "RECLOSS_THREADS"


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "dataset_name": "dataset",
    "data": {
        "train": None,
        "test": None,
        "synthetic": None,
    },
    "loss": {"kind": "bpr", "params": {}},
    "sampler": {
        "kind": "uniform_all_items",
        "n_negatives": 1,
        "m_positives": 0,
        "share_batch": False,
    },
    "train": {
        "embedding_dim": 64,
        "batch_size": 512,
        "initial_lr": 1e-4,
        "plateau_factor": 0.5,
        "plateau_patience": 3,
        "plateau_threshold": 1e-4,
        "min_lr": 1e-6,
        "l2_weight": 0.0,
        "max_epochs": 100,
        "mode": None,
        "temperature": 1.0,
        "init_std": 0.01,
        "val_fraction": 0.1,
    },
    "linear": {
        "model": "ease",
        "d": 64,
        "alpha0": 0.1,
        "lambda": 100.0,
        "nu": 1.0,
        "c_u": 1.0,
        "alpha": 0.0,
        "sweeps": 10,
        "item_budget": 15_000,  # an EASE fit peaks near 24 n^2 bytes: ~5.4 GB here
    },
    "eval": {"k": 20},
    "verify": {"bound_instances": 10_000, "theorem_instances": 50},
    "sweep": {"axis": None, "values": None, "log_range": None, "workers": 1},
}

# keys whose default is None but which accept a nested dict / list
_SYNTHETIC_KEYS = {
    "kind", "num_users", "num_items", "num_blocks",
    "in_block_p", "noise_p", "test_fraction", "seed", "density",
}

# The repro tables, verbatim.  "regularization: -9" in the debiased-CCL
# table is exponent notation for 1e-9 (the search range is 1e-9..1, ratio
# 10, so a literal -9 would fall outside it).
PRESETS = {
    "mine+/yelp2018": {
        "dataset_name": "yelp2018",
        "loss": {"kind": "mine_plus", "params": {"lambda": 1.1}},
        "train": {"temperature": 0.5, "l2_weight": 1.0, "mode": "cosine"},
        "sampler": {"n_negatives": 800},
    },
    "mine+/gowalla": {
        "dataset_name": "gowalla",
        "loss": {"kind": "mine_plus", "params": {"lambda": 1.2}},
        "train": {"temperature": 0.4, "l2_weight": 1.0, "mode": "cosine"},
        "sampler": {"n_negatives": 800},
    },
    "mine+/amazon-books": {
        "dataset_name": "amazon-books",
        "loss": {"kind": "mine_plus", "params": {"lambda": 1.1}},
        "train": {"temperature": 0.4, "l2_weight": 0.01, "mode": "cosine"},
        "sampler": {"n_negatives": 800},
    },
    "debiased-ccl/yelp2018": {
        "dataset_name": "yelp2018",
        "loss": {"kind": "debiased_ccl", "params": {"lambda_n": 0.4, "margin": 0.9}},
        "train": {"l2_weight": 1e-9, "mode": "cosine"},
        "sampler": {"n_negatives": 800, "m_positives": 10},
    },
    "debiased-ccl/gowalla": {
        "dataset_name": "gowalla",
        "loss": {"kind": "debiased_ccl", "params": {"lambda_n": 0.7, "margin": 0.9}},
        "train": {"l2_weight": 1e-9, "mode": "cosine"},
        "sampler": {"n_negatives": 800, "m_positives": 20},
    },
    "debiased-ccl/amazon-books": {
        "dataset_name": "amazon-books",
        "loss": {"kind": "debiased_ccl", "params": {"lambda_n": 0.6, "margin": 0.4}},
        "train": {"l2_weight": 1e-9, "mode": "cosine"},
        "sampler": {"n_negatives": 800, "m_positives": 50},
    },
}


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check_keys(cfg: dict, template: dict, path: str = "") -> None:
    for key, value in cfg.items():
        here = f"{path}{key}"
        if key not in template:
            raise ConfigError(f"unknown config key {here!r}")
        tmpl = template[key]
        if here == "loss.params" or here == "data.synthetic" or here.startswith("sweep."):
            continue  # validated separately / free-form lists
        if isinstance(tmpl, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a table")
            _check_keys(value, tmpl, here + ".")


def validate_config(cfg: dict) -> None:
    _check_keys(cfg, DEFAULTS)
    kind = cfg["loss"]["kind"]
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    allowed = LOSS_TABLE[kind].params
    for key in cfg["loss"]["params"]:
        if key not in allowed:
            hint = "; the clamp temperature is train.temperature" if key == "temperature" else ""
            raise ConfigError(
                f"loss parameter {key!r} is not valid for kind {kind!r} "
                f"(allowed: {sorted(allowed) or 'none'}){hint}"
            )
    if cfg["sampler"]["kind"] not in SAMPLER_KINDS:
        raise ConfigError(
            f"unknown sampler kind {cfg['sampler']['kind']!r}; expected one of {SAMPLER_KINDS}"
        )
    synth = cfg["data"]["synthetic"]
    if synth is not None:
        if not isinstance(synth, dict):
            raise ConfigError("data.synthetic must be a table")
        for key in synth:
            if key not in _SYNTHETIC_KEYS:
                raise ConfigError(f"unknown config key 'data.synthetic.{key}'")


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(cfg: dict, dotted: str, value) -> None:
    """Set `a.b.c` to value, creating loss-param keys but nothing else new."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        if node[part] is None:
            node[part] = {}
        node = node[part]
    leaf = parts[-1]
    free_form = dotted.startswith(("loss.params.", "data.synthetic.", "sweep."))
    if not free_form and (not isinstance(node, dict) or leaf not in node):
        raise ConfigError(f"unknown config key {dotted!r}")
    node[leaf] = value


def resolve_config(
    config_path: str | None = None,
    preset: str | None = None,
    overrides: list[str] | None = None,
) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg = deep_merge(cfg, PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        _check_keys(loaded, DEFAULTS)
        cfg = deep_merge(cfg, loaded)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, _, raw = item.partition("=")
        apply_override(cfg, dotted.strip(), _parse_override_value(raw.strip()))
    validate_config(cfg)
    env_cap = os.environ.get(THREADS_ENV_VAR)
    if env_cap is not None:
        try:
            cfg["threads"] = min(int(cfg["threads"]), max(1, int(env_cap)))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env_cap!r}")
    return cfg


def write_resolved(cfg: dict, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
