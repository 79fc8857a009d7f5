"""Run configuration: JSON documents, strict key validation, named presets.

A run is described by one nested dict.  Precedence, lowest to highest:
built-in defaults, preset bundle, config file, command-line overrides.
Unknown keys anywhere are rejected so typos cannot silently fall back to
defaults.  Every command that produces artifacts writes the fully resolved
document back out as `config.resolved`.
"""

from __future__ import annotations

import copy
import inspect
import json
import os

from .linear import EASEConfig, IALSConfig
from .losses import LOSS_KINDS, LOSS_TABLE
from .mf import TrainConfig
from .sampling import SAMPLER_KINDS, SamplerConfig
from .synthetic import DEFAULT_SYNTHETIC_KIND, SYNTHETIC_KINDS
from .verify import run_verification

THREADS_ENV_VAR = "RECLOSS_THREADS"


class ConfigError(ValueError):
    pass


def _keyword_defaults(fn) -> dict:
    """Each keyword of a function or dataclass with its default, None for a required one."""
    return {name: None if p.default is p.empty else p.default
            for name, p in inspect.signature(fn).parameters.items()}


# A default that a dataclass or function signature holds is read from it;
# the literals below have no other home.  TrainConfig's loss, loss_params,
# sampler, seed and eval_k are set from the loss, sampler, top-level and
# eval tables.
_TRAIN = _keyword_defaults(TrainConfig)
_IALS = _keyword_defaults(IALSConfig)

DEFAULTS = {
    "seed": _TRAIN["seed"],
    "threads": 1,
    "dataset_name": "dataset",
    "data": {"train": None, "test": None, "synthetic": None},
    "loss": {"kind": _TRAIN["loss"], "params": {}},
    "sampler": _keyword_defaults(SamplerConfig),
    "train": {k: v for k, v in _TRAIN.items()
              if k not in ("loss", "loss_params", "sampler", "seed", "eval_k")},
    "linear": {
        "model": "ease",
        "d": 64,
        "alpha0": 0.1,
        "lambda": 100.0,
        "nu": _IALS["nu"],
        "c_u": _IALS["c_u"],
        "alpha": _keyword_defaults(EASEConfig)["alpha"],
        "sweeps": _IALS["num_sweeps"],
        "item_budget": 15_000,  # an EASE fit peaks near 24 n^2 bytes: ~5.4 GB here
    },
    "eval": {"k": _TRAIN["eval_k"]},
    "verify": {k: v for k, v in _keyword_defaults(run_verification).items() if k != "seed"},
    "sweep": {"axis": None, "values": None, "log_range": None, "workers": 1},
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


def _type_ok(value, default) -> bool:
    """A value fits the type of its key's default: an int passes for a
    float, a bool only for a bool, and a None default takes anything."""
    if default is None:
        return True
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_keys(cfg: dict, template: dict, path: str = "") -> None:
    for key, value in cfg.items():
        here = f"{path}{key}"
        if key not in template:
            raise ConfigError(f"unknown config key {here!r}; expected one of {', '.join(template)}")
        default = template[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a table")
            if here != "loss.params":  # checked against the loss kind
                _check_keys(value, default, here + ".")
        elif not _type_ok(value, default):
            raise ConfigError(
                f"config key {here!r} must be {type(default).__name__}, got {value!r}"
            )


def _check_synthetic(synth) -> None:
    if not isinstance(synth, dict):
        raise ConfigError("data.synthetic must be a table")
    kind = synth.get("kind", DEFAULT_SYNTHETIC_KIND)
    if not isinstance(kind, str) or kind not in SYNTHETIC_KINDS:
        raise ConfigError(
            f"unknown synthetic data kind {kind!r}; expected one of {tuple(SYNTHETIC_KINDS)}"
        )
    keywords = _keyword_defaults(SYNTHETIC_KINDS[kind])
    _check_keys(synth, {"kind": kind, **keywords}, "data.synthetic.")
    for key, default in keywords.items():
        if default is None and key not in synth:
            raise ConfigError(f"synthetic data kind {kind!r} requires data.synthetic.{key}")


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
    if cfg["data"]["synthetic"] is not None:
        _check_synthetic(cfg["data"]["synthetic"])


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(cfg: dict, dotted: str, value) -> dict:
    """A copy of cfg with the key `a.b.c` set to value; keys are checked
    when the result is validated."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return deep_merge(cfg, value)


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
        cfg = deep_merge(cfg, loaded)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, _, raw = item.partition("=")
        cfg = apply_override(cfg, dotted.strip(), _parse_override_value(raw.strip()))
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
