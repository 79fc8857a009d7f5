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

from .data import _atomic_write
from .linear import LINEAR_MODELS, IALSConfig, check_ease_settings, ease_debiased_fit
from .losses import check_loss_params, misfit, type_fits
from .mf import TrainConfig
from .sampling import SamplerConfig
from .synthetic import DEFAULT_SYNTHETIC_KIND, SYNTHETIC_KINDS
from .verify import run_verification


class ConfigError(ValueError):
    pass


def _keyword_defaults(fn) -> dict:
    """Each keyword of a function or dataclass with its default, None for a required one."""
    return {name: None if p.default is p.empty else p.default
            for name, p in inspect.signature(fn).parameters.items()}


# A default that a dataclass or function signature holds is read from it;
# the literals below have no other home.  train_config and solve_config invert this.
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
        "alpha": _keyword_defaults(ease_debiased_fit)["alpha"],
        "sweeps": _IALS["num_sweeps"],
        "item_budget": 15_000,  # ~1.8 GB on the item side; linear._ease_plan bounds the peak
    },
    "eval": {"k": _TRAIN["eval_k"]},
    "verify": {k: v for k, v in _keyword_defaults(run_verification).items() if k != "seed"},
    "sweep": {"axis": None, "values": None, "log_range": None},
}


def train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig of a resolved config: DEFAULTS' train and sampler derivation inverted."""
    return TrainConfig(**cfg["train"], sampler=SamplerConfig(**cfg["sampler"]),
                       loss=cfg["loss"]["kind"], loss_params=dict(cfg["loss"]["params"]),
                       seed=cfg["seed"], eval_k=cfg["eval"]["k"])


def solve_config(cfg: dict) -> IALSConfig | None:
    """The run of `recloss solve`, checked before any data is read: the IALSConfig of iALS
    (alpha0 < 1 for ials-debiased, as linear.ials_fit needs), or None for EASE.  A linear
    key its model does not read (linear.LINEAR_MODELS) keeps its default; refusals name it."""
    lin, model = cfg["linear"], cfg["linear"]["model"]
    family, debiased, keys = LINEAR_MODELS[model]
    for key, value in lin.items():
        if key not in (*keys, "model") and value != DEFAULTS["linear"][key]:
            readers = " or ".join(m for m, (_, _, read) in LINEAR_MODELS.items() if key in read)
            raise ConfigError(f"{model} does not read linear.{key}, set to {value}; keep its "
                              f"default {DEFAULTS['linear'][key]} or fit {readers}")
    # each IALSConfig field or EASE fit keyword with the linear key that sets it; two are renamed
    names = {{"lambda": "lam", "sweeps": "num_sweeps"}.get(key, key): key for key in keys}
    fields = {name: lin[key] for name, key in names.items()}
    try:
        if family == "ease":
            if fields["item_budget"] < 1:  # a budget below 1 refuses every catalog
                raise ValueError(f"item_budget must be >= 1, got {fields['item_budget']}")
            check_ease_settings(fields["lam"], lin["alpha"])
            return None
        if debiased and fields["alpha0"] >= 1:
            raise ValueError(f"{model} requires alpha0 < 1, got {fields['alpha0']}")
        return IALSConfig(**fields, seed=cfg["seed"])
    except ValueError as exc:
        words = [f"linear.{names[w]}" if w in names else w for w in str(exc).split(" ")]
        raise ConfigError(" ".join(words)) from None


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
            raise ConfigError(f"unknown config key {here!r}; expected one of {', '.join(template)}")
        default = template[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a table")
            if here != "loss.params":  # checked against the loss kind
                _check_keys(value, default, here + ".")
        elif not type_fits(value, default):
            raise ConfigError(misfit(here, value, default))


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


def _check_sweep(sweep: dict) -> None:
    axis, values, log_range = sweep["axis"], sweep["values"], sweep["log_range"]
    if axis is not None and not isinstance(axis, str):
        raise ConfigError(f"config key 'sweep.axis' must be a dotted key string, got {axis!r}")
    if values is not None and not (isinstance(values, list) and values):
        raise ConfigError(f"config key 'sweep.values' must be a non-empty list, got {values!r}")
    if log_range is not None:
        # a geometric sweep grid is [lo, hi, count]: two positive numbers and
        # an integer count of at least 1
        numbers = isinstance(log_range, list) and len(log_range) == 3 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in log_range)
        if not (numbers and log_range[0] > 0 and log_range[1] > 0
                and isinstance(log_range[2], int) and log_range[2] >= 1):
            raise ConfigError("sweep.log_range must be [lo, hi, count] with lo, hi > 0 and an "
                              f"integer count >= 1, got {log_range!r}")
        if values is not None:
            raise ConfigError("the sweep grid is set twice, by sweep.values and by "
                              "sweep.log_range; keep one")


def validate_config(cfg: dict) -> None:
    _check_keys(cfg, DEFAULTS)
    if cfg["threads"] < 1:
        raise ConfigError(f"config key 'threads' must be >= 1, got {cfg['threads']}")
    try:
        check_loss_params(cfg["loss"]["kind"], cfg["loss"]["params"])
        SamplerConfig(**cfg["sampler"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in ("train", "test"):
        path = cfg["data"][key]
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"config key 'data.{key}' must be a path string or null, got {path!r}")
    data = cfg["data"]
    if data["synthetic"] is not None and (data["train"] is not None or data["test"] is not None):
        raise ConfigError("data.synthetic and data.train/data.test are two data sources; set one")
    if (data["train"] is None) != (data["test"] is None):
        missing = "data.test" if data["test"] is None else "data.train"
        raise ConfigError(f"data.train and data.test are set together; {missing} is missing")
    if cfg["linear"]["model"] not in LINEAR_MODELS:
        raise ConfigError(f"unknown linear model {cfg['linear']['model']!r}; "
                          f"expected one of {', '.join(LINEAR_MODELS)}")
    if data["synthetic"] is not None:
        _check_synthetic(data["synthetic"])
    _check_sweep(cfg["sweep"])


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
    return cfg


def write_resolved(cfg: dict, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with _atomic_write(os.path.join(out_dir, "config.resolved")) as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
