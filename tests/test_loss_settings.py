"""Every loss setting reaches its kernel: the defaults are pinned, each
loss.params key a kind accepts changes what the kind computes, every kind's
output is pinned bit for bit, and a value out of a kernel's range is refused
when the config is built."""

import json

import numpy as np
import pytest

from recloss import DEBIASED_KINDS, SamplerConfig, ScoreBundle, TrainConfig, evaluate_loss
from recloss.cli import main
from recloss.config import ConfigError, resolve_config
from recloss.losses import LOSS_TABLE, PARAM_DEFAULTS
from recloss.mf import _tau_vector
from conftest import build_dataset

# each loss.params key's default: what a config that omits the key computes
PINNED_DEFAULTS = {
    "lambda": 1.0, "epsilon": 1.0, "negative_weight": 1.0, "margin": 0.0, "lambda_neg": 1.0,
    "lambda_n": 1.0, "clamp_floor": True, "tau_mode": "topk", "k": 20, "alpha": 0.0,
    "floor_at_zero": False,
}

# two rows of cosine-range scores.  Row 0 has unlabeled scores above both
# margins, 0 and ALT["margin"]; row 1 has every unlabeled score below 0 and
# every extra positive above ALT["margin"], so debiased_infonce's corrected
# partition goes negative (its clamp binds) and debiased_ccl's bracket goes
# negative (its floor binds)
BUNDLE = ScoreBundle([0.5, 0.1], [[0.6, -0.3, 0.9], [-0.9, -0.7, -0.95]],
                     [[0.3, 0.7, 0.2], [0.8, 0.9, 0.85]])
TAU = np.array([0.3, 0.35])
TEMPERATURE = 0.5
# a value for each key other than its default
ALT = {
    "lambda": 1.3, "epsilon": 0.6, "negative_weight": 0.7, "margin": 0.45, "lambda_neg": 0.6,
    "lambda_n": 1.3, "clamp_floor": False, "floor_at_zero": True, "tau_mode": "proportional",
    "k": 5, "alpha": 0.5,
}
# keys that set the positive prior, and what each needs beside it to bind
PRIOR_BASE = {"tau_mode": {}, "k": {}, "alpha": {"tau_mode": "proportional"}}


def outputs(ev):
    """value, d_pos, d_unlabeled and d_extra_pos, each as a flat list of floats."""
    return tuple(np.asarray(getattr(ev, name), dtype=float).ravel().tolist()
                 for name in ("value", "d_pos", "d_unlabeled", "d_extra_pos"))


def evaluate(kind, params):
    tau = TAU if kind in DEBIASED_KINDS else None
    return outputs(evaluate_loss(kind, BUNDLE, params, tau, temperature=TEMPERATURE))


def train_config(kind, params):
    sampler = SamplerConfig(m_positives=1 if kind in DEBIASED_KINDS else 0)
    return TrainConfig(embedding_dim=2, loss=kind, loss_params=params, sampler=sampler)


def test_param_defaults_pinned():
    assert PARAM_DEFAULTS == PINNED_DEFAULTS
    assert set(ALT) == set(PARAM_DEFAULTS)


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, lk in LOSS_TABLE.items()
                                       for key in lk.params if key not in PRIOR_BASE])
def test_kernel_setting_binds(kind, key):
    assert evaluate(kind, {key: ALT[key]}) != evaluate(kind, {})


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, lk in LOSS_TABLE.items()
                                       for key in lk.params if key in PRIOR_BASE])
def test_prior_setting_binds(kind, key):
    """The prior keys act through the per-user prior the trainer computes."""
    ds = build_dataset([[0, 1, 2], [3], [4, 5, 6, 7, 8]], [[9], [9], [9]], 100)
    base = PRIOR_BASE[key]
    changed = _tau_vector(ds, train_config(kind, {**base, key: ALT[key]}))
    assert not np.array_equal(changed, _tau_vector(ds, train_config(kind, base)))


# evaluate_loss(kind, BUNDLE, every key of the kind at its ALT value, TAU for
# the debiased kinds, temperature=TEMPERATURE) as the kernels with parameter
# objects computed it, with NumPy's AVX-512 exp and log
RECORDED = {
    "bpr": (
        [2.028512578421301, 0.9844208330836438],
        [-1.4336923664637795, -0.8381920410602287],
        [0.5249791874789399, 0.31002551887238755, 0.598687660112452, 0.2689414213699951,
         0.31002551887238755, 0.259225100817846],
        [],
    ),
    "softmax": (
        [1.397808957928833, 0.7734111657804853],
        [-0.7528621393884841, -0.5385636552616613],
        [0.2731295763032805, 0.11104619890271873, 0.3686863641824851, 0.16975294463853305,
         0.20733671478731489, 0.16147399583581337],
        [],
    ),
    "infonce": (
        [1.397808957928833, 0.7734111657804853],
        [-0.7528621393884841, -0.5385636552616613],
        [0.2731295763032805, 0.11104619890271873, 0.3686863641824851, 0.16975294463853305,
         0.20733671478731489, 0.16147399583581337],
        [],
    ),
    "infonce_plus": (
        [1.831835604586947, 0.7701756741811617],
        [-0.7860859660399514, -0.5586103627829734],
        [0.3940192821681536, 0.1601962854823413, 0.5318703983894565, 0.27063028846377574,
         0.3305485807713381, 0.2574314935478596],
        [],
    ),
    "dcl": (
        [1.113935808163665, 0.1545615848797723],
        [-1.0, -1.0],
        [0.36278830082374874, 0.14749871602378162, 0.48971298315246975, 0.31519569317401963,
         0.3849808890029542, 0.2998234178230263],
        [],
    ),
    "mine": (
        [0.015323519495555216, -0.9440507037883374],
        [-1.0, -1.0],
        [0.36278830082374874, 0.14749871602378162, 0.48971298315246975, 0.31519569317401963,
         0.3849808890029542, 0.2998234178230263],
        [],
    ),
    "mine_plus": (
        [1.5981165506127644, 0.23093006034370403],
        [-1.0, -1.0],
        [0.47162479107087335, 0.19174833083091614, 0.6366268780982107, 0.4097544011262255,
         0.5004751557038405, 0.38977044316993426],
        [],
    ),
    "ccl": (
        [0.64, 0.9],
        [-1.0, -1.0],
        [0.2333333333333333, 0.0, 0.2333333333333333, 0.0, 0.0, 0.0],
        [],
    ),
    "mse": (
        [0.502, 1.2505],
        [-1.0, -1.8],
        [0.23999999999999996, -0.11999999999999998, 0.36, -0.36, -0.27999999999999997,
         -0.37999999999999995],
        [],
    ),
    "debiased_infonce": (
        [0.8626188270420392, -1.220907894675919],
        [-0.5779446561757184, 2.3902643397368535],
        [0.2887506092175804, 0.11739723693948236, 0.3897725530452875, 0.8314723671505752,
         1.0155626425716777, 0.7909209812928879],
        [-0.06417351376239898, -0.09573563276516876, -0.05806659649906422, -1.5930025984099958,
         -1.7605401441816673, -1.6746775881603313],
    ),
    "debiased_ccl": (
        [0.37749999999999995, 0.315],
        [-0.3, -0.35],
        [0.43333333333333335, 0.0, 0.43333333333333335, 0.0, 0.0, 0.0],
        [-0.0, -0.13, -0.0, -0.0, -0.0, -0.0],
    ),
    "debiased_mse": (
        [0.5404, 0.9084208333333331],
        [-0.3, -0.63],
        [0.52, -0.26, 0.78, -0.78, -0.6066666666666667, -0.8233333333333334],
        [-0.078, -0.182, -0.052000000000000005, -0.24266666666666664, -0.27299999999999996,
         -0.2578333333333333],
    ),
}
# the kinds that take exp and log, as NumPy computes them without AVX-512
RECORDED_LIBM = {
    "softmax": (
        [1.397808957928833, 0.7734111657804853],
        [-0.7528621393884841, -0.5385636552616613],
        [0.2731295763032805, 0.11104619890271876, 0.3686863641824851, 0.16975294463853305,
         0.20733671478731489, 0.16147399583581337],
        [],
    ),
    "infonce": (
        [1.397808957928833, 0.7734111657804853],
        [-0.7528621393884841, -0.5385636552616613],
        [0.2731295763032805, 0.11104619890271876, 0.3686863641824851, 0.16975294463853305,
         0.20733671478731489, 0.16147399583581337],
        [],
    ),
    "infonce_plus": (
        [1.831835604586947, 0.7701756741811617],
        [-0.7860859660399514, -0.5586103627829734],
        [0.3940192821681536, 0.16019628548234133, 0.5318703983894565, 0.27063028846377574,
         0.3305485807713381, 0.2574314935478596],
        [],
    ),
    "dcl": (
        [1.113935808163665, 0.1545615848797723],
        [-1.0, -1.0],
        [0.36278830082374874, 0.14749871602378165, 0.48971298315246975, 0.3151956931740196,
         0.38498088900295413, 0.2998234178230263],
        [],
    ),
    "mine": (
        [0.015323519495555216, -0.9440507037883374],
        [-1.0, -1.0],
        [0.36278830082374874, 0.14749871602378165, 0.48971298315246975, 0.3151956931740196,
         0.38498088900295413, 0.2998234178230263],
        [],
    ),
    "mine_plus": (
        [1.5981165506127644, 0.23093006034370403],
        [-1.0, -1.0],
        [0.47162479107087335, 0.19174833083091616, 0.6366268780982107, 0.40975440112622546,
         0.5004751557038404, 0.38977044316993414],
        [],
    ),
    "debiased_infonce": (
        [0.8626188270420392, -1.220907894675919],
        [-0.5779446561757184, 2.3902643397368535],
        [0.2887506092175804, 0.11739723693948238, 0.3897725530452875, 0.8314723671505752,
         1.0155626425716777, 0.7909209812928879],
        [-0.06417351376239898, -0.09573563276516876, -0.05806659649906422, -1.5930025984099958,
         -1.7605401441816673, -1.6746775881603315],
    ),
}

@pytest.mark.parametrize("kind", LOSS_TABLE)
def test_outputs_match_recorded(kind):
    """Bit for bit.  NumPy's AVX-512 exp and log differ from the C library's
    in the last bits, so the kinds that take them were recorded both ways."""
    got = evaluate(kind, {key: ALT[key] for key in LOSS_TABLE[kind].params})
    assert got in (RECORDED[kind], RECORDED_LIBM.get(kind, RECORDED[kind]))


# (kind, key, value) out of the range the kernel or DebiasParams accepts
OUT_OF_RANGE = [
    ("infonce_plus", "lambda", -0.5), ("infonce_plus", "epsilon", -0.5),
    ("mine_plus", "lambda", -1.0), ("ccl", "margin", 2.0), ("ccl", "negative_weight", -1.0),
    ("debiased_ccl", "margin", -1.5), ("debiased_ccl", "lambda_n", 0.0),
    ("debiased_ccl", "k", -1), ("debiased_mse", "alpha", -0.5),
    ("debiased_infonce", "tau_mode", "fancy"), ("debiased_infonce", "lambda_n", -1.0),
    ("mse", "lambda_neg", -1.0), ("debiased_mse", "lambda", -2.0),
]
# the edges of the same ranges, which are accepted
AT_THE_EDGE = [
    ("infonce_plus", "lambda", 0.0), ("infonce_plus", "epsilon", 0.0), ("ccl", "margin", 1.0),
    ("ccl", "margin", -1.0), ("ccl", "negative_weight", 0.0), ("debiased_ccl", "k", 0),
    ("debiased_mse", "alpha", 0.0), ("debiased_infonce", "clamp_floor", False),
    ("mse", "lambda_neg", 0.0), ("debiased_mse", "lambda", 0.0),
]


class TestOutOfRange:
    @pytest.mark.parametrize("kind, key, value", OUT_OF_RANGE)
    def test_train_config_refuses(self, kind, key, value):
        with pytest.raises(ValueError, match=f"loss.params out of range for kind '{kind}'"):
            train_config(kind, {key: value})

    @pytest.mark.parametrize("kind, key, value", OUT_OF_RANGE)
    def test_resolve_config_refuses(self, kind, key, value):
        sets = [f"loss.kind={kind}", f"loss.params.{key}={json.dumps(value)}"]
        with pytest.raises(ConfigError, match=f"loss.params out of range for kind '{kind}'"):
            resolve_config(overrides=sets)

    @pytest.mark.parametrize("kind, key, value", AT_THE_EDGE)
    def test_edge_accepted(self, kind, key, value):
        train_config(kind, {key: value})
        resolve_config(overrides=[f"loss.kind={kind}", f"loss.params.{key}={json.dumps(value)}"])

    @pytest.mark.parametrize("kind, key, value", [
        ("mine_plus", "lambda", float("nan")), ("mse", "lambda_neg", float("inf")),
        ("debiased_ccl", "lambda_n", float("nan")),
    ])
    def test_non_finite_refused(self, kind, key, value):
        match = f"'loss.params.{key}' must be finite"
        with pytest.raises(ValueError, match=match):
            train_config(kind, {key: value})
        with pytest.raises(ConfigError, match=match):
            resolve_config(overrides=[f"loss.kind={kind}", f"loss.params.{key}={json.dumps(value)}"])

    def test_train_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--set", "loss.kind=mine_plus", "--set", "loss.params.lambda=-1.0",
                   "--set", "data.synthetic.kind=random", "--output", str(out)])
        assert rc == 1
        assert "error: loss.params out of range for kind 'mine_plus'" in capsys.readouterr().err
        assert not out.exists()
