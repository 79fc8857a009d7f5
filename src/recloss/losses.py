"""Recommendation loss functions with analytic score gradients.

Every loss is a pure function of a :class:`ScoreBundle` (one positive score,
N unlabeled scores, optionally M extra positive scores) returning a
:class:`LossEvaluation` holding the scalar value and the partial derivative
with respect to each participating score.  All functions broadcast over a
leading batch axis: pass ``pos_score`` of shape (B,) and score arrays of
shape (B, N) to evaluate a whole batch in one call.  :data:`LOSS_TABLE` owns
each kind's rules; :func:`evaluate_loss` dispatches through it at the
temperature the model scores with.

Exponentials are shifted by the row max or routed through softplus so large
scores do not overflow; the softmax family takes one such exp pass, whose
output becomes its partials.  Hinge and clamp subgradients are taken as 0 at
the kink.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "BOUND_NAMES", "DEBIASED_KINDS", "DebiasParams", "LOSS_KINDS", "LossEvaluation",
    "ScoreBundle", "bound_chain_slacks", "bpr", "ccl", "dcl", "debiased_ccl", "debiased_infonce",
    "debiased_mse", "evaluate_loss", "infonce", "infonce_plus", "mine", "mine_plus",
    "mse_pointwise", "positive_prior_all", "sampled_softmax",
]


@dataclass
class ScoreBundle:
    """Scores entering one loss term.

    ``pos_score`` is the score of the observed (user, item) interaction,
    ``unlabeled_scores`` the scores of the N sampled catalog items, and
    ``extra_pos_scores`` the scores of M additional draws from the user's
    known positives (used only by the debiased estimators).
    """

    pos_score: float | np.ndarray
    unlabeled_scores: np.ndarray
    extra_pos_scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.pos_score = np.asarray(self.pos_score, dtype=float)
        self.unlabeled_scores = np.asarray(self.unlabeled_scores, dtype=float)
        self.extra_pos_scores = np.asarray(self.extra_pos_scores, dtype=float)
        for arr in (self.pos_score, self.unlabeled_scores, self.extra_pos_scores):
            if not np.all(np.isfinite(arr)):
                raise ValueError("score bundle contains non-finite values")

    @property
    def n(self) -> int:
        return self.unlabeled_scores.shape[-1]

    @property
    def m(self) -> int:
        return self.extra_pos_scores.shape[-1]


@dataclass
class LossEvaluation:
    """Loss value plus partials w.r.t. every input score (shapes match the bundle)."""

    value: float | np.ndarray
    d_pos: float | np.ndarray
    d_unlabeled: np.ndarray
    d_extra_pos: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class DebiasParams:
    """Per-user positive-prior configuration for the debiased estimators.

    ``tau_mode='topk'`` treats the known positives plus the unknown top-K as
    positive: tau+ = (|pos_u| + k) / num_items.  ``tau_mode='proportional'``
    scales the known count: tau+ = (1 + alpha) * |pos_u| / num_items, which
    makes c_u = num_items * tau+ / |pos_u| = 1 + alpha constant across users.
    """

    tau_mode: str = "topk"
    k: int = 20
    alpha: float = 0.0
    lambda_n: float = 1.0
    temperature: float = 1.0
    clamp_floor_enabled: bool = True

    def __post_init__(self):
        if self.tau_mode not in ("topk", "proportional"):
            raise ValueError("tau_mode must be 'topk' or 'proportional'")
        if self.k < 0 or self.alpha < 0:
            raise ValueError("k and alpha must be non-negative")
        if self.lambda_n <= 0:
            raise ValueError("lambda_n must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


# loss.params keys whose kernel keyword differs; every other key is its own keyword
_KEYWORDS = {"lambda": "lambda_", "clamp_floor": "clamp_floor_enabled"}


def _kw(p: dict, *keys: str) -> dict:
    """The loss.params entries among ``keys`` that are present, under their
    kernel keyword names; absent keys take the kernel's own defaults."""
    return {_KEYWORDS.get(key, key): p[key] for key in keys if key in p}


def debias_params(p: dict) -> DebiasParams:
    """The debiasing settings in a loss params dict; absent keys take the defaults."""
    return DebiasParams(**_kw(p, "tau_mode", "k", "alpha", "lambda_n", "clamp_floor"))


_TAU_CEILING = 1.0 - 1e-6


def positive_prior_all(ds, params: DebiasParams) -> np.ndarray:
    """Per user, the probability tau+ that a random catalog item is a true
    positive (NaN for users without train positives)."""
    n_pos = ds.train_positives.lengths
    if params.tau_mode == "topk":
        raw = (n_pos + params.k) / ds.num_items
    else:
        raw = (1.0 + params.alpha) * n_pos / ds.num_items
    raw = np.where(n_pos >= 1, raw, np.nan)
    bad = np.flatnonzero(raw >= 1.0)
    if len(bad):
        raise ValueError(f"positive prior {raw[bad[0]]:.3f} >= 1 for user {bad[0]}; lower k/alpha")
    return np.minimum(raw, _TAU_CEILING)


def bpr(b: ScoreBundle) -> LossEvaluation:
    """Pairwise log-sigmoid ranking loss, summed over the sampled items.

    value = sum_j log(1 + exp(y_uj - y_ui)), via the stable softplus.
    """
    gaps = b.unlabeled_scores - b.pos_score[..., None]
    with np.errstate(over="ignore"):  # exp(-gap) is inf only where the logistic is 0
        sig = 1.0 / (1.0 + np.exp(-gaps))
    return LossEvaluation(
        value=np.logaddexp(0.0, gaps).sum(axis=-1),
        d_pos=-sig.sum(axis=-1),
        d_unlabeled=sig,
    )


def infonce_plus(b: ScoreBundle, lambda_: float = 1.0, epsilon: float = 1.0) -> LossEvaluation:
    """Generalized contrastive loss with noise weight and positive coefficient.

    value = -(y_ui - lambda * log(epsilon * exp(y_ui) + sum_j exp(y_uj))).
    This is the one softmax-family kernel: lambda = epsilon = 1 is infonce
    (sampled softmax); epsilon = 0 is the decoupled form (dcl, mine, mine_plus).
    It needs N >= 1 unlabeled scores.
    """
    if lambda_ < 0 or epsilon < 0:
        raise ValueError("lambda_ and epsilon must be non-negative")
    _require_unlabeled(b, "infonce_plus")
    # one exp pass, shifted by the row max (finite: the bundle refuses
    # non-finite scores), into a fresh array that becomes d_unlabeled
    top = b.unlabeled_scores.max(axis=-1)
    e = b.unlabeled_scores - top[..., None]
    np.exp(e, out=e)
    log_den = top + np.log(e.sum(axis=-1))
    if epsilon > 0:
        log_pos = math.log(epsilon) + b.pos_score
        log_den = np.logaddexp(log_den, log_pos)
        w_pos = np.exp(log_pos - log_den)
    else:
        # the positive leaves the partition; 0 * exp(y_ui) would overflow to NaN
        w_pos = np.zeros(np.shape(b.pos_score))
    e *= (lambda_ * np.exp(top - log_den))[..., None]
    return LossEvaluation(
        value=-b.pos_score + lambda_ * log_den,
        d_pos=-1.0 + lambda_ * w_pos,
        d_unlabeled=e,
    )


def sampled_softmax(b: ScoreBundle) -> LossEvaluation:
    """-log of the positive's share of exp mass among {positive} + sampled
    items: the one-positive-vs-N-noise InfoNCE, also named infonce."""
    return infonce_plus(b, lambda_=1.0, epsilon=1.0)


infonce = sampled_softmax


def dcl(b: ScoreBundle) -> LossEvaluation:
    """Decoupled contrastive loss: the positive is dropped from the partition.

    value = -(y_ui - log sum_j exp(y_uj)).
    """
    return infonce_plus(b, lambda_=1.0, epsilon=0.0)


def mine(b: ScoreBundle, normalized: bool = False) -> LossEvaluation:
    """:func:`dcl`, optionally minus log N.

    With ``normalized=True`` the reported value subtracts log N (the
    mean-over-samples convention of the mutual-information estimator);
    gradients are unchanged since the shift is constant.
    """
    ev = dcl(b)
    return replace(ev, value=ev.value - math.log(b.n)) if normalized else ev


def mine_plus(b: ScoreBundle, lambda_: float = 1.0) -> LossEvaluation:
    """Decoupled loss with a noise weight on the log-partition term.

    value = -(y_ui - lambda * log sum_j exp(y_uj)).  Intended for cosine
    scores scaled by a temperature.
    """
    return infonce_plus(b, lambda_=lambda_, epsilon=0.0)


def _phi(y: np.ndarray, square: bool, margin: float):
    """Per-row sum over the last axis of phi(y) = y^2 or max(0, y - margin),
    and phi'(y) as a base and a scale (phi' = scale * base; 0 at the kink)."""
    if square:
        return np.einsum("...j,...j->...", y, y), y, 2.0
    over = y - margin
    np.maximum(over, 0.0, out=over)
    return over.sum(axis=-1), over > 0, 1.0


def _pointwise(b: ScoreBundle, square: bool, weight: float, margin: float = 0.0,
               tau_plus=None, floor_at_zero: bool = False) -> LossEvaluation:
    """The one pointwise kernel, with psi(y) = (1 - y)^2 or 1 - y:

        value = w * psi(y_ui) + weight * (mean_j phi(y_uj) - tau+ * mean_k phi(y_uk))

    w is 1 and the tau+ term absent without ``tau_plus``, w = tau+ with it.
    The weight must be >= 0 (a negative one leaves the value unbounded below),
    and the hinge's margin must lie in the cosine range [-1, 1].
    ``floor_at_zero`` floors the bracket at 0 and zeroes its partials on those
    rows.  A mean over no scores is 0.
    """
    if weight < 0:
        raise ValueError(f"the weight on the negative terms must be >= 0, got {weight}")
    if not square and not -1.0 <= margin <= 1.0:
        raise ValueError("margin must lie in [-1, 1] (cosine range)")
    total, base, scale = _phi(b.unlabeled_scores, square, margin)
    bracket = total / max(b.n, 1)
    w = 1.0
    if tau_plus is not None:
        w = np.asarray(tau_plus, dtype=float)
        ext_total, ext_base, _ = _phi(b.extra_pos_scores, square, margin)
        bracket = bracket - w * ext_total / b.m
    live = weight
    if floor_at_zero:
        live = np.where(bracket < 0, 0.0, weight)
        bracket = np.maximum(bracket, 0.0)
    gap = 1.0 - b.pos_score
    ev = LossEvaluation(
        value=w * (gap**2 if square else gap) + weight * bracket,
        d_pos=-w * (2.0 * gap if square else np.ones(np.shape(gap))[()]),
        d_unlabeled=np.expand_dims(live * scale / max(b.n, 1), -1) * base,
    )
    if tau_plus is not None:
        ev.d_extra_pos = np.expand_dims(-live * scale * w / b.m, -1) * ext_base
    return ev


def ccl(b: ScoreBundle, negative_weight: float = 1.0, margin: float = 0.0) -> LossEvaluation:
    """Cosine contrastive loss: pull the positive to 1, hinge negatives at a margin.

    value = (1 - y_ui) + (negative_weight / N) * sum_j max(0, y_uj - margin).
    """
    _require_unlabeled(b, "ccl")
    return _pointwise(b, False, negative_weight, margin)


def mse_pointwise(b: ScoreBundle, lambda_neg: float = 1.0) -> LossEvaluation:
    """Squared error to target 1 for the positive and 0 for sampled items.

    value = (1 - y_ui)^2 + (lambda_neg / N) * sum_j y_uj^2.
    """
    return _pointwise(b, True, lambda_neg)


def _require_extra(b: ScoreBundle, name: str) -> None:
    if b.m < 1:
        raise ValueError(
            f"{name} needs at least one extra positive sample (M >= 1); "
            "use the biased estimator when none are available"
        )


def _require_unlabeled(b: ScoreBundle, name: str) -> None:
    if b.n < 1:
        raise ValueError(f"{name} needs N >= 1 unlabeled scores")


def debiased_infonce(b: ScoreBundle, d: DebiasParams, tau_plus) -> LossEvaluation:
    """Contrastive loss with the false-negative mass subtracted from the partition.

    The unlabeled mean-exp is corrected by tau+ times the positive mean-exp,
    rescaled by 1/tau-, and floored at exp(-1/t) (the smallest value a
    temperature-scaled cosine score can produce) when clamping is enabled:

        g = max((mean_j e^{y_uj} - tau+ * mean_k e^{y_uk}) / tau-, floor)
        value = -log(e^{y_ui} / (e^{y_ui} + lambda_n * g))

    Gradients through g are zero while the clamp is active.  ``tau_plus``
    may be a scalar or a per-row array for batched bundles.

    The floor is a bound only under cosine scoring.  With dot scoring, the
    default for this kind, scores are unbounded, e^y can fall below
    exp(-1/t), and the floor is a heuristic guard that keeps the log's
    argument positive.
    """
    _require_extra(b, "debiased_infonce")
    _require_unlabeled(b, "debiased_infonce")
    tau_plus = np.asarray(tau_plus, dtype=float)
    tau_minus = 1.0 - tau_plus

    # Work in a max-shifted domain: every quantity below carries e^{-shift}.
    shift = np.maximum(
        b.unlabeled_scores.max(axis=-1), b.extra_pos_scores.max(axis=-1)
    )
    shift = np.maximum(shift, b.pos_score)
    exp_unl = np.exp(b.unlabeled_scores - shift[..., None])
    exp_ext = np.exp(b.extra_pos_scores - shift[..., None])
    g_shifted = (exp_unl.mean(axis=-1) - tau_plus * exp_ext.mean(axis=-1)) / tau_minus

    if d.clamp_floor_enabled:
        floor_shifted = np.exp(-1.0 / d.temperature - shift)
        clamped = g_shifted < floor_shifted
        g_shifted = np.where(clamped, floor_shifted, g_shifted)
    else:
        clamped = np.zeros(np.shape(g_shifted), dtype=bool)

    exp_pos = np.exp(b.pos_score - shift)
    denom = exp_pos + d.lambda_n * g_shifted
    if np.any(denom <= 0):
        raise ValueError(
            "debiased estimator went non-positive inside the log; "
            "enable the clamp floor or reduce tau_plus"
        )
    value = np.log(denom) + shift - b.pos_score
    d_pos = exp_pos / denom - 1.0

    live = (~clamped).astype(float)
    unl_coeff = live * d.lambda_n / (denom * tau_minus * b.n)
    ext_coeff = live * d.lambda_n * tau_plus / (denom * tau_minus * b.m)
    return LossEvaluation(
        value=value,
        d_pos=d_pos,
        d_unlabeled=unl_coeff[..., None] * exp_unl,
        d_extra_pos=-ext_coeff[..., None] * exp_ext,
    )


def debiased_ccl(b: ScoreBundle, tau_plus, lambda_n: float = 1.0, margin: float = 0.0,
                 floor_at_zero: bool = False) -> LossEvaluation:
    """Margin loss with the false-negative hinge mass subtracted.

    value = tau+ * (1 - y_ui)
          + lambda_n * (mean_j relu(y_uj - margin) - tau+ * mean_k relu(y_uk - margin))

    The corrected term is not clamped by default and the value may go
    negative; ``floor_at_zero`` optionally floors the correction at 0 (with
    zero gradients when active), mirroring non-negative risk estimators.
    """
    _require_extra(b, "debiased_ccl")
    _require_unlabeled(b, "debiased_ccl")
    return _pointwise(b, False, lambda_n, margin, tau_plus, floor_at_zero)


def debiased_mse(b: ScoreBundle, tau_plus, lambda_: float = 1.0) -> LossEvaluation:
    """Pointwise squared loss with the false-negative mass subtracted.

    value = tau+ * (1 - y_ui)^2
          + lambda * (mean_j y_uj^2 - tau+ * mean_k y_uk^2)
    """
    _require_extra(b, "debiased_mse")
    _require_unlabeled(b, "debiased_mse")
    return _pointwise(b, True, lambda_, tau_plus=tau_plus)


# Inequalities relating the contrastive and pairwise losses.  Each entry of
# the report is lhs - rhs of one bound; all must be >= 0 up to float noise.
BOUND_NAMES = (
    "infonce_minus_dcl",
    "dcl_minus_jensen_floor",
    "hinge_cap_minus_infonce",
    "dcl_minus_max_gap",
    "bpr_minus_hinge_sum",
    "log_n",
)


def bound_chain_slacks(b: ScoreBundle) -> dict[str, float | np.ndarray]:
    """Slack (lhs - rhs) of the six inequalities tying the losses together.

    With gaps g_j = y_uj - y_ui:
      1. infonce >= dcl                       (log(1+S) >= log S)
      2. dcl >= mean_j g_j + log N            (Jensen)
      3. max(0, max_j g_j) + log(N+1) >= infonce
      4. dcl >= max_j g_j                     (log-sum-exp >= max)
      5. bpr >= sum_j max(0, g_j)             (softplus >= hinge)
      6. log N >= 0                           (links the two mean-gap floors)
    """
    gaps = b.unlabeled_scores - b.pos_score[..., None]
    l_info = infonce(b).value
    l_dcl = mine(b).value
    l_bpr = bpr(b).value
    max_gap = gaps.max(axis=-1)
    log_n = math.log(b.n)
    return {
        "infonce_minus_dcl": l_info - l_dcl,
        "dcl_minus_jensen_floor": l_dcl - (gaps.mean(axis=-1) + log_n),
        "hinge_cap_minus_infonce": np.maximum(max_gap, 0.0) + math.log(b.n + 1) - l_info,
        "dcl_minus_max_gap": l_dcl - max_gap,
        "bpr_minus_hinge_sum": l_bpr - np.where(gaps > 0, gaps, 0.0).sum(axis=-1),
        "log_n": log_n + np.zeros(np.shape(l_info))[()],
    }


# loss.params keys that set the per-user positive prior of a debiased kind
_PRIOR_KEYS = ("tau_mode", "k", "alpha")


class LossKind(NamedTuple):
    """A loss kind: kernel(bundle, params, tau_plus, temperature), loss.params keys
    and default scoring mode."""

    kernel: Callable[[ScoreBundle, dict, object, float], LossEvaluation]
    params: tuple[str, ...] = ()
    mode: str = "dot"


# The one source of what each loss kind is; its first kind is the default loss.
# debiased_infonce's clamp temperature is the model's, not a loss.params key.
LOSS_TABLE = {
    "bpr": LossKind(lambda b, p, tau, t: bpr(b)),
    "softmax": LossKind(lambda b, p, tau, t: sampled_softmax(b)),
    "infonce": LossKind(lambda b, p, tau, t: sampled_softmax(b)),
    "infonce_plus": LossKind(lambda b, p, tau, t: infonce_plus(b, **_kw(p, "lambda", "epsilon")),
                             ("lambda", "epsilon")),
    "dcl": LossKind(lambda b, p, tau, t: dcl(b)),
    "mine": LossKind(lambda b, p, tau, t: mine(b, normalized=True)),
    "mine_plus": LossKind(lambda b, p, tau, t: mine_plus(b, **_kw(p, "lambda")), ("lambda",),
                          mode="cosine"),
    "ccl": LossKind(lambda b, p, tau, t: ccl(b, **_kw(p, "negative_weight", "margin")),
                    ("negative_weight", "margin"), mode="cosine"),
    "mse": LossKind(lambda b, p, tau, t: mse_pointwise(b, **_kw(p, "lambda_neg")),
                    ("lambda_neg",)),
    "debiased_infonce": LossKind(
        lambda b, p, tau, t: debiased_infonce(b, replace(debias_params(p), temperature=t), tau),
        ("lambda_n", "clamp_floor", *_PRIOR_KEYS),
    ),
    "debiased_ccl": LossKind(
        lambda b, p, tau, t: debiased_ccl(b, tau, **_kw(p, "lambda_n", "margin", "floor_at_zero")),
        ("lambda_n", "margin", "floor_at_zero", *_PRIOR_KEYS), mode="cosine",
    ),
    "debiased_mse": LossKind(lambda b, p, tau, t: debiased_mse(b, tau, **_kw(p, "lambda")),
                             ("lambda", *_PRIOR_KEYS)),
}

LOSS_KINDS = tuple(LOSS_TABLE)

# the kinds that correct with a per-user positive prior tau+
DEBIASED_KINDS = tuple(k for k, kind in LOSS_TABLE.items() if set(_PRIOR_KEYS) <= set(kind.params))


def _param_defaults() -> dict:
    """Each loss.params key with the default of the DebiasParams field or kernel
    keyword that it sets through ``_kw``'s renames."""
    declared = {}
    for source in (DebiasParams, infonce_plus, mine_plus, ccl, mse_pointwise, debiased_ccl,
                   debiased_mse):
        declared.update((name, p.default) for name, p in inspect.signature(source).parameters.items()
                        if p.default is not p.empty)
    return {key: declared[_KEYWORDS.get(key, key)] for kind in LOSS_TABLE.values() for key in kind.params}


# the default of every loss.params key, whose type a configured value must have
PARAM_DEFAULTS = _param_defaults()


def type_fits(value, default) -> bool:
    """A value fits the type of its key's default: a finite int or float fits a
    float, only a bool fits a bool, and anything fits a None default."""
    if default is None:
        return True
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def misfit(key: str, value, default) -> str:
    """The refusal of a config key's value that does not fit its default."""
    rule = ("finite" if type(value) in (int, float) and isinstance(default, float)
            else type(default).__name__)
    return f"config key {key!r} must be {rule}, got {value!r}"


def check_loss_params(kind: str, params: dict) -> None:
    """Refuse, by name, an unknown loss kind, a loss.params key it does not
    take, a value that does not fit the type of the key's default (type_fits),
    or a value outside the range that the kind's kernel or DebiasParams
    accepts.  Empty params are the kernel's own defaults, so
    they are not probed, and checking the default config calls no kernel."""
    if kind not in LOSS_TABLE:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    allowed = LOSS_TABLE[kind].params
    for key, value in params.items():
        if key not in allowed:
            hint = "; the clamp temperature is train.temperature" if key == "temperature" else ""
            raise ValueError(
                f"loss parameter {key!r} is not valid for kind {kind!r} "
                f"(allowed: {sorted(allowed) or 'none'}){hint}"
            )
        if not type_fits(value, PARAM_DEFAULTS[key]):
            raise ValueError(misfit(f"loss.params.{key}", value, PARAM_DEFAULTS[key]))
    if not params:
        return
    # the kernels own the ranges: one call on a one-score bundle at tau+ = 0.5 applies them
    try:
        if kind in DEBIASED_KINDS:
            debias_params(params)
        LOSS_TABLE[kind].kernel(ScoreBundle(0.0, np.zeros(1), np.zeros(1)), params, 0.5,
                                DebiasParams.temperature)
    except ValueError as exc:
        raise ValueError(f"loss.params out of range for kind {kind!r}: {exc}") from None


def evaluate_loss(kind: str, b: ScoreBundle, params: dict | None = None, tau_plus=None, *,
                  temperature: float = DebiasParams.temperature) -> LossEvaluation:
    """Config-driven dispatch used by the trainer and CLI.

    ``params`` carries the per-kind table (see :data:`LOSS_TABLE`);
    ``tau_plus`` is required for the debiased kinds; ``temperature``, the one
    the model scores with, puts debiased_infonce's clamp at exp(-1/t).
    """
    if kind not in LOSS_TABLE:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if tau_plus is None and kind in DEBIASED_KINDS:
        raise ValueError(f"{kind} requires tau_plus")
    return LOSS_TABLE[kind].kernel(b, params or {}, tau_plus, temperature)
