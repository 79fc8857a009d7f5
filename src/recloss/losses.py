"""Recommendation loss functions with analytic score gradients.

Every loss is a pure function of a :class:`ScoreBundle` (one positive score,
N unlabeled scores, optionally M extra positive scores) returning a
:class:`LossEvaluation` holding the scalar value and the partial derivative
with respect to each participating score.  All functions broadcast over a
leading batch axis: pass ``pos_score`` of shape (B,) and score arrays of
shape (B, N) to evaluate a whole batch in one call.

Exponentials are routed through log-sum-exp / softplus so large scores do
not overflow; hinge and clamp subgradients are taken as 0 at the kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit, logsumexp


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
class InfoNCEPlusParams:
    """Noise weight on the log-partition term and positive coefficient inside it."""

    lambda_: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.lambda_ < 0 or self.epsilon < 0:
            raise ValueError("lambda_ and epsilon must be non-negative")


@dataclass
class CCLParams:
    negative_weight: float = 1.0
    margin: float = 0.0

    def __post_init__(self):
        if self.negative_weight < 0:
            raise ValueError("negative_weight must be non-negative")
        if not -1.0 <= self.margin <= 1.0:
            raise ValueError("margin must lie in [-1, 1] (cosine range)")


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
    return DebiasParams(**_kw(p, "tau_mode", "k", "alpha", "lambda_n", "temperature", "clamp_floor"))


_TAU_CEILING = 1.0 - 1e-6


def _prior(n_pos: np.ndarray, num_items: int, params: DebiasParams, users: np.ndarray) -> np.ndarray:
    """tau+ for users with ``n_pos`` known positives; NaN where ``n_pos`` is 0."""
    if params.tau_mode == "topk":
        raw = (n_pos + params.k) / num_items
    else:
        raw = (1.0 + params.alpha) * n_pos / num_items
    raw = np.where(n_pos >= 1, raw, np.nan)
    bad = np.flatnonzero(raw >= 1.0)
    if len(bad):
        raise ValueError(f"positive prior {raw[bad[0]]:.3f} >= 1 for user {users[bad[0]]}; lower k/alpha")
    return np.minimum(raw, _TAU_CEILING)


def positive_prior(ds, u: int, params: DebiasParams) -> float:
    """Per-user probability tau+ that a random catalog item is a true positive."""
    n_pos = len(ds.train_positives[u])
    if n_pos < 1:
        raise ValueError(f"user {u} has no train positives")
    return float(_prior(np.array([n_pos]), ds.num_items, params, np.array([u]))[0])


def positive_prior_all(ds, params: DebiasParams) -> np.ndarray:
    """Vector of tau+ over all users (users without positives get NaN)."""
    return _prior(ds.train_positives.lengths, ds.num_items, params, np.arange(ds.num_users))


def _softplus(x):
    return np.logaddexp(0.0, x)


def bpr(b: ScoreBundle) -> LossEvaluation:
    """Pairwise log-sigmoid ranking loss, summed over the sampled items.

    value = sum_j log(1 + exp(y_uj - y_ui)), via the stable softplus.
    """
    gaps = b.unlabeled_scores - b.pos_score[..., None]
    sig = expit(gaps)
    return LossEvaluation(
        value=_softplus(gaps).sum(axis=-1),
        d_pos=-sig.sum(axis=-1),
        d_unlabeled=sig,
    )


def infonce_plus(b: ScoreBundle, p: InfoNCEPlusParams) -> LossEvaluation:
    """Generalized contrastive loss with noise weight and positive coefficient.

    value = -(y_ui - lambda * log(epsilon * exp(y_ui) + sum_j exp(y_uj))).
    This is the one softmax-family kernel: lambda = epsilon = 1 is infonce
    (sampled softmax); epsilon = 0 is the decoupled form (dcl, mine, mine_plus).
    """
    lse = logsumexp(b.unlabeled_scores, axis=-1)
    if p.epsilon > 0:
        log_pos = math.log(p.epsilon) + b.pos_score
        log_den = np.logaddexp(lse, log_pos)
        w_pos = np.exp(log_pos - log_den)
    else:
        # the positive leaves the partition; 0 * exp(y_ui) would overflow to NaN
        log_den, w_pos = lse, np.zeros(np.shape(b.pos_score))
    return LossEvaluation(
        value=-b.pos_score + p.lambda_ * log_den,
        d_pos=-1.0 + p.lambda_ * w_pos,
        d_unlabeled=p.lambda_ * np.exp(b.unlabeled_scores - log_den[..., None]),
    )


def sampled_softmax(b: ScoreBundle) -> LossEvaluation:
    """-log of the positive's share of exp mass among {positive} + sampled items."""
    return infonce_plus(b, InfoNCEPlusParams(1.0, 1.0))


def infonce(b: ScoreBundle) -> LossEvaluation:
    """Contrastive one-positive-vs-N-noise loss; same form as sampled_softmax.

    Kept as a named entry point because biased-vs-debiased comparisons key
    on it.
    """
    return sampled_softmax(b)


def dcl(b: ScoreBundle) -> LossEvaluation:
    """Decoupled contrastive loss: the positive is dropped from the partition.

    value = -(y_ui - log sum_j exp(y_uj)).
    """
    return infonce_plus(b, InfoNCEPlusParams(1.0, 0.0))


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
    return infonce_plus(b, InfoNCEPlusParams(lambda_, 0.0))


def ccl(b: ScoreBundle, p: CCLParams) -> LossEvaluation:
    """Cosine contrastive loss: pull the positive to 1, hinge negatives at a margin.

    value = (1 - y_ui) + (w / N) * sum_j max(0, y_uj - margin).
    """
    over = b.unlabeled_scores - p.margin
    active = over > 0
    scale = p.negative_weight / b.n
    return LossEvaluation(
        value=(1.0 - b.pos_score) + scale * np.where(active, over, 0.0).sum(axis=-1),
        d_pos=np.full(np.shape(b.pos_score), -1.0)[()],
        d_unlabeled=scale * active.astype(float),
    )


def mse_pointwise(b: ScoreBundle, lambda_neg: float = 1.0) -> LossEvaluation:
    """Squared error to target 1 for the positive and 0 for sampled items.

    value = (1 - y_ui)^2 + (lambda_neg / N) * sum_j y_uj^2.
    """
    if b.n > 0:
        neg = (lambda_neg / b.n) * (b.unlabeled_scores**2).sum(axis=-1)
        d_unl = (2.0 * lambda_neg / b.n) * b.unlabeled_scores
    else:
        neg, d_unl = 0.0, np.empty_like(b.unlabeled_scores)
    return LossEvaluation(
        value=(1.0 - b.pos_score) ** 2 + neg,
        d_pos=-2.0 * (1.0 - b.pos_score),
        d_unlabeled=d_unl,
    )


def _require_extra(b: ScoreBundle, name: str) -> None:
    if b.m < 1:
        raise ValueError(
            f"{name} needs at least one extra positive sample (M >= 1); "
            "use the biased estimator when none are available"
        )


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
    if b.n < 1:
        raise ValueError("debiased_infonce needs N >= 1")
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


def debiased_ccl(
    b: ScoreBundle,
    p: CCLParams,
    d: DebiasParams,
    tau_plus,
    floor_at_zero: bool = False,
) -> LossEvaluation:
    """Margin loss with the false-negative hinge mass subtracted.

    value = tau+ * (1 - y_ui)
          + lambda_n * (mean_j relu(y_uj - margin) - tau+ * mean_k relu(y_uk - margin))

    The corrected term is not clamped by default and the value may go
    negative; ``floor_at_zero`` optionally floors the correction at 0 (with
    zero gradients when active), mirroring non-negative risk estimators.
    """
    _require_extra(b, "debiased_ccl")
    tau_plus = np.asarray(tau_plus, dtype=float)
    over_unl = b.unlabeled_scores - p.margin
    over_ext = b.extra_pos_scores - p.margin
    act_unl = over_unl > 0
    act_ext = over_ext > 0
    correction = (
        np.where(act_unl, over_unl, 0.0).mean(axis=-1)
        - tau_plus * np.where(act_ext, over_ext, 0.0).mean(axis=-1)
    )
    if floor_at_zero:
        floored = correction < 0
        correction = np.where(floored, 0.0, correction)
    else:
        floored = np.zeros(np.shape(correction), dtype=bool)
    live = (~floored).astype(float)
    return LossEvaluation(
        value=tau_plus * (1.0 - b.pos_score) + d.lambda_n * correction,
        d_pos=-tau_plus * np.ones(np.shape(b.pos_score))[()],
        d_unlabeled=(live * d.lambda_n / b.n)[..., None] * act_unl.astype(float),
        d_extra_pos=(-live * d.lambda_n * tau_plus / b.m)[..., None] * act_ext.astype(float),
    )


def debiased_mse(b: ScoreBundle, d: DebiasParams, tau_plus, lambda_: float = 1.0) -> LossEvaluation:
    """Pointwise squared loss with the false-negative mass subtracted.

    value = tau+ * (1 - y_ui)^2
          + lambda * (mean_j y_uj^2 - tau+ * mean_k y_uk^2)
    """
    _require_extra(b, "debiased_mse")
    if b.n < 1:
        raise ValueError("debiased_mse needs N >= 1")
    tau_plus = np.asarray(tau_plus, dtype=float)
    return LossEvaluation(
        value=tau_plus * (1.0 - b.pos_score) ** 2
        + lambda_ * ((b.unlabeled_scores**2).mean(axis=-1) - tau_plus * (b.extra_pos_scores**2).mean(axis=-1)),
        d_pos=-2.0 * tau_plus * (1.0 - b.pos_score),
        d_unlabeled=(2.0 * lambda_ / b.n) * b.unlabeled_scores,
        d_extra_pos=(-2.0 * lambda_ * tau_plus / b.m)[..., None] * b.extra_pos_scores,
    )


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
    """A loss kind: its kernel(bundle, params, tau_plus) and its loss.params keys."""

    kernel: Callable[[ScoreBundle, dict, object], LossEvaluation]
    params: tuple[str, ...]


# The one source of what each loss kind is.  "temperature" is not a
# loss.params key of debiased_infonce: TrainConfig passes train.temperature.
LOSS_TABLE = {
    "bpr": LossKind(lambda b, p, tau: bpr(b), ()),
    "softmax": LossKind(lambda b, p, tau: sampled_softmax(b), ()),
    "infonce": LossKind(lambda b, p, tau: infonce(b), ()),
    "infonce_plus": LossKind(
        lambda b, p, tau: infonce_plus(b, InfoNCEPlusParams(**_kw(p, "lambda", "epsilon"))),
        ("lambda", "epsilon"),
    ),
    "dcl": LossKind(lambda b, p, tau: dcl(b), ()),
    "mine": LossKind(lambda b, p, tau: mine(b, normalized=True), ()),
    "mine_plus": LossKind(lambda b, p, tau: mine_plus(b, **_kw(p, "lambda")), ("lambda",)),
    "ccl": LossKind(
        lambda b, p, tau: ccl(b, CCLParams(**_kw(p, "negative_weight", "margin"))),
        ("negative_weight", "margin"),
    ),
    "mse": LossKind(lambda b, p, tau: mse_pointwise(b, **_kw(p, "lambda_neg")), ("lambda_neg",)),
    "debiased_infonce": LossKind(
        lambda b, p, tau: debiased_infonce(b, debias_params(p), tau),
        ("lambda_n", "clamp_floor", *_PRIOR_KEYS),
    ),
    "debiased_ccl": LossKind(
        lambda b, p, tau: debiased_ccl(b, CCLParams(**_kw(p, "margin")), debias_params(p), tau,
                                       **_kw(p, "floor_at_zero")),
        ("lambda_n", "margin", "floor_at_zero", *_PRIOR_KEYS),
    ),
    "debiased_mse": LossKind(
        lambda b, p, tau: debiased_mse(b, debias_params(p), tau, **_kw(p, "lambda")),
        ("lambda", *_PRIOR_KEYS),
    ),
}

LOSS_KINDS = tuple(LOSS_TABLE)

# the kinds that correct with a per-user positive prior tau+
DEBIASED_KINDS = tuple(k for k, kind in LOSS_TABLE.items() if set(_PRIOR_KEYS) <= set(kind.params))


def evaluate_loss(kind: str, b: ScoreBundle, params: dict | None = None, tau_plus=None) -> LossEvaluation:
    """Config-driven dispatch used by the trainer and CLI.

    ``params`` carries the per-kind table (see :data:`LOSS_TABLE`);
    ``tau_plus`` is required for the debiased kinds.
    """
    if kind not in LOSS_TABLE:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if tau_plus is None and kind in DEBIASED_KINDS:
        raise ValueError(f"{kind} requires tau_plus")
    return LOSS_TABLE[kind].kernel(b, params or {}, tau_plus)
