"""Loss functions: pinned values, gradients, reductions, bound chain."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from recloss import (
    BOUND_NAMES,
    DEBIASED_KINDS,
    DebiasParams,
    LOSS_KINDS,
    ScoreBundle,
    bound_chain_slacks,
    bpr,
    ccl,
    dcl,
    debiased_ccl,
    debiased_infonce,
    debiased_mse,
    evaluate_loss,
    infonce,
    infonce_plus,
    mine,
    mine_plus,
    mse_pointwise,
    positive_prior_all,
    sampled_softmax,
)
from recloss.losses import LossEvaluation
from conftest import FD_PARAMS, FD_TAU, build_dataset, fd_max_rel_err, random_bundle, smooth_bundle

LOG2 = math.log(2.0)


def bundle(pos, unl, extra=()):
    return ScoreBundle(pos, np.asarray(unl, dtype=float), np.asarray(extra, dtype=float))


class TestScoreBundle:
    def test_counts(self):
        b = bundle(0.0, [1.0, 2.0], [3.0])
        assert b.n == 2 and b.m == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bundle(np.nan, [0.0])
        with pytest.raises(ValueError, match="finite"):
            bundle(0.0, [np.inf])

    def test_gradient_shapes_match(self, rng):
        b = random_bundle(rng, n=5, m=2)
        ev = debiased_mse(b, 0.3)
        assert np.shape(ev.d_unlabeled) == (5,)
        assert np.shape(ev.d_extra_pos) == (2,)


@pytest.mark.parametrize("kernel", [
    lambda b: infonce_plus(b),
    lambda b: infonce_plus(b, epsilon=0.0),
    lambda b: ccl(b),
    lambda b: debiased_ccl(b, 0.3),
    lambda b: debiased_mse(b, 0.3),
    lambda b: debiased_infonce(b, DebiasParams(), 0.3),
], ids=["infonce_plus", "infonce_plus_decoupled", "ccl", "debiased_ccl", "debiased_mse",
        "debiased_infonce"])
def test_no_unlabeled_scores_rejected(kernel):
    with pytest.raises(ValueError, match=r"needs N >= 1"):
        kernel(bundle(0.4, [], [0.2]))


@pytest.mark.parametrize("kernel", [
    lambda b, w: ccl(b, negative_weight=w),
    lambda b, w: mse_pointwise(b, lambda_neg=w),
    lambda b, w: debiased_ccl(b, 0.3, lambda_n=w),
    lambda b, w: debiased_mse(b, 0.3, lambda_=w),
], ids=["ccl", "mse", "debiased_ccl", "debiased_mse"])
def test_negative_pointwise_weight_rejected(kernel):
    # a negative weight on the negatives' term leaves the loss unbounded below
    b = bundle(0.4, [0.5], [0.2])
    with pytest.raises(ValueError, match="must be >= 0"):
        kernel(b, -1.0)
    kernel(b, 0.0)


class TestPositivePrior:
    def test_topk_formula(self):
        ds = build_dataset([list(range(5))], [[]], 100)
        tau = positive_prior_all(ds, DebiasParams(tau_mode="topk", k=20))[0]
        assert tau == pytest.approx(0.25)

    def test_proportional_alpha_zero(self):
        ds = build_dataset([list(range(5))], [[]], 100)
        tau = positive_prior_all(ds, DebiasParams(tau_mode="proportional", alpha=0.0))[0]
        assert tau == pytest.approx(0.05)

    def test_proportional_constant_cu(self, rng):
        # c_u = |I| * tau / |pos_u| should equal 1 + alpha for every user
        lists = [sorted(rng.choice(60, size=rng.integers(1, 25), replace=False).tolist())
                 for _ in range(12)]
        ds = build_dataset(lists, [[] for _ in lists], 60)
        params = DebiasParams(tau_mode="proportional", alpha=0.4)
        taus = positive_prior_all(ds, params)
        for u in range(ds.num_users):
            c_u = ds.num_items * taus[u] / len(ds.train_positives[u])
            assert c_u == pytest.approx(1.4, rel=1e-12)

    def test_prior_at_least_one_rejected(self):
        ds = build_dataset([list(range(90))], [[]], 100)
        with pytest.raises(ValueError, match=">= 1"):
            positive_prior_all(ds, DebiasParams(tau_mode="topk", k=20))

    def test_ceiling_clamp(self):
        ds = build_dataset([list(range(9))], [[]], 2_000_000)
        tau = positive_prior_all(ds, DebiasParams(tau_mode="topk", k=1_999_990))[0]
        assert tau == 1.0 - 1e-6

    def test_no_positives_give_nan(self):
        ds = build_dataset([[0], []], [[], [0]], 100)
        assert np.isnan(positive_prior_all(ds, DebiasParams())[1])

    @pytest.mark.parametrize("params, num_items", [
        (DebiasParams(tau_mode="topk", k=3), 40),
        (DebiasParams(tau_mode="proportional", alpha=0.7), 40),
        (DebiasParams(tau_mode="topk", k=1_999_990), 2_000_000),  # 9 positives hit the ceiling
    ])
    def test_prior_all_matches_per_user_loop(self, params, num_items, rng):
        lists = [sorted(rng.choice(40, size=rng.integers(0, 10), replace=False).tolist())
                 for _ in range(30)]
        lists[0], lists[1] = [], list(range(9))
        ds = build_dataset(lists, [[] for _ in lists], num_items)
        expected = np.full(ds.num_users, np.nan)
        for u, items in enumerate(lists):
            if items:
                n = len(items)
                if params.tau_mode == "topk":
                    raw = (n + params.k) / num_items
                else:
                    raw = (1.0 + params.alpha) * n / num_items
                expected[u] = min(raw, 1.0 - 1e-6)
        np.testing.assert_array_equal(positive_prior_all(ds, params), expected)

    def test_prior_all_names_first_user_at_one(self):
        ds = build_dataset([[0], [0, 1, 2], [0, 1, 2, 3]], [[], [], []], 10)
        with pytest.raises(ValueError, match="for user 1;"):
            positive_prior_all(ds, DebiasParams(tau_mode="topk", k=7))
        ds = build_dataset([[0], [0, 1], [0, 1, 2, 3]], [[], [], []], 10)
        with pytest.raises(ValueError, match="for user 2;"):
            positive_prior_all(ds, DebiasParams(tau_mode="topk", k=7))

    def test_prior_all_nan_for_empty(self):
        ds = build_dataset([[0], []], [[], [0]], 2)
        taus = positive_prior_all(ds, DebiasParams(k=0))
        assert taus[0] == pytest.approx(0.5)
        assert np.isnan(taus[1])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            DebiasParams(tau_mode="fancy")


class TestBPR:
    def test_equal_scores(self):
        assert bpr(bundle(0.0, [0.0])).value == pytest.approx(LOG2)

    def test_two_negative_example(self):
        assert bpr(bundle(2.0, [0.0, 1.0])).value == pytest.approx(0.440190, abs=5e-6)

    def test_saturation(self):
        assert bpr(bundle(1000.0, [0.0, 0.0])).value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_signs(self):
        ev = bpr(bundle(0.0, [0.0, 0.0]))
        assert ev.d_pos == pytest.approx(-1.0)
        assert ev.d_unlabeled == pytest.approx([0.5, 0.5])


class TestSoftmaxAndInfoNCE:
    def test_uniform_case(self):
        assert sampled_softmax(bundle(0.0, [0.0] * 4)).value == pytest.approx(math.log(5))

    def test_closed_form_example(self):
        ev = sampled_softmax(bundle(1.0, [0.0, 0.0]))
        assert ev.value == pytest.approx(0.551445, abs=5e-6)

    def test_equals_infonce(self, rng):
        for _ in range(20):
            b = random_bundle(rng)
            assert infonce(b).value == sampled_softmax(b).value
            assert np.array_equal(infonce(b).d_unlabeled, sampled_softmax(b).d_unlabeled)

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_equal_scores_log_n_plus_one(self, n):
        assert infonce(bundle(0.0, [0.0] * n)).value == pytest.approx(math.log(n + 1))

    def test_gradients_sum_to_zero(self, rng):
        # softmax weights: d_pos + sum(d_unlabeled) == 0
        for _ in range(10):
            b = random_bundle(rng)
            ev = sampled_softmax(b)
            assert ev.d_pos + ev.d_unlabeled.sum() == pytest.approx(0.0, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        ev = sampled_softmax(bundle(500.0, [-500.0, 400.0]))
        assert np.isfinite(ev.value)
        assert np.all(np.isfinite(ev.d_unlabeled))


def reference_infonce_plus(b: ScoreBundle, lambda_: float, epsilon: float) -> LossEvaluation:
    """The softmax-family kernel as a log-sum-exp of the unlabeled scores and
    a second exp pass for their partials: the slow form infonce_plus replaces."""
    lse = logsumexp(b.unlabeled_scores, axis=-1)
    if epsilon > 0:
        log_pos = math.log(epsilon) + b.pos_score
        log_den = np.logaddexp(lse, log_pos)
        w_pos = np.exp(log_pos - log_den)
    else:
        log_den, w_pos = lse, np.zeros(np.shape(b.pos_score))
    return LossEvaluation(
        value=-b.pos_score + lambda_ * log_den,
        d_pos=-1.0 + lambda_ * w_pos,
        d_unlabeled=lambda_ * np.exp(b.unlabeled_scores - log_den[..., None]),
    )


def _assert_matches_reference(b: ScoreBundle, lambda_: float, epsilon: float) -> None:
    """infonce_plus agrees with the reference within 1e-12 relative and
    leaves the bundle's scores as they were.  Below the smallest normal
    double, where the spacing of floats is absolute, the two forms round to
    that grid apart, so a partial there is compared as if it were that
    smallest normal."""
    scores = b.unlabeled_scores.copy()
    got = infonce_plus(b, lambda_=lambda_, epsilon=epsilon)
    ref = reference_infonce_plus(b, lambda_, epsilon)
    np.testing.assert_array_equal(b.unlabeled_scores, scores)
    for name in ("value", "d_pos", "d_unlabeled"):
        g, r = getattr(got, name), getattr(ref, name)
        assert np.shape(g) == np.shape(r), name
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.finfo(float).tiny,
                                   err_msg=name)


class TestInfoNCEPlus:
    def test_dcl_reduction_equal_scores(self):
        ev = infonce_plus(bundle(0.0, [0.0, 0.0]), lambda_=1.0, epsilon=0.0)
        assert ev.value == pytest.approx(LOG2)

    def test_closed_form_example(self):
        ev = infonce_plus(bundle(1.0, [0.0, 0.0]), lambda_=1.1, epsilon=0.0)
        assert ev.value == pytest.approx(-(1 - 1.1 * LOG2), abs=5e-6)
        assert ev.value == pytest.approx(-0.237538, abs=5e-6)

    def test_unit_params_recover_infonce(self, rng):
        for _ in range(20):
            b = random_bundle(rng)
            ref = infonce(b)
            got = infonce_plus(b, lambda_=1.0, epsilon=1.0)
            assert abs(got.value - ref.value) < 1e-12
            assert abs(got.d_pos - ref.d_pos) < 1e-12
            assert np.max(np.abs(got.d_unlabeled - ref.d_unlabeled)) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, 1.2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_zero_epsilon_finite_when_positive_dominates(self, lam, batched):
        # y_pos - max y_neg > 710: exp(y_pos) overflows, and 0 * inf must not leak
        pos, unl = 800.0, [0.0, 0.0]
        b = bundle([pos, pos], [unl, unl]) if batched else bundle(pos, unl)
        ev = infonce_plus(b, lambda_=lam, epsilon=0.0)
        assert np.all(ev.d_pos == -1.0)
        assert np.allclose(ev.d_unlabeled, lam / 2)
        assert np.allclose(ev.value, -pos + lam * LOG2)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("n", [1, 200, 800])
    @pytest.mark.parametrize("scale", [1.0, 10.0, 300.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.1])
    def test_matches_logsumexp_reference(self, lam, epsilon, scale, n, batched):
        rng = np.random.default_rng([n, int(scale), int(10 * lam), int(10 * epsilon)])
        shape = (6,) if batched else ()
        b = bundle(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape + (n,)))
        _assert_matches_reference(b, lam, epsilon)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.1])
    def test_matches_reference_when_positive_dominates(self, lam, epsilon, batched):
        pos, unl = 800.0, [0.0, 0.0]
        b = bundle([pos, pos], [unl, unl]) if batched else bundle(pos, unl)
        _assert_matches_reference(b, lam, epsilon)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            infonce_plus(bundle(0.0, [0.0]), lambda_=-0.1)
        with pytest.raises(ValueError):
            infonce_plus(bundle(0.0, [0.0]), epsilon=-0.1)


class TestMine:
    @pytest.mark.parametrize("n", [2, 8])
    def test_equal_scores_log_n(self, n):
        assert mine(bundle(0.7, [0.7] * n)).value == pytest.approx(math.log(n))

    def test_equals_infonce_plus_zero_epsilon(self, rng):
        for _ in range(20):
            b = random_bundle(rng)
            assert abs(mine(b).value - infonce_plus(b, lambda_=1.0, epsilon=0.0).value) < 1e-12

    def test_normalized_shift_is_log_n(self, rng):
        for _ in range(10):
            b = random_bundle(rng)
            plain = mine(b, normalized=False)
            norm = mine(b, normalized=True)
            assert plain.value - norm.value == pytest.approx(math.log(b.n), abs=1e-12)
            # the constant shift leaves every gradient untouched
            assert plain.d_pos == norm.d_pos
            assert np.array_equal(plain.d_unlabeled, norm.d_unlabeled)

    def test_dcl_alias(self, rng):
        b = random_bundle(rng)
        assert dcl(b).value == mine(b, normalized=False).value


class TestMinePlus:
    def test_unit_lambda_equals_mine(self, rng):
        for _ in range(10):
            b = random_bundle(rng)
            assert abs(mine_plus(b, 1.0).value - mine(b).value) < 1e-12

    def test_closed_form_example(self):
        ev = mine_plus(bundle(1.0, [0.0, 0.0]), lambda_=1.2)
        assert ev.value == pytest.approx(-(1 - 1.2 * LOG2), abs=5e-6)
        assert ev.value == pytest.approx(-0.168224, abs=5e-6)


def reference_ccl(b, negative_weight, margin):
    """ccl as written out before the shared pointwise kernel, as an oracle."""
    over = b.unlabeled_scores - margin
    active = over > 0
    scale = negative_weight / b.n
    return LossEvaluation(
        value=(1.0 - b.pos_score) + scale * np.where(active, over, 0.0).sum(axis=-1),
        d_pos=np.full(np.shape(b.pos_score), -1.0)[()],
        d_unlabeled=scale * active.astype(float),
    )


def reference_mse(b, lambda_neg=1.0):
    """mse_pointwise as written out before the shared kernel, as an oracle."""
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


def reference_debiased_ccl(b, tau_plus, lambda_n, margin, floor_at_zero=False):
    """debiased_ccl as written out before the shared kernel, as an oracle."""
    tau_plus = np.asarray(tau_plus, dtype=float)
    over_unl = b.unlabeled_scores - margin
    over_ext = b.extra_pos_scores - margin
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
        value=tau_plus * (1.0 - b.pos_score) + lambda_n * correction,
        d_pos=-tau_plus * np.ones(np.shape(b.pos_score))[()],
        d_unlabeled=(live * lambda_n / b.n)[..., None] * act_unl.astype(float),
        d_extra_pos=(-live * lambda_n * tau_plus / b.m)[..., None] * act_ext.astype(float),
    )


def reference_debiased_mse(b, tau_plus, lambda_=1.0):
    """debiased_mse as written out before the shared kernel, as an oracle."""
    tau_plus = np.asarray(tau_plus, dtype=float)
    return LossEvaluation(
        value=tau_plus * (1.0 - b.pos_score) ** 2
        + lambda_ * ((b.unlabeled_scores**2).mean(axis=-1) - tau_plus * (b.extra_pos_scores**2).mean(axis=-1)),
        d_pos=-2.0 * tau_plus * (1.0 - b.pos_score),
        d_unlabeled=(2.0 * lambda_ / b.n) * b.unlabeled_scores,
        d_extra_pos=(-2.0 * lambda_ * tau_plus / b.m)[..., None] * b.extra_pos_scores,
    )


# each pointwise kind as (public function, its oracle), both called (bundle, tau+)
POINTWISE_CASES = {
    "ccl": (lambda b, tau: ccl(b, negative_weight=0.8, margin=0.2),
            lambda b, tau: reference_ccl(b, 0.8, 0.2)),
    "mse": (lambda b, tau: mse_pointwise(b, 0.7),
            lambda b, tau: reference_mse(b, 0.7)),
    "debiased_ccl": (lambda b, tau: debiased_ccl(b, tau, lambda_n=0.6, margin=0.2),
                     lambda b, tau: reference_debiased_ccl(b, tau, 0.6, 0.2)),
    "debiased_ccl_floor": (lambda b, tau: debiased_ccl(b, tau, lambda_n=0.6, margin=0.2,
                                                       floor_at_zero=True),
                           lambda b, tau: reference_debiased_ccl(b, tau, 0.6, 0.2, True)),
    "debiased_mse": (lambda b, tau: debiased_mse(b, tau, 1.3),
                     lambda b, tau: reference_debiased_mse(b, tau, 1.3)),
}


def assert_matches_reference(got, want):
    """Value and every partial agree to 1e-12 relative, with the same shapes."""
    for field in ("value", "d_pos", "d_unlabeled", "d_extra_pos"):
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert a.shape == b.shape, field
        scale = np.max(np.abs(b), initial=0.0)
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale, field


def margin_bundle(rng, batch, n=7, m=4, margin=0.2):
    """Scores in [-1, 1] with some unlabeled and extra scores exactly at the margin."""
    lead = (batch,) if batch else ()
    unl, ext = rng.uniform(-1, 1, size=(*lead, n)), rng.uniform(-1, 1, size=(*lead, m))
    unl[..., ::3] = margin
    ext[..., ::2] = margin
    return ScoreBundle(rng.uniform(-1, 1, size=lead), unl, ext)


class TestPointwiseKernel:
    """The four pointwise losses share one kernel; each matches its old body."""

    @pytest.mark.parametrize("kind", POINTWISE_CASES)
    @pytest.mark.parametrize("batch", [0, 6])
    def test_matches_reference(self, kind, batch, rng):
        public, reference = POINTWISE_CASES[kind]
        taus = [0.3] + ([rng.uniform(0.05, 0.9, size=batch)] if batch else [])
        for _ in range(10):
            b = margin_bundle(rng, batch)
            for tau in taus:
                assert_matches_reference(public(b, tau), reference(b, tau))

    def test_floor_active_on_some_rows(self, rng):
        public, reference = POINTWISE_CASES["debiased_ccl_floor"]
        floored = np.arange(8) % 2 == 0
        # floored rows: no unlabeled hinge is on, every extra one is, so the
        # bracket is -tau+ * mean_k hinge < 0; the other rows the other way round
        unl = np.where(floored[:, None], -1.0, rng.uniform(0.5, 1, size=(8, 5)))
        ext = np.where(floored[:, None], rng.uniform(0.5, 1, size=(8, 3)), -1.0)
        b = ScoreBundle(rng.uniform(-1, 1, size=8), unl, ext)
        tau = rng.uniform(0.05, 0.9, size=8)
        got = public(b, tau)
        assert np.all(got.d_unlabeled[floored] == 0) and np.all(got.d_extra_pos[floored] == 0)
        assert np.all(got.d_unlabeled[~floored] > 0)
        assert_matches_reference(got, reference(b, tau))
        unfloored = POINTWISE_CASES["debiased_ccl"][0](b, tau)
        assert np.all(got.value[floored] > unfloored.value[floored])
        assert np.all(np.any(unfloored.d_extra_pos[floored] != 0, axis=1))

    @pytest.mark.parametrize("batch", [0, 4])
    def test_mse_without_unlabeled_scores(self, batch, rng):
        lead = (batch,) if batch else ()
        b = ScoreBundle(rng.uniform(-1, 1, size=lead), np.empty((*lead, 0)))
        public, reference = POINTWISE_CASES["mse"]
        assert_matches_reference(public(b, None), reference(b, None))

    # tracemalloc peak of one call in units of B*N*8 bytes; the bodies before
    # the shared kernel peaked at 2.14, 1.02, 3.34 and 1.20 on this bundle
    @pytest.mark.parametrize("kind,bound", [
        ("ccl", 1.35), ("mse", 1.07), ("debiased_ccl", 1.55), ("debiased_ccl_floor", 1.55),
        ("debiased_mse", 1.25),
    ])
    def test_peak_memory(self, kind, bound):
        B, N, M = 512, 200, 20
        rng = np.random.default_rng(0)
        b = ScoreBundle(rng.uniform(-1, 1, B), rng.uniform(-1, 1, (B, N)), rng.uniform(-1, 1, (B, M)))
        tau = rng.uniform(0.001, 0.01, B)
        public = POINTWISE_CASES[kind][0]
        public(b, tau)
        tracemalloc.start()
        try:
            public(b, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * B * N * 8


class TestCCL:
    def test_perfect_separation(self):
        assert ccl(bundle(1.0, [0.5, -0.3]), negative_weight=1.0, margin=0.9).value == 0.0

    def test_closed_form_example(self):
        ev = ccl(bundle(0.5, [0.95, 0.2]), negative_weight=1.0, margin=0.9)
        assert ev.value == pytest.approx(0.525)

    def test_kink_subgradient_zero(self):
        ev = ccl(bundle(0.5, [0.4, 0.6]), negative_weight=2.0, margin=0.4)
        assert ev.d_unlabeled[0] == 0.0
        assert ev.d_unlabeled[1] == pytest.approx(1.0)  # w / N = 2 / 2

    def test_margin_range_enforced(self):
        with pytest.raises(ValueError):
            ccl(bundle(0.0, [0.0]), margin=1.5)
        with pytest.raises(ValueError):
            ccl(bundle(0.0, [0.0]), negative_weight=-1.0)


class TestMSE:
    def test_ideal_fit(self):
        assert mse_pointwise(bundle(1.0, [0.0, 0.0])).value == 0.0

    def test_closed_form_example(self):
        assert mse_pointwise(bundle(0.5, [0.2]), 1.0).value == pytest.approx(0.29)

    def test_d_pos(self, rng):
        for _ in range(10):
            b = random_bundle(rng)
            assert mse_pointwise(b).d_pos == pytest.approx(-2 * (1 - float(b.pos_score)))

    def test_no_negatives_allowed(self):
        ev = mse_pointwise(ScoreBundle(0.4, np.empty(0)))
        assert ev.value == pytest.approx(0.36)
        assert ev.d_unlabeled.size == 0

    def test_lambda_neg_scales_negative_term(self):
        low = mse_pointwise(bundle(1.0, [0.5]), lambda_neg=0.1).value
        high = mse_pointwise(bundle(1.0, [0.5]), lambda_neg=1.0).value
        assert high == pytest.approx(10 * low)


class TestDebiasedInfoNCE:
    def test_zero_prior_recovers_infonce(self, rng):
        for _ in range(20):
            b = random_bundle(rng, m=2)
            d = DebiasParams(lambda_n=float(b.n), clamp_floor_enabled=False)
            got = debiased_infonce(b, d, tau_plus=0.0)
            ref = infonce(b)
            assert abs(got.value - ref.value) < 1e-12
            assert abs(got.d_pos - ref.d_pos) < 1e-12
            assert np.max(np.abs(got.d_unlabeled - ref.d_unlabeled)) < 1e-12
            assert np.max(np.abs(got.d_extra_pos)) == 0.0

    def test_closed_form_example(self):
        b = bundle(0.0, [0.0, 0.0], [0.0])
        d = DebiasParams(lambda_n=1.0, clamp_floor_enabled=False)
        ev = debiased_infonce(b, d, tau_plus=0.5)
        assert ev.value == pytest.approx(LOG2)

    def test_clamp_branch(self):
        # correction term 0.05 < floor e^{-1} -> clamped; gradients through g vanish
        b = bundle(0.0, [math.log(0.2)], [math.log(0.35)])
        d = DebiasParams(lambda_n=1.0, temperature=1.0, clamp_floor_enabled=True)
        ev = debiased_infonce(b, d, tau_plus=0.5)
        assert ev.value == pytest.approx(math.log(1.0 + math.exp(-1.0)))
        assert np.all(ev.d_unlabeled == 0.0)
        assert np.all(ev.d_extra_pos == 0.0)
        assert ev.d_pos == pytest.approx(1.0 / (1.0 + math.exp(-1.0)) - 1.0)
        # same bundle with the clamp disabled takes the live branch
        off = debiased_infonce(
            b, DebiasParams(lambda_n=1.0, clamp_floor_enabled=False), tau_plus=0.5
        )
        assert off.value == pytest.approx(math.log(1.05))
        assert np.any(off.d_unlabeled != 0.0)

    def test_missing_extra_positives_rejected(self, rng):
        b = random_bundle(rng, m=0)
        with pytest.raises(ValueError, match="biased"):
            debiased_infonce(b, DebiasParams(), 0.3)

    def test_non_positive_log_argument_rejected(self):
        b = bundle(-5.0, [-3.0], [0.0])
        d = DebiasParams(lambda_n=1.0, clamp_floor_enabled=False)
        with pytest.raises(ValueError, match="non-positive"):
            debiased_infonce(b, d, tau_plus=0.9)

    def test_large_score_stability(self):
        b = bundle(300.0, [299.0, 301.0], [300.0])
        ev = debiased_infonce(b, DebiasParams(), tau_plus=0.2)
        assert np.isfinite(ev.value)
        assert np.all(np.isfinite(ev.d_unlabeled))


class TestDebiasedCCL:
    def test_closed_form_example(self):
        b = bundle(1.0, [0.5], [0.5])
        ev = debiased_ccl(b, 0.5, lambda_n=1.0, margin=0.0)
        assert ev.value == pytest.approx(0.25)

    def test_zero_prior_matches_ccl_negative_term(self, rng):
        for _ in range(10):
            b = random_bundle(rng, m=2, low=-1, high=1)
            got = debiased_ccl(b, tau_plus=0.0, lambda_n=0.7, margin=0.2)
            ref = ccl(b, negative_weight=0.7, margin=0.2)
            # with tau=0 the positive term drops; the hinge terms coincide
            assert got.value == pytest.approx(ref.value - (1 - float(b.pos_score)), abs=1e-12)

    def test_value_may_go_negative(self):
        b = bundle(1.0, [-1.0], [0.9])
        ev = debiased_ccl(b, 0.5, lambda_n=1.0, margin=0.0)
        assert ev.value < 0.0

    def test_floor_at_zero_flag(self):
        b = bundle(1.0, [-1.0], [0.9])
        ev = debiased_ccl(b, 0.5, lambda_n=1.0, margin=0.0, floor_at_zero=True)
        assert ev.value == pytest.approx(0.0)
        assert np.all(ev.d_unlabeled == 0.0)
        assert np.all(ev.d_extra_pos == 0.0)

    def test_missing_extra_positives_rejected(self, rng):
        with pytest.raises(ValueError, match="biased"):
            debiased_ccl(random_bundle(rng), 0.3)


class TestDebiasedMSE:
    def test_zero_prior_keeps_unlabeled_term(self):
        b = bundle(0.3, [0.5, 0.1], [0.2])
        ev = debiased_mse(b, tau_plus=0.0, lambda_=2.0)
        assert ev.value == pytest.approx(2.0 * (0.25 + 0.01) / 2)

    def test_full_prior_cancellation(self, rng):
        for _ in range(10):
            unl = rng.uniform(-1, 1, size=4)
            b = ScoreBundle(rng.uniform(-1, 1), unl, unl.copy())
            ev = debiased_mse(b, tau_plus=1.0)
            assert ev.value == pytest.approx((1 - float(b.pos_score)) ** 2, abs=1e-12)
            assert ev.d_unlabeled + ev.d_extra_pos == pytest.approx(np.zeros(4), abs=1e-12)

    def test_closed_form_example(self):
        b = bundle(1.0, [1.0], [1.0])
        assert debiased_mse(b, 0.5, 1.0).value == pytest.approx(0.5)

    def test_missing_extra_positives_rejected(self, rng):
        with pytest.raises(ValueError, match="biased"):
            debiased_mse(random_bundle(rng), 0.3)


class TestDebiasingIdentity:
    """One user's whole catalog of n items as the N = n unlabeled scores, all
    of the user's p true positives as the M = p extras, and tau+ = p / n, with
    the clamp and the floor off: each debiased kernel then equals its biased
    kernel over the positive and the n - p true negatives alone, so the
    estimator removes the false-negative mass exactly.  An item's partial is
    its unlabeled and extra partials summed (0 for every true positive), plus
    d_pos for the pair's own positive."""

    @staticmethod
    def instances(rng, count=200, temperature=0.5):
        for _ in range(count):
            n = int(rng.integers(3, 60))
            positives = np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
            scores = rng.uniform(-1.0, 1.0, n) / temperature  # cosine scores
            yield scores, positives, int(rng.choice(positives))

    @staticmethod
    def debiased_partials(ev, positives, i):
        grads = ev.d_unlabeled.copy()
        grads[positives] += ev.d_extra_pos
        grads[i] += ev.d_pos
        return grads

    @staticmethod
    def biased_partials(ev, n, negatives, i, pos_scale=1.0, neg_scale=1.0):
        grads = np.zeros(n)
        grads[negatives] = neg_scale * ev.d_unlabeled
        grads[i] = pos_scale * ev.d_pos
        return grads

    def test_debiased_infonce_is_infonce_over_the_true_negatives(self, rng):
        # g = (mean_j e^y_j - tau+ mean_k e^y_k) / tau- is the true negatives'
        # mean e^y, and lambda_n = n - p turns it into their sum
        for scores, positives, i in self.instances(rng):
            n, p = len(scores), len(positives)
            negatives = np.setdiff1d(np.arange(n), positives)
            got = debiased_infonce(ScoreBundle(scores[i], scores, scores[positives]),
                                   DebiasParams(lambda_n=n - p, clamp_floor_enabled=False),
                                   tau_plus=p / n)
            want = infonce(ScoreBundle(scores[i], scores[negatives]))
            np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(self.debiased_partials(got, positives, i),
                                       self.biased_partials(want, n, negatives, i),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("debiased, biased, psi", [
        (lambda b, tau, w, m: debiased_ccl(b, tau, lambda_n=w, margin=m),
         lambda b, w, m: ccl(b, negative_weight=w, margin=m), lambda y: 1.0 - y),
        (lambda b, tau, w, m: debiased_mse(b, tau, lambda_=w),
         lambda b, w, m: mse_pointwise(b, lambda_neg=w), lambda y: (1.0 - y) ** 2),
    ], ids=["debiased_ccl", "debiased_mse"])
    def test_pointwise_is_tau_weighted_over_the_true_negatives(self, debiased, biased, psi,
                                                               rng):
        # value = tau+ psi(y_ui) + tau- (the biased negative term over the true negatives)
        for scores, positives, i in self.instances(rng):
            n, p = len(scores), len(positives)
            negatives = np.setdiff1d(np.arange(n), positives)
            weight, margin = rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)
            tau_plus = p / n
            got = debiased(ScoreBundle(scores[i], scores, scores[positives]), tau_plus,
                           weight, margin)
            want = biased(ScoreBundle(scores[i], scores[negatives]), weight, margin)
            negative_term = want.value - psi(scores[i])
            np.testing.assert_allclose(got.value,
                                       tau_plus * psi(scores[i]) + (1 - tau_plus) * negative_term,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(self.debiased_partials(got, positives, i),
                                       self.biased_partials(want, n, negatives, i,
                                                            tau_plus, 1 - tau_plus),
                                       rtol=1e-12, atol=1e-12)


class TestBoundChain:
    def test_symmetric_point_exact_slacks(self):
        slacks = bound_chain_slacks(bundle(0.3, [0.3, 0.3]))
        assert slacks["infonce_minus_dcl"] == pytest.approx(math.log(1.5))
        assert slacks["dcl_minus_jensen_floor"] == pytest.approx(0.0, abs=1e-12)
        assert slacks["hinge_cap_minus_infonce"] == pytest.approx(0.0, abs=1e-12)
        assert slacks["dcl_minus_max_gap"] == pytest.approx(LOG2)
        assert slacks["bpr_minus_hinge_sum"] == pytest.approx(2 * LOG2)
        assert slacks["log_n"] == pytest.approx(LOG2)

    def test_names(self):
        slacks = bound_chain_slacks(bundle(0.0, [1.0]))
        assert tuple(slacks) == BOUND_NAMES

    def test_random_bundles_nonnegative(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 65))
            b = ScoreBundle(rng.uniform(-10, 10), rng.uniform(-10, 10, size=n))
            for name, slack in bound_chain_slacks(b).items():
                assert slack >= -1e-9, name

    def test_saturated_positive(self, rng):
        b = ScoreBundle(1000.0, rng.uniform(-10, 10, size=8))
        for name, slack in bound_chain_slacks(b).items():
            assert slack >= -1e-9, name


class TestDispatch:
    def taus(self, kind):
        return FD_TAU if kind in DEBIASED_KINDS else None

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_every_kind_evaluates(self, kind, rng):
        b = random_bundle(rng, n=6, m=2)
        ev = evaluate_loss(kind, b, FD_PARAMS[kind], self.taus(kind))
        assert np.isfinite(ev.value)
        assert np.shape(ev.d_unlabeled) == (6,)

    def test_mine_kind_is_normalized(self, rng):
        b = random_bundle(rng, n=8)
        gap = evaluate_loss("dcl", b).value - evaluate_loss("mine", b).value
        assert gap == pytest.approx(math.log(8), abs=1e-12)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown loss kind"):
            evaluate_loss("hinge", random_bundle(rng))

    def test_debiased_requires_tau(self, rng):
        with pytest.raises(ValueError, match="tau_plus"):
            evaluate_loss("debiased_infonce", random_bundle(rng, m=1))

    def test_param_table_reaches_function(self, rng):
        b = random_bundle(rng, n=4)
        via_table = evaluate_loss("infonce_plus", b, {"lambda": 1.3, "epsilon": 0.2})
        direct = infonce_plus(b, lambda_=1.3, epsilon=0.2)
        assert via_table.value == direct.value

    @pytest.mark.parametrize("kind, explicit", [
        ("infonce_plus", {"lambda": 1.0, "epsilon": 1.0}),
        ("mine_plus", {"lambda": 1.0}),
        ("ccl", {"negative_weight": 1.0, "margin": 0.0}),
        ("mse", {"lambda_neg": 1.0}),
        ("debiased_infonce", {"lambda_n": 1.0, "clamp_floor": True, "tau_mode": "topk"}),
        ("debiased_ccl", {"lambda_n": 1.0, "margin": 0.0, "floor_at_zero": False}),
        ("debiased_mse", {"lambda": 1.0, "k": 20, "alpha": 0.0}),
    ])
    def test_absent_params_take_kernel_defaults(self, kind, explicit, rng):
        b = random_bundle(rng, n=5, m=2, low=-0.9, high=0.9)
        tau = self.taus(kind)
        assert evaluate_loss(kind, b, {}, tau).value == evaluate_loss(kind, b, explicit, tau).value

    def test_clamp_flag_reaches_function(self):
        b = bundle(0.0, [math.log(0.2)], [math.log(0.35)])
        on = evaluate_loss("debiased_infonce", b, {"lambda_n": 1.0}, 0.5)
        off = evaluate_loss("debiased_infonce", b, {"lambda_n": 1.0, "clamp_floor": False}, 0.5)
        assert on.value != off.value

    def test_temperature_keyword_sets_the_clamp(self):
        # every score at -1.25: e^y = 0.29 lies below the floor e^-1 of t = 1
        # and above the floor exp(-1/t) = 0.08 of t = 0.4
        b = bundle(-1.25, np.full(4, -1.25), np.full(2, -1.25))
        unclamped = evaluate_loss("debiased_infonce", b, {"clamp_floor": False}, 0.05)
        at_model_t = evaluate_loss("debiased_infonce", b, {}, 0.05, temperature=0.4)
        at_default_t = evaluate_loss("debiased_infonce", b, {}, 0.05)
        assert at_model_t.value == unclamped.value and at_default_t.value != unclamped.value
        # a "temperature" entry in params is not read
        ignored = evaluate_loss("debiased_infonce", b, {"temperature": 0.4}, 0.05)
        assert ignored.value == at_default_t.value


class TestBatchedEvaluation:
    """A (B,)-leading-axis bundle must agree with row-by-row evaluation."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_matches_rows(self, kind, rng):
        B, n, m = 5, 6, 3
        pos = rng.uniform(-2, 2, size=B)
        unl = rng.uniform(-2, 2, size=(B, n))
        ext = rng.uniform(-2, 2, size=(B, m))
        tau = rng.uniform(0.1, 0.5, size=B) if kind in DEBIASED_KINDS else None
        batch = evaluate_loss(kind, ScoreBundle(pos, unl, ext), FD_PARAMS[kind], tau)
        for i in range(B):
            row = evaluate_loss(
                kind,
                ScoreBundle(pos[i], unl[i], ext[i]),
                FD_PARAMS[kind],
                None if tau is None else float(tau[i]),
            )
            assert abs(batch.value[i] - float(row.value)) < 1e-12
            assert abs(batch.d_pos[i] - float(row.d_pos)) < 1e-12
            assert np.max(np.abs(batch.d_unlabeled[i] - row.d_unlabeled)) < 1e-12
            if np.asarray(row.d_extra_pos).size:
                assert np.max(np.abs(batch.d_extra_pos[i] - row.d_extra_pos)) < 1e-12


MONOTONE_CASES = [
    ("bpr", {}),
    ("infonce", {}),
    ("infonce_plus", {"lambda": 1.0, "epsilon": 0.5}),
    ("infonce_plus", {"lambda": 1.1, "epsilon": 0.0}),
    ("mine", {}),
    ("mine_plus", {"lambda": 1.2}),
]


class TestMonotonicity:
    @pytest.mark.parametrize("kind,params", MONOTONE_CASES)
    def test_increasing_pos_decreases_loss(self, kind, params, rng):
        for _ in range(20):
            b = random_bundle(rng)
            lo = evaluate_loss(kind, b, params).value
            shifted = ScoreBundle(b.pos_score + 0.3, b.unlabeled_scores)
            hi = evaluate_loss(kind, shifted, params).value
            assert hi < lo


class TestFiniteDifferences:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradients_match_central_differences(self, kind):
        rng = np.random.default_rng(17)
        tau = FD_TAU if kind in DEBIASED_KINDS else None
        for _ in range(20):
            b = smooth_bundle(rng, kind, FD_PARAMS[kind], FD_TAU)
            assert fd_max_rel_err(kind, b, FD_PARAMS[kind], tau) < 1e-5
