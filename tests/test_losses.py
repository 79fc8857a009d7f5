"""Loss functions: pinned values, gradients, reductions, bound chain."""

import math

import numpy as np
import pytest

from recloss import (
    BOUND_NAMES,
    CCLParams,
    DEBIASED_KINDS,
    DebiasParams,
    InfoNCEPlusParams,
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
    positive_prior,
    positive_prior_all,
    sampled_softmax,
)
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
        ev = debiased_mse(b, DebiasParams(), 0.3)
        assert np.shape(ev.d_unlabeled) == (5,)
        assert np.shape(ev.d_extra_pos) == (2,)


class TestPositivePrior:
    def test_topk_formula(self):
        ds = build_dataset([list(range(5))], [[]], 100)
        tau = positive_prior(ds, 0, DebiasParams(tau_mode="topk", k=20))
        assert tau == pytest.approx(0.25)

    def test_proportional_alpha_zero(self):
        ds = build_dataset([list(range(5))], [[]], 100)
        tau = positive_prior(ds, 0, DebiasParams(tau_mode="proportional", alpha=0.0))
        assert tau == pytest.approx(0.05)

    def test_proportional_constant_cu(self, rng):
        # c_u = |I| * tau / |pos_u| should equal 1 + alpha for every user
        lists = [sorted(rng.choice(60, size=rng.integers(1, 25), replace=False).tolist())
                 for _ in range(12)]
        ds = build_dataset(lists, [[] for _ in lists], 60)
        params = DebiasParams(tau_mode="proportional", alpha=0.4)
        for u in range(ds.num_users):
            tau = positive_prior(ds, u, params)
            c_u = ds.num_items * tau / len(ds.train_positives[u])
            assert c_u == pytest.approx(1.4, rel=1e-12)

    def test_prior_at_least_one_rejected(self):
        ds = build_dataset([list(range(90))], [[]], 100)
        with pytest.raises(ValueError, match=">= 1"):
            positive_prior(ds, 0, DebiasParams(tau_mode="topk", k=20))

    def test_ceiling_clamp(self):
        ds = build_dataset([list(range(9))], [[]], 2_000_000)
        tau = positive_prior(ds, 0, DebiasParams(tau_mode="topk", k=1_999_990))
        assert tau == 1.0 - 1e-6

    def test_no_positives_rejected(self):
        ds = build_dataset([[0], []], [[], [0]], 2)
        with pytest.raises(ValueError, match="no train positives"):
            positive_prior(ds, 1, DebiasParams())

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
        for u in np.flatnonzero(ds.train_positives.lengths):
            assert positive_prior(ds, u, params) == expected[u]

    def test_prior_all_names_first_user_at_one(self):
        ds = build_dataset([[0], [0, 1, 2], [0, 1, 2, 3]], [[], [], []], 10)
        with pytest.raises(ValueError, match="for user 1;"):
            positive_prior_all(ds, DebiasParams(tau_mode="topk", k=7))
        with pytest.raises(ValueError, match="for user 2;"):
            positive_prior(ds, 2, DebiasParams(tau_mode="topk", k=7))

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


class TestInfoNCEPlus:
    def test_dcl_reduction_equal_scores(self):
        p = InfoNCEPlusParams(lambda_=1.0, epsilon=0.0)
        assert infonce_plus(bundle(0.0, [0.0, 0.0]), p).value == pytest.approx(LOG2)

    def test_closed_form_example(self):
        p = InfoNCEPlusParams(lambda_=1.1, epsilon=0.0)
        ev = infonce_plus(bundle(1.0, [0.0, 0.0]), p)
        assert ev.value == pytest.approx(-(1 - 1.1 * LOG2), abs=5e-6)
        assert ev.value == pytest.approx(-0.237538, abs=5e-6)

    def test_unit_params_recover_infonce(self, rng):
        p = InfoNCEPlusParams(1.0, 1.0)
        for _ in range(20):
            b = random_bundle(rng)
            ref = infonce(b)
            got = infonce_plus(b, p)
            assert abs(got.value - ref.value) < 1e-12
            assert abs(got.d_pos - ref.d_pos) < 1e-12
            assert np.max(np.abs(got.d_unlabeled - ref.d_unlabeled)) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, 1.2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_zero_epsilon_finite_when_positive_dominates(self, lam, batched):
        # y_pos - max y_neg > 710: exp(y_pos) overflows, and 0 * inf must not leak
        pos, unl = 800.0, [0.0, 0.0]
        b = bundle([pos, pos], [unl, unl]) if batched else bundle(pos, unl)
        ev = infonce_plus(b, InfoNCEPlusParams(lam, 0.0))
        assert np.all(ev.d_pos == -1.0)
        assert np.allclose(ev.d_unlabeled, lam / 2)
        assert np.allclose(ev.value, -pos + lam * LOG2)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            InfoNCEPlusParams(lambda_=-0.1)
        with pytest.raises(ValueError):
            InfoNCEPlusParams(epsilon=-0.1)


class TestMine:
    @pytest.mark.parametrize("n", [2, 8])
    def test_equal_scores_log_n(self, n):
        assert mine(bundle(0.7, [0.7] * n)).value == pytest.approx(math.log(n))

    def test_equals_infonce_plus_zero_epsilon(self, rng):
        p = InfoNCEPlusParams(1.0, 0.0)
        for _ in range(20):
            b = random_bundle(rng)
            assert abs(mine(b).value - infonce_plus(b, p).value) < 1e-12

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


class TestCCL:
    def test_perfect_separation(self):
        p = CCLParams(negative_weight=1.0, margin=0.9)
        assert ccl(bundle(1.0, [0.5, -0.3]), p).value == 0.0

    def test_closed_form_example(self):
        p = CCLParams(negative_weight=1.0, margin=0.9)
        ev = ccl(bundle(0.5, [0.95, 0.2]), p)
        assert ev.value == pytest.approx(0.525)

    def test_kink_subgradient_zero(self):
        p = CCLParams(negative_weight=2.0, margin=0.4)
        ev = ccl(bundle(0.5, [0.4, 0.6]), p)
        assert ev.d_unlabeled[0] == 0.0
        assert ev.d_unlabeled[1] == pytest.approx(1.0)  # w / N = 2 / 2

    def test_margin_range_enforced(self):
        with pytest.raises(ValueError):
            CCLParams(margin=1.5)
        with pytest.raises(ValueError):
            CCLParams(negative_weight=-1.0)


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
        ev = debiased_ccl(b, CCLParams(margin=0.0), DebiasParams(lambda_n=1.0), 0.5)
        assert ev.value == pytest.approx(0.25)

    def test_zero_prior_matches_ccl_negative_term(self, rng):
        p = CCLParams(negative_weight=0.7, margin=0.2)
        d = DebiasParams(lambda_n=0.7)
        for _ in range(10):
            b = random_bundle(rng, m=2, low=-1, high=1)
            got = debiased_ccl(b, CCLParams(margin=0.2), d, tau_plus=0.0)
            ref = ccl(b, p)
            # with tau=0 the positive term drops; the hinge terms coincide
            assert got.value == pytest.approx(ref.value - (1 - float(b.pos_score)), abs=1e-12)

    def test_value_may_go_negative(self):
        b = bundle(1.0, [-1.0], [0.9])
        ev = debiased_ccl(b, CCLParams(margin=0.0), DebiasParams(lambda_n=1.0), 0.5)
        assert ev.value < 0.0

    def test_floor_at_zero_flag(self):
        b = bundle(1.0, [-1.0], [0.9])
        ev = debiased_ccl(
            b, CCLParams(margin=0.0), DebiasParams(lambda_n=1.0), 0.5,
            floor_at_zero=True,
        )
        assert ev.value == pytest.approx(0.0)
        assert np.all(ev.d_unlabeled == 0.0)
        assert np.all(ev.d_extra_pos == 0.0)

    def test_missing_extra_positives_rejected(self, rng):
        with pytest.raises(ValueError, match="biased"):
            debiased_ccl(random_bundle(rng), CCLParams(), DebiasParams(), 0.3)


class TestDebiasedMSE:
    def test_zero_prior_keeps_unlabeled_term(self):
        b = bundle(0.3, [0.5, 0.1], [0.2])
        ev = debiased_mse(b, DebiasParams(), tau_plus=0.0, lambda_=2.0)
        assert ev.value == pytest.approx(2.0 * (0.25 + 0.01) / 2)

    def test_full_prior_cancellation(self, rng):
        for _ in range(10):
            unl = rng.uniform(-1, 1, size=4)
            b = ScoreBundle(rng.uniform(-1, 1), unl, unl.copy())
            ev = debiased_mse(b, DebiasParams(), tau_plus=1.0)
            assert ev.value == pytest.approx((1 - float(b.pos_score)) ** 2, abs=1e-12)
            assert ev.d_unlabeled + ev.d_extra_pos == pytest.approx(np.zeros(4), abs=1e-12)

    def test_closed_form_example(self):
        b = bundle(1.0, [1.0], [1.0])
        assert debiased_mse(b, DebiasParams(), 0.5, 1.0).value == pytest.approx(0.5)

    def test_missing_extra_positives_rejected(self, rng):
        with pytest.raises(ValueError, match="biased"):
            debiased_mse(random_bundle(rng), DebiasParams(), 0.3)


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
        direct = infonce_plus(b, InfoNCEPlusParams(1.3, 0.2))
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
