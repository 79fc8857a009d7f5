"""Embedding model, chain-rule gradients, Adam, plateau schedule, fit loop."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from recloss import (
    DEBIASED_KINDS,
    LOSS_KINDS,
    LossEvaluation,
    OptimizerState,
    PlateauSchedule,
    SamplerConfig,
    ScoreBundle,
    ScoringModel,
    TrainConfig,
    TrainingDivergedError,
    TrainingHistory,
    adam_step,
    batch_objective,
    evaluate,
    evaluate_loss,
    fit,
    init_model,
    make_validation_split,
    train_epoch,
)
from recloss import mf
from recloss.mf import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, NORM_FLOOR, EpochRecord, GradBundle, _tau_vector, _unique,
)
from recloss import make_random_dataset
from conftest import build_dataset


class TestScoringModel:
    def test_dot_score(self):
        m = ScoringModel(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
        assert m.score_block(np.array([0]))[0, 0] == pytest.approx(1.0)

    def test_cosine_self_similarity(self):
        v = np.array([[0.3, -0.4]])
        m = ScoringModel(v, 5 * v, mode="cosine", temperature=0.5)
        assert m.score_block(np.array([0]))[0, 0] == pytest.approx(2.0)  # cos=1 scaled by 1/t

    def test_cosine_orthogonal(self):
        m = ScoringModel(np.array([[1.0, 0.0]]), np.array([[0.0, 7.0]]), mode="cosine")
        assert m.score_block(np.array([0]))[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_range(self, rng):
        m = ScoringModel(
            rng.normal(size=(4, 6)), rng.normal(size=(9, 6)),
            mode="cosine", temperature=0.4,
        )
        scores = m.score_block(np.arange(4))
        assert np.all(np.abs(scores) <= 1 / 0.4 + 1e-9)

    def test_score_block_matches_score_items(self, rng):
        for mode in ("dot", "cosine"):
            m = ScoringModel(rng.normal(size=(3, 5)), rng.normal(size=(7, 5)), mode=mode)
            block = m.score_block(np.array([0, 2]))
            U, V = m.user_embeddings[[0, 2]], m.item_embeddings
            if mode == "cosine":
                U = U / np.linalg.norm(U, axis=1, keepdims=True)
                V = V / np.linalg.norm(V, axis=1, keepdims=True)
            np.testing.assert_allclose(
                np.einsum("bd,kd->bk", U, V) / m.temperature, block, atol=1e-12
            )

    @pytest.mark.parametrize("temperature", [1.0, 0.07])
    def test_prepared_scores_match_score_block(self, rng, temperature):
        m = ScoringModel(rng.normal(size=(30, 8)), rng.normal(size=(50, 8)) * 3.0,
                         mode="cosine", temperature=temperature)
        m.user_embeddings[4] = 0.0
        m.item_embeddings[7] = 0.0
        prepared = m.for_ranking()
        assert prepared.mode == "dot"
        users = np.array([0, 4, 29, 11, 4])
        got, want = prepared.score_block(users), m.score_block(users)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the per-block formula this replaced divided the scores by ||v|| * t
        U = m.user_embeddings[users]
        un = U / np.maximum(np.linalg.norm(U, axis=1, keepdims=True), NORM_FLOOR)
        norms = np.maximum(np.linalg.norm(m.item_embeddings, axis=1), NORM_FLOOR)
        old = (un @ m.item_embeddings.T) / (norms * temperature)
        assert np.max(np.abs(got - old)) <= 1e-14 * np.max(np.abs(old))

    def test_dot_model_ranks_as_itself(self, rng):
        m = ScoringModel(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        assert m.for_ranking() is m

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_evaluate_leaves_the_model_unchanged(self, mode):
        ds = make_random_dataset(60, 300, 0.05, seed=2)
        model = init_model(60, 300, 8, seed=3, mode=mode, temperature=0.2)
        arrays = (model.user_embeddings, model.item_embeddings)
        kept = [a.copy() for a in arrays]
        evaluate(model, ds, k=10)
        assert model.user_embeddings is arrays[0] and model.item_embeddings is arrays[1]
        for got, want in zip(arrays, kept):
            np.testing.assert_array_equal(got, want)
        assert (model.mode, model.temperature) == (mode, 0.2)

    def test_zero_norm_user_stays_finite(self):
        m = ScoringModel(np.zeros((1, 3)), np.ones((2, 3)), mode="cosine")
        assert np.all(np.isfinite(m.score_block(np.array([0]))))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ScoringModel(np.ones((1, 2)), np.ones((1, 2)), mode="euclid")

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ScoringModel(np.ones((1, 2)), np.ones((1, 3)))

    def test_copy_is_deep(self):
        m = ScoringModel(np.ones((1, 2)), np.ones((1, 2)))
        c = m.copy()
        c.user_embeddings[0, 0] = 5.0
        assert m.user_embeddings[0, 0] == 1.0


class TestInitModel:
    def test_deterministic(self):
        a = init_model(5, 7, 3, seed=4)
        b = init_model(5, 7, 3, seed=4)
        assert np.array_equal(a.user_embeddings, b.user_embeddings)
        assert np.array_equal(a.item_embeddings, b.item_embeddings)

    def test_seeds_differ(self):
        a = init_model(5, 7, 3, seed=1)
        b = init_model(5, 7, 3, seed=2)
        assert not np.array_equal(a.user_embeddings, b.user_embeddings)

    def test_moments(self):
        m = init_model(200, 200, 50, seed=0, init_std=0.01)
        flat = np.concatenate([m.user_embeddings.ravel(), m.item_embeddings.ravel()])
        assert abs(flat.mean()) < 3 * 0.01 / math.sqrt(flat.size)
        assert flat.std() == pytest.approx(0.01, rel=0.05)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_model(2, 2, 0)
        with pytest.raises(ValueError):
            init_model(2, 2, 4, init_std=0.0)


FD_CASES = [
    ("bpr", {}, "dot", 1.0, 0.0, 2, 0),
    ("infonce", {}, "dot", 1.0, 0.0, 3, 0),
    ("mse", {"lambda_neg": 0.5}, "dot", 1.0, 0.1, 2, 0),
    ("mine_plus", {"lambda": 1.1}, "cosine", 0.4, 0.0, 3, 0),
    ("ccl", {"negative_weight": 0.8, "margin": 0.1}, "cosine", 0.5, 0.0, 3, 0),
    ("debiased_infonce", {"lambda_n": 1.2}, "cosine", 0.5, 0.0, 3, 2),
    ("debiased_ccl", {"lambda_n": 0.9, "margin": 0.05}, "cosine", 0.5, 0.3, 3, 2),
    ("debiased_mse", {"lambda": 0.7}, "cosine", 0.5, 0.2, 3, 2),
]


class TestBatchObjectiveGradients:
    """Central differences over every touched embedding entry."""

    @pytest.mark.parametrize("kind,params,mode,t,l2,n_neg,m_pos", FD_CASES)
    def test_matches_finite_differences(self, kind, params, mode, t, l2, n_neg, m_pos):
        rng = np.random.default_rng(3)
        model = ScoringModel(
            rng.normal(0, 0.5, size=(4, 5)), rng.normal(0, 0.5, size=(6, 5)),
            mode=mode, temperature=t,
        )
        users = np.array([0, 1, 1, 3])
        pos = np.array([2, 0, 5, 1])
        negs = rng.integers(0, 6, size=(4, n_neg))
        extras = rng.integers(0, 6, size=(4, m_pos)) if m_pos else None
        tau = np.full(4, 0.3) if kind.startswith("debiased") else None

        grads = batch_objective(model, users, pos, negs, extras, kind, params, tau, l2)

        def objective(m):
            return batch_objective(m, users, pos, negs, extras, kind, params, tau, l2).value

        h = 1e-6
        for rows, analytic, attr in (
            (grads.user_rows, grads.user_grads, "user_embeddings"),
            (grads.item_rows, grads.item_grads, "item_embeddings"),
        ):
            for idx, r in enumerate(rows):
                for c in range(model.d):
                    up, dn = model.copy(), model.copy()
                    getattr(up, attr)[r, c] += h
                    getattr(dn, attr)[r, c] -= h
                    fd = (objective(up) - objective(dn)) / (2 * h)
                    a = analytic[idx, c]
                    denom = max(abs(a), abs(fd), 1e-2)
                    assert abs(a - fd) / denom < 1e-4, (kind, attr, r, c)

    def test_duplicate_rows_accumulate(self, rng):
        # same user twice in a batch: gradient equals the sum of singles
        model = ScoringModel(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        users = np.array([0, 0])
        pos = np.array([1, 2])
        negs = np.array([[3], [0]])
        both = batch_objective(model, users, pos, negs, None, "bpr")
        g_sum = np.zeros(3)
        for i in range(2):
            g = batch_objective(model, users[i:i + 1], pos[i:i + 1], negs[i:i + 1], None, "bpr")
            g_sum += g.user_grads[0]
        np.testing.assert_allclose(both.user_grads[0], g_sum / 2, atol=1e-12)

    def test_l2_term_value(self, rng):
        model = ScoringModel(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        users, pos, negs = np.array([0]), np.array([1]), np.array([[2]])
        plain = batch_objective(model, users, pos, negs, None, "bpr", l2_weight=0.0)
        reg = batch_objective(model, users, pos, negs, None, "bpr", l2_weight=0.5)
        rows = np.concatenate([
            model.user_embeddings[[0]], model.item_embeddings[[1, 2]]
        ])
        expected = 0.5 * np.sum(rows**2) / 3
        assert reg.value - plain.value == pytest.approx(expected, abs=1e-12)


def _reference_scores(model, users, items):
    """Scores y (B,K) plus dense dy/dU and dy/dV (B,K,d), one Jacobian per score."""
    U = model.user_embeddings[users]
    V = model.item_embeddings[items]
    if model.mode == "dot":
        return np.einsum("bd,bkd->bk", U, V), V, np.broadcast_to(U[:, None, :], V.shape)

    def unit(x):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        clamped = np.maximum(norms, NORM_FLOOR)
        return x / clamped, clamped, norms <= NORM_FLOOR

    t = model.temperature
    un, cu, small_u = unit(U)
    vn, cv, small_v = unit(V)
    cos = np.einsum("bd,bkd->bk", un, vn)
    du = (vn - cos[..., None] * un[:, None, :]) / (t * cu[:, None, :])
    du = np.where(small_u[:, None, :], vn / (t * NORM_FLOOR), du)
    dv = (un[:, None, :] - cos[..., None] * vn) / (t * cv)
    dv = np.where(small_v, un[:, None, :] / (t * NORM_FLOOR), dv)
    return cos / t, du, dv


def reference_batch_objective(model, users, pos_items, neg_items, extra_items,
                              kind, loss_params=None, tau_plus=None, l2_weight=0.0):
    """The per-score-Jacobian chain rule with an np.add.at scatter: slow, plain."""
    b, d = len(users), model.d
    parts = []
    for items in (pos_items[:, None], neg_items, extra_items):
        if items is None:
            items = np.empty((b, 0), dtype=int)
        parts.append((items, *_reference_scores(model, users, items)))
    (pos, y_pos, du_pos, dv_pos), (neg, y_neg, du_neg, dv_neg), (ext, y_ext, du_ext, dv_ext) = parts
    ev = evaluate_loss(kind, ScoreBundle(y_pos[:, 0], y_neg, y_ext), loss_params, tau_plus=tau_plus,
                       temperature=model.temperature)
    d_pos = np.asarray(ev.d_pos).reshape(b, 1)
    d_unl = np.asarray(ev.d_unlabeled).reshape(b, -1)
    d_ext = np.asarray(ev.d_extra_pos).reshape(b, -1)

    user_contrib = (
        np.einsum("bk,bkd->bd", d_pos, du_pos)
        + np.einsum("bk,bkd->bd", d_unl, du_neg)
        + np.einsum("bk,bkd->bd", d_ext, du_ext)
    ) / b
    uniq_u, inv_u = np.unique(users, return_inverse=True)
    gu = np.zeros((len(uniq_u), d))
    np.add.at(gu, inv_u, user_contrib)

    flat_items = np.concatenate([pos.ravel(), neg.ravel(), ext.ravel()])
    flat_grads = np.concatenate([
        (d_pos[..., None] * dv_pos).reshape(-1, d),
        (d_unl[..., None] * dv_neg).reshape(-1, d),
        (d_ext[..., None] * dv_ext).reshape(-1, d),
    ]) / b
    uniq_i, inv_i = np.unique(flat_items, return_inverse=True)
    gi = np.zeros((len(uniq_i), d))
    np.add.at(gi, inv_i, flat_grads)

    value = float(np.mean(ev.value))
    if l2_weight > 0:
        n_rows = len(uniq_u) + len(uniq_i)
        u_rows = model.user_embeddings[uniq_u]
        i_rows = model.item_embeddings[uniq_i]
        value += l2_weight * (np.sum(u_rows**2) + np.sum(i_rows**2)) / n_rows
        gu += (2.0 * l2_weight / n_rows) * u_rows
        gi += (2.0 * l2_weight / n_rows) * i_rows
    return GradBundle(value, uniq_u, gu, uniq_i, gi)


# debiased_infonce's clamp binds on one row of this batch at the model's t = 0.5
# (and on two at t = 1, so an oracle clamping at another t disagrees)
CLAMP_CASE = ("debiased_infonce", {"lambda_n": 1.2}, "cosine", 4, 1, False)

ORACLE_CASES = [
    # kind, params, mode, n_neg, m_pos, shared negatives
    ("bpr", {}, "dot", 4, 0, False),
    ("infonce", {}, "dot", 5, 0, True),
    ("mse", {"lambda_neg": 0.5}, "dot", 4, 0, False),
    ("mse", {"lambda_neg": 0.5}, "cosine", 5, 0, False),
    ("mine_plus", {"lambda": 1.1}, "cosine", 6, 0, False),
    ("mine_plus", {"lambda": 1.2}, "cosine", 6, 0, True),
    ("ccl", {"negative_weight": 0.8, "margin": 0.1}, "cosine", 5, 0, False),
    ("debiased_infonce", {"lambda_n": 1.2}, "cosine", 5, 3, False),
    ("debiased_infonce", {"lambda_n": 1.2}, "dot", 5, 3, True),
    ("debiased_ccl", {"lambda_n": 0.9, "margin": 0.05}, "cosine", 6, 3, False),
    ("debiased_mse", {"lambda": 0.7}, "dot", 4, 2, False),
    CLAMP_CASE,
]


def oracle_batch(mode, n_neg, m_pos, shared):
    """An ORACLE_CASES model and batch: (model, users, pos, negs, extras)."""
    rng = np.random.default_rng(11)
    model = ScoringModel(
        rng.normal(0, 0.5, size=(7, 5)), rng.normal(0, 0.5, size=(9, 5)),
        mode=mode, temperature=0.5,
    )
    # rows below the norm floor: zero, and nonzero but shorter than NORM_FLOOR
    model.user_embeddings[2] = 0.0
    model.user_embeddings[4] *= 1e-14
    model.item_embeddings[3] = 0.0
    model.item_embeddings[5] *= 1e-14
    users = np.array([0, 1, 1, 2, 4, 0, 6, 1])
    b = len(users)
    pos = np.array([3, 0, 5, 1, 3, 3, 8, 2])
    negs = None
    if n_neg:
        negs = rng.integers(0, 9, size=(1 if shared else b, n_neg))
        negs[0, 0] = negs[0, 1] = 3  # repeated within a row and shared with pos
        negs = np.repeat(negs, b, axis=0) if shared else negs
    extras = np.column_stack([pos, rng.integers(0, 9, size=(b, m_pos - 1))]) if m_pos else None
    return model, users, pos, negs, extras


# the positive prior of the debiased ORACLE_CASES
ORACLE_TAU = 0.2


class TestBatchObjectiveMatchesReference:
    """The factored chain rule against the per-score Jacobians it replaced."""

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("kind,params,mode,n_neg,m_pos,shared", ORACLE_CASES)
    def test_agrees_with_jacobian_chain_rule(self, kind, params, mode, n_neg, m_pos, shared, l2):
        model, users, pos, negs, extras = oracle_batch(mode, n_neg, m_pos, shared)
        tau = np.full(len(users), ORACLE_TAU) if kind.startswith("debiased") else None

        got = batch_objective(model, users, pos, negs, extras, kind, params, tau, l2)
        ref = reference_batch_objective(model, users, pos, negs, extras, kind, params, tau, l2)

        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(got.user_rows, ref.user_rows)
        np.testing.assert_array_equal(got.item_rows, ref.item_rows)
        for g, r in ((got.user_grads, ref.user_grads), (got.item_grads, ref.item_grads)):
            assert np.all(np.isfinite(r))
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    def test_clamp_binds_in_its_case(self):
        # debiased_infonce's clamped mask, g < exp(-1/t), from the oracle's scores
        _, _, mode, n_neg, m_pos, shared = CLAMP_CASE
        model, users, pos, negs, extras = oracle_batch(mode, n_neg, m_pos, shared)
        y_neg, y_ext = (_reference_scores(model, users, items)[0] for items in (negs, extras))
        g = (np.exp(y_neg).mean(axis=1) - ORACLE_TAU * np.exp(y_ext).mean(axis=1)) / (1 - ORACLE_TAU)
        clamped = g < np.exp(-1.0 / model.temperature)
        assert clamped.any()
        assert not np.array_equal(clamped, g < np.exp(-1.0))

    def test_peak_memory_has_no_per_score_jacobians(self):
        # the dense Jacobians alone are 2 * B*K*d floats; one gathered (B, K, d)
        # item tensor for scoring is all the factored pass may hold
        rng = np.random.default_rng(5)
        b, n, d = 256, 100, 64
        model = ScoringModel(rng.normal(size=(300, d)), rng.normal(size=(1000, d)),
                             mode="cosine", temperature=0.4)
        users = rng.integers(0, 300, size=b)
        pos = rng.integers(0, 1000, size=b)
        negs = rng.integers(0, 1000, size=(b, n))
        tracemalloc.start()
        try:
            batch_objective(model, users, pos, negs, None, "mine_plus", {"lambda": 1.2})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * b * (1 + n) * d * 8

    def test_peak_memory_stays_below_a_quarter_of_the_gathered_block(self):
        # scoring in GATHER_BUDGET chunks: no (B, K, d) gather is ever whole
        rng = np.random.default_rng(5)
        b, n, d = 256, 800, 64
        model = ScoringModel(rng.normal(size=(300, d)), rng.normal(size=(1000, d)),
                             mode="cosine", temperature=0.4)
        users = rng.integers(0, 300, size=b)
        pos = rng.integers(0, 1000, size=b)
        negs = rng.integers(0, 1000, size=(b, n))
        tracemalloc.start()
        try:
            batch_objective(model, users, pos, negs, None, "mine_plus", {"lambda": 1.2})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * b * (1 + n) * d * 8


CHUNK_CASES = [
    ("mine_plus", {"lambda": 1.1}, "cosine", 6, 0),
    ("debiased_ccl", {"lambda_n": 0.9, "margin": 0.05}, "cosine", 6, 3),
    ("bpr", {}, "dot", 4, 0),
]


class TestChunkedScoring:
    """Any chunk size scores the batch as the per-score reference does."""

    # 1 byte: one row per chunk; "3 rows": chunks of 3, 3 and 2; 1 GB: one chunk
    @pytest.mark.parametrize("budget", [1, "3 rows", 1 << 30])
    @pytest.mark.parametrize("kind,params,mode,n_neg,m_pos", CHUNK_CASES)
    def test_any_chunk_size_matches_reference(self, monkeypatch, kind, params, mode, n_neg,
                                              m_pos, budget):
        rng = np.random.default_rng(17)
        model = ScoringModel(rng.normal(0, 0.5, size=(7, 5)), rng.normal(0, 0.5, size=(9, 5)),
                             mode=mode, temperature=0.5)
        b = 8  # not a multiple of 3
        users = rng.integers(0, 7, size=b)
        pos = rng.integers(0, 9, size=b)
        negs = rng.integers(0, 9, size=(b, n_neg))
        extras = np.column_stack([pos, rng.integers(0, 9, size=(b, m_pos - 1))]) if m_pos else None
        tau = np.full(b, 0.2) if kind.startswith("debiased") else None
        if budget == "3 rows":
            budget = 3 * (1 + n_neg + m_pos) * model.d * 8
        monkeypatch.setattr(mf, "GATHER_BUDGET", budget)

        got = batch_objective(model, users, pos, negs, extras, kind, params, tau, 0.1)
        ref = reference_batch_objective(model, users, pos, negs, extras, kind, params, tau, 0.1)

        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(got.user_rows, ref.user_rows)
        np.testing.assert_array_equal(got.item_rows, ref.item_rows)
        for g, r in ((got.user_grads, ref.user_grads), (got.item_grads, ref.item_grads)):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())


def _sparse_builds(monkeypatch) -> list:
    """Wrap scipy.sparse.csr_array, which batch_objective imports in its
    sparse branch, so each sparse matrix it builds appends to the returned
    list: empty after a call means the dense block."""
    built = []
    original = sparse.csr_array

    def csr_array(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sparse, "csr_array", csr_array)
    return built


# DENSE_BLOCK_FACTOR values that force each side of the rule
SIDES = {"dense": math.inf, "sparse": 0}


class TestDenseBlockRule:
    """Both sides of the dense-block rule against the per-score reference,
    and the side the rule picks for the benchmark's batch shapes."""

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("kind,params,mode,n_neg,m_pos,shared", ORACLE_CASES)
    def test_oracle_cases_on_each_side(self, monkeypatch, kind, params, mode, n_neg, m_pos,
                                       shared, l2, side):
        monkeypatch.setattr(mf, "DENSE_BLOCK_FACTOR", SIDES[side])
        built = _sparse_builds(monkeypatch)
        TestBatchObjectiveMatchesReference().test_agrees_with_jacobian_chain_rule(
            kind, params, mode, n_neg, m_pos, shared, l2)
        assert bool(built) == (side == "sparse")

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("budget", [1, "3 rows", 1 << 30])
    @pytest.mark.parametrize("kind,params,mode,n_neg,m_pos", CHUNK_CASES)
    def test_chunk_cases_on_each_side(self, monkeypatch, kind, params, mode, n_neg, m_pos,
                                      budget, side):
        monkeypatch.setattr(mf, "DENSE_BLOCK_FACTOR", SIDES[side])
        built = _sparse_builds(monkeypatch)
        TestChunkedScoring().test_any_chunk_size_matches_reference(
            monkeypatch, kind, params, mode, n_neg, m_pos, budget)
        assert bool(built) == (side == "sparse")

    @staticmethod
    def _batch(num_users, num_items, n_neg, mode, b=512):
        rng = np.random.default_rng(23)
        model = ScoringModel(rng.normal(size=(num_users, 64)), rng.normal(size=(num_items, 64)),
                             mode=mode, temperature=0.4)
        users = rng.integers(0, num_users, size=b)
        pos = rng.integers(0, num_items, size=b)
        negs = rng.integers(0, num_items, size=(b, n_neg))
        n_u = len(np.unique(users))
        n_i = len(np.unique(np.concatenate([pos, negs.ravel()])))
        return model, users, pos, negs, n_u * n_i / (b * (1 + n_neg))

    def test_narrow_catalog_takes_the_dense_block(self, monkeypatch):
        # train-contrastive's shape: 300 users x 1,000 items, N = 200
        model, users, pos, negs, ratio = self._batch(300, 1000, 200, "cosine")
        assert ratio < 3
        built = _sparse_builds(monkeypatch)
        batch_objective(model, users, pos, negs, None, "mine_plus", {"lambda": 1.2})
        assert not built

    def test_wide_catalog_keeps_the_sparse_products(self, monkeypatch):
        # bpr-wide's shape: 96 users x 40,981 items, N = 10
        model, users, pos, negs, ratio = self._batch(96, 40_981, 10, "dot")
        assert ratio > 40
        built = _sparse_builds(monkeypatch)
        batch_objective(model, users, pos, negs, None, "bpr")
        assert built

    def test_dense_peak_at_the_rule_edge(self, monkeypatch):
        # a block just inside the rule, about 4 B*K entries: the loss and the
        # chain rule hold about 11 (B, K) arrays on either side, the block
        # DENSE_BLOCK_FACTOR more
        model, users, pos, negs, ratio = self._batch(300, 1650, 200, "cosine")
        b, k = negs.shape[0], 1 + negs.shape[1]
        assert 3.5 < ratio <= mf.DENSE_BLOCK_FACTOR
        built = _sparse_builds(monkeypatch)
        tracemalloc.start()
        try:
            batch_objective(model, users, pos, negs, None, "mine_plus", {"lambda": 1.2},
                            l2_weight=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not built
        assert peak <= (12 + mf.DENSE_BLOCK_FACTOR) * b * k * 8

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kind,m_pos", [("mine_plus", 0), ("debiased_ccl", 1)])
    def test_empty_batch_is_refused_by_name(self, monkeypatch, kind, m_pos, side):
        monkeypatch.setattr(mf, "DENSE_BLOCK_FACTOR", SIDES[side])
        built = _sparse_builds(monkeypatch)
        model = ScoringModel(np.ones((4, 2)), np.ones((7, 2)), mode="cosine")
        extras = np.zeros((0, m_pos), dtype=int) if m_pos else None
        with pytest.raises(ValueError, match=r"^batch_objective got an empty batch"):
            batch_objective(model, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                            np.zeros((0, 2), dtype=int), extras, kind, tau_plus=np.zeros(0))
        assert not built


class TestDebiasingIdentityThroughTheBatch:
    """test_losses.py's TestDebiasingIdentity through batch_objective: one user,
    the whole catalog of n items as the N = n negatives, the user's p positives
    as the M = p extras and tau+ = p / n, with no L2 term, the clamp and the
    floor off, and debiased_infonce at lambda_n = n - p.  Each positive's
    unlabeled and extra partials then cancel, so every positive item row but
    the pair's own positive gets zero gradient, on either side of the rule."""

    PARAMS = {
        "debiased_infonce": lambda n, p: {"lambda_n": float(n - p), "clamp_floor": False},
        "debiased_ccl": lambda n, p: {"lambda_n": 0.7, "margin": 0.2, "floor_at_zero": False},
        "debiased_mse": lambda n, p: {"lambda": 0.7},
    }

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    @pytest.mark.parametrize("kind", PARAMS)
    def test_other_positives_get_no_gradient(self, monkeypatch, kind, mode, side):
        monkeypatch.setattr(mf, "DENSE_BLOCK_FACTOR", SIDES[side])
        built = _sparse_builds(monkeypatch)
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(3, 60))
            positives = np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
            i = int(rng.choice(positives))
            model = ScoringModel(rng.normal(size=(1, 4)), rng.normal(size=(n, 4)), mode=mode,
                                 temperature=0.5)
            p = len(positives)
            grads = batch_objective(model, np.array([0]), np.array([i]), np.arange(n)[None],
                                    positives[None], kind, self.PARAMS[kind](n, p),
                                    tau_plus=np.array([p / n]))
            assert np.array_equal(grads.item_rows, np.arange(n))
            others = grads.item_grads[np.setdiff1d(positives, [i])]
            assert np.abs(others).max(initial=0.0) <= 1e-12 * np.abs(grads.item_grads).max()
        assert bool(built) == (side == "sparse")


# the kinds whose kernels score no extra positives
PLAIN_KINDS = [kind for kind in LOSS_KINDS if kind not in DEBIASED_KINDS]


class TestExtrasRefused:
    """Extra positives reach only the kinds that score them."""

    @pytest.mark.parametrize("num_items, side", [(7, "dense"), (5000, "sparse")])
    @pytest.mark.parametrize("kind", PLAIN_KINDS)
    def test_batch_objective_refuses_extras_before_scoring(self, monkeypatch, kind, num_items,
                                                           side):
        built = _sparse_builds(monkeypatch)
        rng = np.random.default_rng(5)
        model = ScoringModel(rng.normal(size=(8, 4)), rng.normal(size=(num_items, 4)))
        users = np.arange(8)
        items = np.arange(40).reshape(8, 5) % num_items
        pos, negs, extras = items[:, 0], items[:, 1:3], items[:, 3:]
        with pytest.raises(ValueError, match=rf"^batch_objective got extra_items for '{kind}'"):
            batch_objective(model, users, pos, negs, extras, kind)
        assert not built
        # the same batch without extras scores on the side named
        assert np.isfinite(batch_objective(model, users, pos, negs, None, kind).value)
        assert bool(built) == (side == "sparse")

    @pytest.mark.parametrize("kind", PLAIN_KINDS)
    def test_train_config_refuses_extra_positives(self, kind):
        with pytest.raises(ValueError, match=rf"^{kind} reads no extra positives; "
                                             r"set sampler\.m_positives to 0 \(got 1\)"):
            TrainConfig(loss=kind, sampler=SamplerConfig(m_positives=1))


class TestBatchIds:
    """Ids outside the model are refused, never wrapped or merged."""

    @pytest.mark.parametrize("bad", ["low", "high"])
    @pytest.mark.parametrize("arg", ["users", "positives", "negatives", "extras"])
    def test_out_of_range_id_names_its_argument(self, arg, bad):
        model = ScoringModel(np.ones((4, 2)), np.ones((7, 2)))
        batch = {
            "users": np.array([0, 3]),
            "positives": np.array([1, 2]),
            "negatives": np.array([[3, 4], [5, 6]]),
            "extras": np.array([[0], [6]]),
        }
        n = 4 if arg == "users" else 7
        value = -1 if bad == "low" else n
        batch[arg].flat[-1] = value
        with pytest.raises(ValueError, match=rf"^{arg} holds id {value}, outside the model's {n} "):
            batch_objective(model, batch["users"], batch["positives"], batch["negatives"],
                            batch["extras"], "debiased_ccl", tau_plus=np.full(2, 0.1))

    def test_boundary_ids_are_accepted(self):
        model = ScoringModel(np.ones((4, 2)), np.ones((7, 2)))
        g = batch_objective(model, np.array([0, 3]), np.array([0, 6]), np.array([[6], [0]]),
                            None, "bpr")
        np.testing.assert_array_equal(g.user_rows, [0, 3])
        np.testing.assert_array_equal(g.item_rows, [0, 6])


class TestUnique:
    """The marker-based unique against np.unique(return_inverse=True)."""

    @staticmethod
    def check(x, n):
        uniq, inv = _unique(x, n)
        ref_uniq, ref_inv = np.unique(x, return_inverse=True)
        np.testing.assert_array_equal(uniq, ref_uniq)
        np.testing.assert_array_equal(inv, np.reshape(ref_inv, np.shape(x)))
        np.testing.assert_array_equal(uniq[inv], x)

    @pytest.mark.parametrize("shape", [(50,), (12, 9)])
    def test_random(self, rng, shape):
        self.check(rng.integers(0, 40, size=shape), 40)

    @pytest.mark.parametrize("shape", [(6,), (3, 4)])
    def test_all_equal(self, shape):
        self.check(np.full(shape, 5), 9)

    def test_first_and_last_ids(self, rng):
        x = rng.integers(0, 30, size=(5, 7))
        x[0, 0], x[4, 6] = 0, 29
        self.check(x, 30)


def reference_adam_step(model, state, grads, lr):
    """The unfused lazy Adam update: three gathers each of m and v."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for rows, g, m, v, theta in (
        (grads.user_rows, grads.user_grads, state.m_user, state.v_user, model.user_embeddings),
        (grads.item_rows, grads.item_grads, state.m_item, state.v_item, model.item_embeddings),
    ):
        m[rows] = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * g
        v[rows] = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * g**2
        theta[rows] -= lr * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + ADAM_EPS)


class TestAdam:
    def test_matches_reference_bit_for_bit(self, rng):
        model = ScoringModel(rng.normal(size=(6, 4)), rng.normal(size=(9, 4)))
        ref_model = model.copy()
        state, ref_state = OptimizerState.for_model(model), OptimizerState.for_model(model)
        # rows touched, left alone and touched again across the steps
        steps = [([0, 2], [1, 4, 8]), ([2, 5], [0, 4]), ([0], [1, 8]), ([1, 2, 5], [4]),
                 ([0, 5], [0, 1, 2, 8])]
        for i, (u_rows, i_rows) in enumerate(steps):
            grads = GradBundle(0.0, np.array(u_rows), rng.normal(size=(len(u_rows), 4)),
                               np.array(i_rows), rng.normal(size=(len(i_rows), 4)) * 10.0**-i)
            kept = (grads.user_grads.copy(), grads.item_grads.copy())
            adam_step(model, state, grads, lr=0.05)
            reference_adam_step(ref_model, ref_state, grads, lr=0.05)
            np.testing.assert_array_equal(grads.user_grads, kept[0])
            np.testing.assert_array_equal(grads.item_grads, kept[1])
            for got, want in ((model.user_embeddings, ref_model.user_embeddings),
                              (model.item_embeddings, ref_model.item_embeddings),
                              (state.m_user, ref_state.m_user), (state.v_user, ref_state.v_user),
                              (state.m_item, ref_state.m_item), (state.v_item, ref_state.v_item)):
                np.testing.assert_array_equal(got, want)
            assert state.step == ref_state.step == i + 1

    def test_step_after_evaluate_is_unchanged(self):
        # a ranking pass leaves nothing behind that a later step reads
        ds = make_random_dataset(40, 200, 0.05, seed=4)
        model = init_model(40, 200, 6, seed=5, mode="cosine", temperature=0.3)
        ranked = model.copy()
        for m in (model, ranked):
            state = OptimizerState.for_model(m)
            for _ in range(3):
                if m is ranked:
                    evaluate(m, ds, k=10)
                grads = batch_objective(m, np.arange(10), np.arange(10, 20),
                                        np.arange(60).reshape(10, 6), None, "mine_plus")
                adam_step(m, state, grads, lr=0.05)
        np.testing.assert_array_equal(model.user_embeddings, ranked.user_embeddings)
        np.testing.assert_array_equal(model.item_embeddings, ranked.item_embeddings)

    def test_zero_gradient_is_noop(self):
        model = ScoringModel(np.ones((2, 3)), np.ones((4, 3)))
        state = OptimizerState.for_model(model)
        grads = GradBundle(
            0.0, np.array([0]), np.zeros((1, 3)), np.array([1]), np.zeros((1, 3))
        )
        adam_step(model, state, grads, lr=0.1)
        assert np.all(model.user_embeddings == 1.0)
        assert np.all(model.item_embeddings == 1.0)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        model = ScoringModel(np.zeros((1, 2)), np.zeros((1, 2)))
        state = OptimizerState.for_model(model)
        g = np.array([[0.25, -3.0]])
        grads = GradBundle(0.0, np.array([0]), g, np.array([0]), np.zeros((1, 2)))
        adam_step(model, state, grads, lr=0.1)
        expected = -0.1 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(model.user_embeddings, expected, rtol=1e-6)

    def test_untouched_rows_unchanged(self):
        model = ScoringModel(np.ones((3, 2)), np.ones((3, 2)))
        state = OptimizerState.for_model(model)
        grads = GradBundle(
            0.0, np.array([1]), np.ones((1, 2)), np.array([2]), np.ones((1, 2))
        )
        adam_step(model, state, grads, lr=0.5)
        assert np.all(model.user_embeddings[[0, 2]] == 1.0)
        assert np.all(model.item_embeddings[[0, 1]] == 1.0)
        assert np.all(model.user_embeddings[1] != 1.0)

    # 1 byte: one row per chunk; "3 rows": chunks of 3, 3, 3 and 1; 1 GB: one chunk
    @pytest.mark.parametrize("budget", [1, "3 rows", 1 << 30])
    def test_any_chunk_size_matches_reference(self, monkeypatch, rng, budget):
        d = 4
        if budget == "3 rows":
            budget = 3 * 4 * d * 8
        monkeypatch.setattr(mf, "GATHER_BUDGET", budget)
        model = ScoringModel(rng.normal(size=(12, d)), rng.normal(size=(15, d)))
        ref_model = model.copy()
        state, ref_state = OptimizerState.for_model(model), OptimizerState.for_model(model)
        # unsorted rows, touched, left alone and touched again on both sides
        steps = [([7, 0, 11, 3, 5, 2, 9], [14, 2, 8, 0, 13, 5, 11, 6, 1, 9]),
                 ([3, 10, 1], [6, 14, 3, 12]), ([11, 7, 0, 3, 8], [0, 8, 7, 14, 2, 9, 4])]
        for u_rows, i_rows in steps:
            grads = GradBundle(0.0, np.array(u_rows), rng.normal(size=(len(u_rows), d)),
                               np.array(i_rows), rng.normal(size=(len(i_rows), d)))
            adam_step(model, state, grads, lr=0.05)
            reference_adam_step(ref_model, ref_state, grads, lr=0.05)
            for got, want in ((model.user_embeddings, ref_model.user_embeddings),
                              (model.item_embeddings, ref_model.item_embeddings),
                              (state.m_user, ref_state.m_user), (state.v_user, ref_state.v_user),
                              (state.m_item, ref_state.m_item), (state.v_item, ref_state.v_item)):
                np.testing.assert_array_equal(got, want)
        assert state.step == ref_state.step == len(steps)

    def test_peak_memory_is_one_workspace(self, rng):
        # 4 * GATHER_BUDGET bytes of touched item rows; a whole-block update
        # held three (rows x d) blocks, 12 x GATHER_BUDGET
        d = 64
        n_rows = 4 * mf.GATHER_BUDGET // (d * 8)
        model = ScoringModel(rng.normal(size=(10, d)), rng.normal(size=(n_rows + 100, d)))
        state = OptimizerState.for_model(model)
        grads = GradBundle(0.0, np.arange(10), rng.normal(size=(10, d)),
                           rng.permutation(n_rows + 100)[:n_rows], rng.normal(size=(n_rows, d)))
        tracemalloc.start()
        try:
            adam_step(model, state, grads, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * mf.GATHER_BUDGET


class TestAdamRejects:
    """A refused Adam step leaves the embeddings, m, v and the step count as they were."""

    def stepped(self, rng):
        # one real step first, so m and v hold values a stray write would change
        model = ScoringModel(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)))
        state = OptimizerState.for_model(model)
        adam_step(model, state, GradBundle(0.0, np.arange(4), rng.normal(size=(4, 3)),
                                           np.arange(6), rng.normal(size=(6, 3))), lr=0.1)
        return model, state

    @pytest.mark.parametrize("user_rows,item_rows,user_shape,item_shape,message", [
        ([-1], [0], (1, 3), (1, 3), r"^user_rows holds id -1, outside the model's 4 users"),
        ([0, 1], [2, 6], (2, 3), (2, 3), r"^item_rows holds id 6, outside the model's 6 items"),
        ([0, 2, 3], [1], (1, 3), (1, 3), r"^user_grads has shape \(1, 3\), expected \(3, 3\)"),
        ([1], [0, 4, 5], (1, 3), (3, 2), r"^item_grads has shape \(3, 2\), expected \(3, 3\)"),
        ([2, 0, 2], [1], (3, 3), (1, 3), r"^user_rows holds id 2 more than once"),
        ([0], [3, 1, 5, 1], (1, 3), (4, 3), r"^item_rows holds id 1 more than once"),
    ])
    def test_bad_step_changes_nothing(self, rng, user_rows, item_rows, user_shape, item_shape,
                                      message):
        model, state = self.stepped(rng)
        before = [a.copy() for a in (model.user_embeddings, model.item_embeddings,
                                     state.m_user, state.v_user, state.m_item, state.v_item)]
        grads = GradBundle(0.0, np.array(user_rows), rng.normal(size=user_shape),
                           np.array(item_rows), rng.normal(size=item_shape))
        with pytest.raises(ValueError, match=message):
            adam_step(model, state, grads, lr=0.1)
        after = (model.user_embeddings, model.item_embeddings,
                 state.m_user, state.v_user, state.m_item, state.v_item)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        assert state.step == 1


class TestPlateauSchedule:
    def test_flat_metric_halves_then_stops(self):
        sched = PlateauSchedule(1e-4, factor=0.5, patience=3, threshold=1e-4, min_lr=1e-6)
        epochs = 0
        while not sched.stopped:
            sched.observe(0.5)
            epochs += 1
            assert epochs < 100
        assert epochs == 22  # 1 improving epoch + 7 halvings * 3 patience
        assert sched.lr == pytest.approx(1e-4 * 0.5**7)

    def test_improvement_resets_patience(self):
        sched = PlateauSchedule(1e-2, factor=0.5, patience=2, threshold=1e-4, min_lr=1e-6)
        sched.observe(0.1)
        sched.observe(0.1)      # bad 1
        sched.observe(0.2)      # improvement clears the counter
        sched.observe(0.2)      # bad 1
        assert sched.lr == 1e-2
        sched.observe(0.2)      # bad 2 -> halve
        assert sched.lr == pytest.approx(5e-3)

    def test_threshold_filters_tiny_gains(self):
        sched = PlateauSchedule(1e-2, factor=0.5, patience=1, threshold=1e-4, min_lr=1e-6)
        sched.observe(0.5)
        sched.observe(0.5 + 1e-5)  # below threshold: counts as bad
        assert sched.lr == pytest.approx(5e-3)


class TestTrainingHistory:
    def test_lr_must_not_increase(self):
        h = TrainingHistory(k=20)
        h.append(EpochRecord(1, 1.0, 0.1, 0.1, 1e-3))
        with pytest.raises(ValueError, match="non-increasing"):
            h.append(EpochRecord(2, 0.9, 0.1, 0.1, 2e-3))

    def test_best_epoch(self):
        h = TrainingHistory(k=20)
        h.append(EpochRecord(1, 1.0, 0.1, 0.1, 1e-3))
        h.append(EpochRecord(2, 0.9, 0.3, 0.2, 1e-3))
        h.append(EpochRecord(3, 0.8, 0.2, 0.2, 5e-4))
        assert h.best_epoch().epoch == 2

    def test_csv_round_numbers(self, tmp_path):
        h = TrainingHistory(k=20)
        h.append(EpochRecord(1, 0.5, 0.25, 0.125, 1e-4))
        path = tmp_path / "history.csv"
        h.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,val_recall20,val_ndcg20,lr"
        assert lines[1] == "1,0.5,0.25,0.125,0.0001"


class TestTrainEpoch:
    def make_cfg(self, **kw):
        base = dict(
            embedding_dim=8, loss="bpr", batch_size=16, initial_lr=1e-2,
            seed=0, sampler=SamplerConfig(n_negatives=4),
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_loss_decreases(self):
        ds = make_random_dataset(20, 30, density=0.2, test_fraction=0.2, seed=1)
        cfg = self.make_cfg()
        model = init_model(ds.num_users, ds.num_items, cfg.embedding_dim, cfg.seed)
        state = OptimizerState.for_model(model)
        rng = np.random.default_rng(0)
        losses = [train_epoch(model, state, ds, cfg, rng) for _ in range(5)]
        assert losses[-1] < losses[0]

    def test_non_finite_loss_aborts(self, monkeypatch):
        def explode(kind, b, params=None, tau_plus=None, temperature=None):
            n = np.shape(b.pos_score)[0] if np.ndim(b.pos_score) else 1
            return LossEvaluation(
                value=np.full(n, np.inf),
                d_pos=np.zeros(n),
                d_unlabeled=np.zeros_like(b.unlabeled_scores),
                d_extra_pos=np.zeros_like(b.extra_pos_scores),
            )

        monkeypatch.setattr("recloss.mf.evaluate_loss", explode)
        ds = make_random_dataset(5, 8, density=0.3, seed=0)
        cfg = self.make_cfg()
        model = init_model(5, 8, 8)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train_epoch(model, OptimizerState.for_model(model), ds, cfg, np.random.default_rng(0))

    def test_non_finite_gradient_aborts_before_the_step(self, monkeypatch):
        def nan_partials(kind, b, params=None, tau_plus=None, temperature=None):
            n = np.shape(b.pos_score)[0]
            return LossEvaluation(
                value=np.ones(n),
                d_pos=np.full(n, np.nan),
                d_unlabeled=np.zeros_like(b.unlabeled_scores),
                d_extra_pos=np.zeros_like(b.extra_pos_scores),
            )

        monkeypatch.setattr("recloss.mf.evaluate_loss", nan_partials)
        ds = make_random_dataset(5, 8, density=0.3, seed=0)
        cfg = self.make_cfg()
        model = init_model(5, 8, 8)
        before = model.copy()
        with pytest.raises(TrainingDivergedError, match=r"gradient.*batch 0 with lr 0\.01"):
            train_epoch(model, OptimizerState.for_model(model), ds, cfg, np.random.default_rng(0))
        assert np.array_equal(model.user_embeddings, before.user_embeddings)
        assert np.array_equal(model.item_embeddings, before.item_embeddings)

    def test_mse_trains_on_the_clis_default_sampler(self):
        from recloss.config import resolve_config, train_config

        cfg = TrainConfig(embedding_dim=4, loss="mse", batch_size=8, initial_lr=1e-2)
        cli = train_config(resolve_config(overrides=["loss.kind=mse"]))
        assert cfg.sampler == cli.sampler == SamplerConfig()
        ds = make_random_dataset(6, 9, density=0.3, seed=2)
        model = init_model(6, 9, 4)
        loss = train_epoch(model, OptimizerState.for_model(model), ds, cfg, np.random.default_rng(0))
        assert math.isfinite(loss)
        # the trainer never passes batch_objective fewer than one negative per pair
        with pytest.raises(ValueError, match=r"^sampler must be a SamplerConfig, got None$"):
            TrainConfig(loss="mse", sampler=None)
        users = np.arange(3)
        for negs, got in ((None, "None"), (np.zeros((3, 0), dtype=int), r"\(3, 0\)")):
            with pytest.raises(ValueError, match=rf"^batch_objective needs neg_items, .* got {got}$"):
                batch_objective(model, users, users, negs, None, "mse")

    def test_single_cell_converges_to_its_optimum(self):
        # the one negative lands on the positive's cell, so (1 - y)^2 + lambda_neg * y^2
        # is least at y = 1 / (1 + lambda_neg)
        ds = build_dataset([[0]], [[]], 1)
        cfg = TrainConfig(embedding_dim=4, loss="mse", loss_params={"lambda_neg": 0.25},
                          batch_size=1, initial_lr=0.1)
        model = init_model(1, 1, 4, seed=0)
        state = OptimizerState.for_model(model)
        rng = np.random.default_rng(0)
        for _ in range(200):
            train_epoch(model, state, ds, cfg, rng)
        assert model.score_block(np.array([0]))[0, 0] == pytest.approx(1 / 1.25, abs=1e-2)

    def test_l2_shrinks_embedding_norms(self):
        ds = make_random_dataset(15, 20, density=0.25, seed=3)

        def norms_after(l2):
            cfg = self.make_cfg(l2_weight=l2, initial_lr=5e-2)
            model = init_model(ds.num_users, ds.num_items, 8, seed=0)
            state = OptimizerState.for_model(model)
            rng = np.random.default_rng(1)
            for _ in range(20):
                train_epoch(model, state, ds, cfg, rng)
            return np.linalg.norm(model.item_embeddings, axis=1).mean()

        assert norms_after(1.0) < norms_after(0.0)
        assert norms_after(1.0) < 10.0

    def test_tau_vector_matches_prior(self):
        from recloss import DebiasParams, positive_prior_all

        ds = make_random_dataset(8, 40, density=0.3, seed=4)
        cfg = TrainConfig(
            embedding_dim=4, loss="debiased_infonce",
            loss_params={"k": 5, "lambda_n": 2.0},
            sampler=SamplerConfig(n_negatives=4, m_positives=2),
            initial_lr=1e-3,
        )
        taus = _tau_vector(ds, cfg)
        ref = positive_prior_all(ds, DebiasParams(k=5, lambda_n=2.0))
        for u in range(ds.num_users):
            if len(ds.train_positives[u]):
                assert taus[u] == pytest.approx(ref[u])


class TestTrainConfig:
    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            TrainConfig(embedding_dim=4, loss="hinge")

    def test_lr_floor_ordering(self):
        with pytest.raises(ValueError, match="min_lr"):
            TrainConfig(embedding_dim=4, initial_lr=1e-7)

    def test_debiased_needs_extra_positives(self):
        with pytest.raises(ValueError, match="m_positives"):
            TrainConfig(embedding_dim=4, loss="debiased_ccl",
                        sampler=SamplerConfig(n_negatives=4))

    def test_debiased_infonce_clamps_at_model_temperature(self):
        # every score at -1/t = -2.5 lies above the floor exp(-1/t) of t = 0.4
        # but far below the floor e^-1 of a loss-side default t = 1
        cfg = TrainConfig(embedding_dim=4, loss="debiased_infonce", mode="cosine",
                          temperature=0.4, sampler=SamplerConfig(n_negatives=10, m_positives=3))
        b = ScoreBundle(-2.5, np.full(10, -2.5), np.full(3, -2.5))
        ev = evaluate_loss(cfg.loss, b, cfg.loss_params, tau_plus=0.05,
                           temperature=cfg.temperature)
        assert ev.d_unlabeled == pytest.approx(np.full(10, 1.0 / 19.0))

    def test_debiased_infonce_temperature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="train.temperature"):
            TrainConfig(embedding_dim=4, loss="debiased_infonce", temperature=0.4,
                        loss_params={"temperature": 0.5},
                        sampler=SamplerConfig(n_negatives=4, m_positives=2))

    def test_debiased_infonce_routes_agree_at_the_model_temperature(self):
        # three users on axes 0-2 of d = 8; each row's two negatives sit at
        # cosine -0.5 to its user and its positive, also its extra, at 0.3
        t, tau = 0.4, np.full(3, 0.05)
        items = []
        for r in range(3):
            for c, axis in ((-0.5, 3 + r), (-0.5, 6 + r % 2), (0.3, 3 + (r + 1) % 3)):
                items.append(c * np.eye(8)[r] + math.sqrt(1 - c * c) * np.eye(8)[axis])
        model = ScoringModel(2.0 * np.eye(8)[:3], np.array(items), mode="cosine", temperature=t)
        users, pos = np.arange(3), np.arange(3) * 3 + 2
        negs, extras = np.column_stack([pos - 2, pos - 1]), pos[:, None]
        # the corrected partition g binds the floor exp(-1/t) at t = 1, not at the model's t
        y = model.score_block(users)
        unl_mean = np.exp(np.take_along_axis(y, negs, 1)).mean(1)
        g = (unl_mean - tau * np.exp(y[users, pos])) / (1 - tau)
        assert np.all(g < math.exp(-1.0)) and np.all(g > math.exp(-1.0 / t))

        cfg = TrainConfig(embedding_dim=8, loss="debiased_infonce", loss_params={"lambda_n": 1.0},
                          mode="cosine", temperature=t,
                          sampler=SamplerConfig(n_negatives=2, m_positives=1))
        direct = batch_objective(model, users, pos, negs, extras, "debiased_infonce",
                                 {"lambda_n": 1.0}, tau)
        routed = batch_objective(model, users, pos, negs, extras, cfg.loss, cfg.loss_params, tau)
        unclamped = batch_objective(model, users, pos, negs, extras, "debiased_infonce",
                                    {"lambda_n": 1.0, "clamp_floor": False}, tau)
        for other in (routed, unclamped):
            assert direct.value == other.value
            assert np.array_equal(direct.user_grads, other.user_grads)
            assert np.array_equal(direct.item_grads, other.item_grads)

    @pytest.mark.parametrize("loss, key", [
        ("mine_plus", "lamda"),
        ("debiased_infonce", "temperature"),  # refused even when it agrees with the model's
    ])
    def test_key_the_kind_does_not_take_is_refused_by_name(self, loss, key):
        with pytest.raises(ValueError, match=f"parameter '{key}' is not valid for kind '{loss}'"):
            TrainConfig(embedding_dim=4, loss=loss, temperature=0.4, loss_params={key: 0.4},
                        sampler=SamplerConfig(n_negatives=4, m_positives=2))

    @pytest.mark.parametrize("loss, key, value, expected", [
        ("mine_plus", "lambda", "1.2", "float"),
        ("debiased_ccl", "floor_at_zero", 1, "bool"),
        ("debiased_ccl", "k", 2.5, "int"),
    ])
    def test_mistyped_param_is_refused_by_name(self, loss, key, value, expected):
        with pytest.raises(ValueError, match=f"'loss.params.{key}' must be {expected}, got"):
            TrainConfig(embedding_dim=4, loss=loss, loss_params={key: value},
                        sampler=SamplerConfig(n_negatives=4, m_positives=2))

    def test_int_param_accepted_for_float(self):
        cfg = TrainConfig(embedding_dim=4, loss="mine_plus", loss_params={"lambda": 1})
        assert cfg.loss_params == {"lambda": 1}

    def test_loss_params_left_as_given(self):
        params = {"lambda_n": 2.0}
        cfg = TrainConfig(embedding_dim=4, loss="debiased_infonce", temperature=0.4,
                          loss_params=params, sampler=SamplerConfig(n_negatives=4, m_positives=2))
        assert cfg.loss_params is params and params == {"lambda_n": 2.0}

    # each kind's default scoring mode; every kind but the debiased ones, which
    # need m_positives >= 1, trains on the default sampler when none is given
    DEFAULT_RULES = {
        "bpr": "dot", "softmax": "dot", "infonce": "dot", "infonce_plus": "dot", "dcl": "dot",
        "mine": "dot", "mine_plus": "cosine", "ccl": "cosine", "mse": "dot",
        "debiased_infonce": "dot", "debiased_ccl": "cosine", "debiased_mse": "dot",
    }

    def test_default_mode_and_sampler_of_every_kind(self):
        from recloss import DEBIASED_KINDS, LOSS_KINDS

        assert set(self.DEFAULT_RULES) == set(LOSS_KINDS)
        for kind, mode in self.DEFAULT_RULES.items():
            if kind in DEBIASED_KINDS:
                cfg = TrainConfig(embedding_dim=4, loss=kind, sampler=SamplerConfig(m_positives=2))
            else:
                cfg = TrainConfig(embedding_dim=4, loss=kind)
                assert cfg.sampler == SamplerConfig(), kind
            assert cfg.mode == mode, kind

    def test_every_field_has_a_default(self):
        cfg = TrainConfig()
        assert cfg.embedding_dim == 64 and cfg.sampler == SamplerConfig()

    @pytest.mark.parametrize("name", ["embedding_dim", "batch_size", "max_epochs", "eval_k"])
    def test_counts_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            TrainConfig(**{name: 0})

    def test_mode_defaults(self):
        assert TrainConfig(embedding_dim=4, loss="bpr").mode == "dot"
        assert TrainConfig(embedding_dim=4, loss="mine_plus").mode == "cosine"
        assert TrainConfig(embedding_dim=4, loss="ccl").mode == "cosine"
        assert TrainConfig(embedding_dim=4, loss="ccl", mode="dot").mode == "dot"


class TestFit:
    def small_ds(self):
        return make_random_dataset(25, 30, density=0.3, test_fraction=0.2, seed=6)

    def cfg(self, **kw):
        base = dict(
            embedding_dim=8, loss="bpr", batch_size=32, initial_lr=1e-2,
            max_epochs=6, seed=5, sampler=SamplerConfig(n_negatives=4),
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_end_to_end(self):
        ds = self.small_ds()
        m1, h1 = fit(ds, self.cfg())
        m2, h2 = fit(ds, self.cfg())
        assert np.array_equal(m1.user_embeddings, m2.user_embeddings)
        assert np.array_equal(m1.item_embeddings, m2.item_embeddings)
        assert [r.loss for r in h1.records] == [r.loss for r in h2.records]

    def test_returns_best_validation_snapshot(self):
        ds = self.small_ds()
        cfg = self.cfg()
        model, history = fit(ds, cfg)
        reduced, val = make_validation_split(ds, cfg.val_fraction, cfg.seed)
        best = history.best_epoch()
        res = evaluate(model, reduced, val, k=cfg.eval_k)
        assert len(history.records) == cfg.max_epochs and model.num_users == ds.num_users
        assert res.recall == pytest.approx(best.val_recall, abs=1e-12)
        assert best.val_recall == max(r.val_recall for r in history.records)

    @pytest.mark.parametrize("val_fraction, seed", [(0.2, 11), (0.4, 5)])
    def test_validation_split_follows_config(self, val_fraction, seed):
        # fit takes no validation lists; it holds out cfg.val_fraction drawn from cfg.seed
        ds = self.small_ds()
        cfg = self.cfg(max_epochs=2, val_fraction=val_fraction, seed=seed)
        model, history = fit(ds, cfg)
        reduced, val = make_validation_split(ds, val_fraction, seed)
        res = evaluate(model, reduced, val, k=cfg.eval_k)
        assert res.recall == pytest.approx(history.best_epoch().val_recall, abs=1e-12)
        with pytest.raises(TypeError, match="val_positives"):
            fit(ds, cfg, val_positives=val)

    def test_lr_non_increasing(self):
        ds = self.small_ds()
        _, history = fit(ds, self.cfg(max_epochs=10, plateau_patience=1))
        lrs = [r.lr for r in history.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
