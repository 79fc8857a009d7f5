"""Embedding model, chain-rule gradients, Adam, plateau schedule, fit loop."""

import math
import tracemalloc

import numpy as np
import pytest

from recloss import (
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
from recloss.mf import ADAM_EPS, NORM_FLOOR, EpochRecord, GradBundle, _tau_vector
from recloss import make_random_dataset
from conftest import build_dataset


class TestScoringModel:
    def test_dot_score(self):
        m = ScoringModel(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
        assert m.score(0, 0) == pytest.approx(1.0)

    def test_cosine_self_similarity(self):
        v = np.array([[0.3, -0.4]])
        m = ScoringModel(v, 5 * v, mode="cosine", temperature=0.5)
        assert m.score(0, 0) == pytest.approx(2.0)  # cos=1 scaled by 1/t

    def test_cosine_orthogonal(self):
        m = ScoringModel(np.array([[1.0, 0.0]]), np.array([[0.0, 7.0]]), mode="cosine")
        assert m.score(0, 0) == pytest.approx(0.0, abs=1e-12)

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
            items = np.tile(np.arange(7), (2, 1))
            np.testing.assert_allclose(
                m.score_items(np.array([0, 2]), items), block, atol=1e-12
            )

    def test_zero_norm_user_stays_finite(self):
        m = ScoringModel(np.zeros((1, 3)), np.ones((2, 3)), mode="cosine")
        assert np.all(np.isfinite(m.score_all(0)))

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
    ("debiased_infonce", {"lambda_n": 1.2, "temperature": 0.5}, "cosine", 0.5, 0.0, 3, 2),
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
    ev = evaluate_loss(kind, ScoreBundle(y_pos[:, 0], y_neg, y_ext), loss_params, tau_plus=tau_plus)
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


ORACLE_CASES = [
    # kind, params, mode, n_neg, m_pos, shared negatives
    ("bpr", {}, "dot", 4, 0, False),
    ("infonce", {}, "dot", 5, 0, True),
    ("mse", {"lambda_neg": 0.5}, "dot", 0, 0, False),
    ("mse", {"lambda_neg": 0.5}, "cosine", 0, 0, False),
    ("mine_plus", {"lambda": 1.1}, "cosine", 6, 0, False),
    ("mine_plus", {"lambda": 1.2}, "cosine", 6, 0, True),
    ("ccl", {"negative_weight": 0.8, "margin": 0.1}, "cosine", 5, 0, False),
    ("debiased_infonce", {"lambda_n": 1.2, "temperature": 0.5}, "cosine", 5, 3, False),
    ("debiased_infonce", {"lambda_n": 1.2}, "dot", 5, 3, True),
    ("debiased_ccl", {"lambda_n": 0.9, "margin": 0.05}, "cosine", 6, 3, False),
    ("debiased_mse", {"lambda": 0.7}, "dot", 4, 2, False),
]


class TestBatchObjectiveMatchesReference:
    """The factored chain rule against the per-score Jacobians it replaced."""

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("kind,params,mode,n_neg,m_pos,shared", ORACLE_CASES)
    def test_agrees_with_jacobian_chain_rule(self, kind, params, mode, n_neg, m_pos, shared, l2):
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
        tau = np.full(b, 0.2) if kind.startswith("debiased") else None

        got = batch_objective(model, users, pos, negs, extras, kind, params, tau, l2)
        ref = reference_batch_objective(model, users, pos, negs, extras, kind, params, tau, l2)

        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(got.user_rows, ref.user_rows)
        np.testing.assert_array_equal(got.item_rows, ref.item_rows)
        for g, r in ((got.user_grads, ref.user_grads), (got.item_grads, ref.item_grads)):
            assert np.all(np.isfinite(r))
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

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


class TestAdam:
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


class TestPlateauSchedule:
    def test_flat_metric_halves_then_stops(self):
        sched = PlateauSchedule(1e-4)
        epochs = 0
        while not sched.stopped:
            sched.observe(0.5)
            epochs += 1
            assert epochs < 100
        assert epochs == 22  # 1 improving epoch + 7 halvings * 3 patience
        assert sched.lr == pytest.approx(1e-4 * 0.5**7)

    def test_improvement_resets_patience(self):
        sched = PlateauSchedule(1e-2, patience=2)
        sched.observe(0.1)
        sched.observe(0.1)      # bad 1
        sched.observe(0.2)      # improvement clears the counter
        sched.observe(0.2)      # bad 1
        assert sched.lr == 1e-2
        sched.observe(0.2)      # bad 2 -> halve
        assert sched.lr == pytest.approx(5e-3)

    def test_threshold_filters_tiny_gains(self):
        sched = PlateauSchedule(1e-2, patience=1, threshold=1e-4)
        sched.observe(0.5)
        sched.observe(0.5 + 1e-5)  # below threshold: counts as bad
        assert sched.lr == pytest.approx(5e-3)


class TestTrainingHistory:
    def test_lr_must_not_increase(self):
        h = TrainingHistory()
        h.append(EpochRecord(1, 1.0, 0.1, 0.1, 1e-3))
        with pytest.raises(ValueError, match="non-increasing"):
            h.append(EpochRecord(2, 0.9, 0.1, 0.1, 2e-3))

    def test_best_epoch(self):
        h = TrainingHistory()
        h.append(EpochRecord(1, 1.0, 0.1, 0.1, 1e-3))
        h.append(EpochRecord(2, 0.9, 0.3, 0.2, 1e-3))
        h.append(EpochRecord(3, 0.8, 0.2, 0.2, 5e-4))
        assert h.best_epoch().epoch == 2

    def test_csv_round_numbers(self, tmp_path):
        h = TrainingHistory()
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
        def explode(kind, b, params=None, tau_plus=None):
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
        def nan_partials(kind, b, params=None, tau_plus=None):
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

    def test_mse_runs_without_sampler(self):
        ds = make_random_dataset(6, 9, density=0.3, seed=2)
        cfg = TrainConfig(embedding_dim=4, loss="mse", sampler=None,
                          batch_size=8, initial_lr=1e-2)
        assert cfg.sampler is None
        model = init_model(6, 9, 4)
        loss = train_epoch(model, OptimizerState.for_model(model), ds, cfg, np.random.default_rng(0))
        assert math.isfinite(loss)

    def test_single_cell_converges_to_one(self):
        ds = build_dataset([[0]], [[]], 1)
        cfg = TrainConfig(embedding_dim=4, loss="mse", sampler=None,
                          batch_size=1, initial_lr=0.1)
        model = init_model(1, 1, 4, seed=0)
        state = OptimizerState.for_model(model)
        rng = np.random.default_rng(0)
        for _ in range(200):
            train_epoch(model, state, ds, cfg, rng)
        assert model.score(0, 0) == pytest.approx(1.0, abs=1e-2)

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
        from recloss import DebiasParams, positive_prior

        ds = make_random_dataset(8, 40, density=0.3, seed=4)
        cfg = TrainConfig(
            embedding_dim=4, loss="debiased_infonce",
            loss_params={"k": 5, "lambda_n": 2.0},
            sampler=SamplerConfig(n_negatives=4, m_positives=2),
            initial_lr=1e-3,
        )
        taus = _tau_vector(ds, cfg)
        ref = DebiasParams(k=5, lambda_n=2.0)
        for u in range(ds.num_users):
            if len(ds.train_positives[u]):
                assert taus[u] == pytest.approx(positive_prior(ds, u, ref))


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
        ev = evaluate_loss(cfg.loss, b, cfg.loss_params, tau_plus=0.05)
        assert ev.d_unlabeled == pytest.approx(np.full(10, 1.0 / 19.0))

    def test_debiased_infonce_temperature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="train.temperature"):
            TrainConfig(embedding_dim=4, loss="debiased_infonce", temperature=0.4,
                        loss_params={"temperature": 0.5},
                        sampler=SamplerConfig(n_negatives=4, m_positives=2))

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
        assert res.recall == pytest.approx(best.val_recall20, abs=1e-12)
        assert best.val_recall20 == max(r.val_recall20 for r in history.records)

    def test_lr_non_increasing(self):
        ds = self.small_ds()
        _, history = fit(ds, self.cfg(max_epochs=10, plateau_patience=1))
        lrs = [r.lr for r in history.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_explicit_validation_lists(self):
        ds = self.small_ds()
        val = [np.array([0]) if len(t) else np.empty(0, dtype=np.int64)
               for t in ds.train_positives]
        # user 0's list may contain 0 already; build a clean holdout instead
        val = []
        for items in ds.train_positives:
            val.append(items[:1])
        stripped = [items[1:] for items in ds.train_positives]
        train_ds = build_dataset(stripped, list(ds.test_positives), ds.num_items)
        model, history = fit(train_ds, self.cfg(max_epochs=3), val_positives=val)
        assert len(history.records) == 3
        assert model.num_users == ds.num_users
