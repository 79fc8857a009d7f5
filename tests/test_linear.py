"""iALS and EASE closed forms, debiased variants, and the theorem checks."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dposv, dpotrf, dpotri

from recloss import (
    EASEScorer,
    IALSConfig,
    check_theorem1,
    check_theorem2,
    ease_debiased_fit,
    ease_fit,
    ials_fit,
    ials_objective,
)
from recloss import CSRRows, linear
from recloss.linear import _interactions
from recloss.sampling import substream
from conftest import build_dataset


def random_binary(rng, shape, p=0.35):
    return (rng.random(shape) < p).astype(float)


def rel_dev(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def reference_positives(X):
    """The per-user and per-item index lists, built with plain loops."""
    user_items = [np.flatnonzero(row) for row in X]
    item_users = [[] for _ in range(X.shape[1])]
    for u, items in enumerate(user_items):
        for i in items:
            item_users[i].append(u)
    return user_items, [np.array(us, dtype=int) for us in item_users]


def reference_ials_fit(X, cfg, debiased=False):
    """iALS with one cho_factor/cho_solve per row and the three-term system
    built from fresh temporaries, as the solver first did."""
    user_items, item_users = reference_positives(X)
    num_users, num_items = X.shape
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (num_users,))
    rng = substream(cfg.seed, "init")
    d = cfg.d
    W = rng.normal(0.0, cfg.init_scale / np.sqrt(d), size=(num_users, d))
    H = rng.normal(0.0, cfg.init_scale / np.sqrt(d), size=(num_items, d))
    lam_u = cfg.lam * (np.array([len(p) for p in user_items]) + cfg.alpha0 * num_items) ** cfg.nu
    lam_i = cfg.lam * (np.array([len(p) for p in item_users]) + cfg.alpha0 * num_users) ** cfg.nu
    trace = [ials_objective(W, H, X, cfg, debiased)]
    eye = np.eye(d)
    for _ in range(cfg.num_sweeps):
        gram_h = H.T @ H
        for u, items in enumerate(user_items):
            H_s = H[items]
            pos_weight = c[u] * (1.0 - cfg.alpha0) if debiased else 1.0
            rhs_weight = c[u] if debiased else 1.0
            A = pos_weight * (H_s.T @ H_s) + cfg.alpha0 * gram_h + lam_u[u] * eye
            W[u] = cho_solve(cho_factor(A, lower=True), rhs_weight * H_s.sum(axis=0))
        gram_w = W.T @ W
        for i, users in enumerate(item_users):
            W_s = W[users]
            cu = c[users]
            if debiased:
                A = (1.0 - cfg.alpha0) * (W_s.T @ (cu[:, None] * W_s))
                b = W_s.T @ cu
            else:
                A = W_s.T @ W_s
                b = W_s.sum(axis=0)
            A = A + cfg.alpha0 * gram_w + lam_i[i] * eye
            H[i] = cho_solve(cho_factor(A, lower=True), b)
        trace.append(ials_objective(W, H, X, cfg, debiased))
    return W, H, trace


def per_row_solve_rows(R, fixed, gram, lams, kind, a_scale=1.0, b_scale=1.0, conf=None):
    """linear._solve_rows as it first was: per row, one BLAS gemm forms
    a_r M_S^T (conf M_S) + gram + lams[r] I and one LAPACK posv solves it."""
    n, d = len(R), fixed.shape[1]
    a_scale, b_scale = np.broadcast_to(a_scale, (n,)), np.broadcast_to(b_scale, (n,))
    out = np.empty((n, d))
    for r in range(n):
        cols = R.indices[R.indptr[r]:R.indptr[r + 1]]
        M_s = fixed[cols]
        CM = M_s if conf is None else conf[cols, None] * M_s
        A = dgemm(a_scale[r], M_s.T, CM.T, 1.0, gram, trans_b=True).T
        b = CM.sum(axis=0) * b_scale[r]
        A.flat[:: d + 1] += lams[r]
        _, out[r], info = dposv(A.T, b, lower=True, overwrite_a=True, overwrite_b=True)
        assert info == 0, f"{kind} {r} is not positive definite"
    return out


def rows_with_counts(rng, counts, num_cols):
    """CSRRows whose row r holds counts[r] distinct random columns."""
    cols = [rng.choice(num_cols, count, replace=False) for count in counts]
    return CSRRows.from_pairs(np.repeat(np.arange(len(counts)), counts),
                              np.concatenate(cols), len(counts), num_cols)


def reference_ease_fit(X, lam, alpha=0.0):
    """EASE through a dense LU inverse, as the solver first did."""
    n = X.shape[1]
    P = np.linalg.inv(X.T @ X + (lam / (1.0 - alpha)) * np.eye(n))
    W = (np.eye(n) - P / np.diag(P)[None, :]) / (1.0 - alpha)
    np.fill_diagonal(W, 0.0)
    return W, P


def two_buffer_ease_solve(X, lam, alpha=0.0):
    """W and P = (X^T X + lam I)^{-1} as the solver formed them before W took
    over P's buffer: a full sparse Gram densified into P, a masked transpose
    copy for the mirror, and W in a second n x n array."""
    Xs = sp.csr_matrix(X, dtype=float)
    P = (Xs.T @ Xs).toarray(order="F").T
    n = P.shape[0]
    P.flat[:: n + 1] += lam
    _, info = dpotrf(P.T, lower=True, clean=False, overwrite_a=True)
    assert info == 0
    _, info = dpotri(P.T, lower=True, overwrite_c=True)
    assert info == 0
    np.copyto(P, P.T, where=np.tri(n, k=-1, dtype=bool))
    W = P / np.diag(P)
    W /= alpha - 1.0
    np.fill_diagonal(W, 0.0)
    return W, P


def ease_fit_peak(X, lam=5.0):
    """The tracemalloc peak, in bytes, of one ease_fit."""
    tracemalloc.start()
    try:
        ease_fit(X, lam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_ials_objective(W, H, X, cfg, debiased=False):
    """The iALS objective with one loop iteration per user, as it was first
    written; X is a dense binary matrix."""
    user_items, item_users = reference_positives(X)
    num_users, num_items = X.shape
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (num_users,))
    total = cfg.alpha0 * float(np.sum((W @ (H.T @ H)) * W))
    for u, items in enumerate(user_items):
        if len(items) == 0:
            continue
        yhat = H[items] @ W[u]
        if debiased:
            total += c[u] * float(np.sum((yhat - 1.0) ** 2))
            total -= c[u] * cfg.alpha0 * float(np.sum(yhat**2))
        else:
            total += float(np.sum((yhat - 1.0) ** 2))
    user_counts = np.array([len(p) for p in user_items])
    item_counts = np.array([len(p) for p in item_users])
    total += cfg.lam * float(
        np.sum((user_counts + cfg.alpha0 * num_items) ** cfg.nu * np.sum(W**2, axis=1))
    )
    total += cfg.lam * float(
        np.sum((item_counts + cfg.alpha0 * num_users) ** cfg.nu * np.sum(H**2, axis=1))
    )
    return total


def test_positives_match_the_loop_oracle(rng):
    X = random_binary(rng, (9, 12))
    X[:, 4] = 0.0  # an item nobody has
    X[3] = 0.0  # a user with no items
    ds = build_dataset([np.flatnonzero(r) for r in X], [[] for _ in X], 12)
    want_u, want_i = reference_positives(X)
    for source in (X, sp.csr_matrix(X), ds):
        interactions = _interactions(source)
        user_items = list(interactions.train_positives)
        item_users = list(linear._transpose(interactions))
        assert (interactions.num_users, interactions.num_items) == X.shape
        assert len(user_items) == 9 and len(item_users) == 12
        for got, want in zip([*user_items, *item_users], want_u + want_i):
            np.testing.assert_array_equal(got, want)


def test_stored_zeros_and_duplicates_are_not_interactions():
    dense = np.eye(2)
    ds = build_dataset([[0], [1]], [[], []], 2)
    # row 0 stores a zero at item 1; row 1 stores item 1 twice
    stored_zero = sp.csr_matrix(([1.0, 0.0, 1.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2))
    duplicated = sp.csr_matrix(([1.0, 1.0, 1.0], [0, 1, 1], [0, 1, 3]), shape=(2, 2))
    cfg = IALSConfig(d=2, alpha0=0.1, lam=0.1, num_sweeps=2)
    want = ials_fit(dense, cfg)
    for source in (sp.csr_matrix(dense), stored_zero, duplicated, ds):
        got = ials_fit(source, cfg)
        np.testing.assert_array_equal(got.W, want.W)
        np.testing.assert_array_equal(got.H, want.H)
        assert got.objective_trace == want.objective_trace
        assert ials_objective(want.W, want.H, source, cfg) == want.objective_trace[-1]
    # the caller's matrices keep what they stored
    assert stored_zero.nnz == 3 and list(stored_zero.data) == [1.0, 0.0, 1.0]
    assert duplicated.nnz == 3


@pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (np.inf, "inf"), (-3.0, "-3.0")])
@pytest.mark.parametrize("sparse", [False, True])
def test_bad_entries_are_rejected(bad, shown, sparse):
    X = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    X[2, 0] = bad
    source = sp.csr_matrix(X) if sparse else X
    cfg = IALSConfig(d=2, alpha0=0.1, lam=0.1, num_sweeps=2)
    message = rf"entry \(2, 0\) is {shown}"
    with pytest.raises(ValueError, match=message):
        ials_fit(source, cfg)
    with pytest.raises(ValueError, match=message):
        ials_objective(np.ones((3, 2)), np.ones((2, 2)), source, cfg)
    with pytest.raises(ValueError, match=message):
        check_theorem1(source, d=2, alpha0=0.2, c_u=1.5)


@pytest.mark.parametrize("sparse", [False, True])
def test_positive_values_count_once(sparse):
    cfg = IALSConfig(d=2, alpha0=0.1, lam=0.1, num_sweeps=2)
    weighted = np.array([[2.0, 1.0], [0.0, 1.0]])
    want = ials_fit((weighted > 0).astype(float), cfg)
    got = ials_fit(sp.csr_matrix(weighted) if sparse else weighted, cfg)
    np.testing.assert_array_equal(got.W, want.W)
    np.testing.assert_array_equal(got.H, want.H)
    assert got.objective_trace == want.objective_trace


class TestIALSObjective:
    @pytest.mark.parametrize("debiased", [False, True])
    @pytest.mark.parametrize("per_user_c", [False, True])
    def test_matches_the_per_user_loop(self, debiased, per_user_c, rng):
        # the last shape holds more entries than one chunk of d = 64 factors
        for shape, p, d in (((9, 12), 0.4, 3), ((40, 25), 0.2, 5), ((300, 120), 0.5, 64)):
            X = random_binary(rng, shape, p)
            X[:, 4] = 0.0  # an item nobody has
            X[3] = 0.0  # a user with no items
            c_u = rng.uniform(0.5, 2.5, size=shape[0]) if per_user_c else 1.7
            cfg = IALSConfig(d=d, alpha0=0.15, lam=0.05, nu=0.7, c_u=c_u)
            W, H = rng.normal(size=(shape[0], d)), rng.normal(size=(shape[1], d))
            want = reference_ials_objective(W, H, X, cfg, debiased)
            for source in (X, sp.csr_matrix(X)):
                got = ials_objective(W, H, source, cfg, debiased)
                assert abs(got - want) <= 1e-12 * abs(want)
        assert X.sum() > linear._CHUNK_FLOATS // d


class TestIALSConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IALSConfig(d=0, alpha0=0.1, lam=1.0)
        with pytest.raises(ValueError):
            IALSConfig(d=2, alpha0=-0.1, lam=1.0)
        with pytest.raises(ValueError):
            IALSConfig(d=2, alpha0=0.1, lam=0.0)
        with pytest.raises(ValueError):
            IALSConfig(d=2, alpha0=0.1, lam=1.0, c_u=0.0)
        with pytest.raises(ValueError):
            IALSConfig(d=2, alpha0=0.1, lam=1.0, num_sweeps=0)
        # a negative nu gives a row with no interactions at alpha0 = 0 an infinite ridge weight
        for nu in (-0.5, float("inf")):
            with pytest.raises(ValueError, match="^nu must be finite and non-negative"):
                IALSConfig(d=2, alpha0=0.0, lam=1.0, nu=nu)

    @pytest.mark.parametrize("field", ["alpha0", "lam", "c_u", "nu"])
    def test_infinity_is_refused_by_name(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
            IALSConfig(**{"d": 2, "alpha0": 0.1, "lam": 1.0, field: float("inf")})

    @pytest.mark.parametrize("field", ["d", "num_sweeps"])
    def test_a_count_below_one_names_only_its_field(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            IALSConfig(**{"d": 2, "alpha0": 0.1, "lam": 1.0, field: 0})

    @pytest.mark.parametrize("field", ["alpha0", "lam", "c_u", "nu"])
    def test_nan_is_refused(self, field):
        with pytest.raises(ValueError, match=field):
            IALSConfig(**{"d": 2, "alpha0": 0.1, "lam": 1.0, field: float("nan")})
        with pytest.raises(ValueError, match="c_u must be"):
            IALSConfig(d=2, alpha0=0.1, lam=1.0, c_u=np.array([1.0, np.nan]))


class TestIALSFit:
    def test_scalar_oracle(self):
        # 1 user, 1 item, d=1, alpha0=0, lam=1, nu=0: each half-sweep is the
        # 1-d ridge solve w = h / (h^2 + 1); replay the init stream to check.
        X = np.ones((1, 1))
        cfg = IALSConfig(d=1, alpha0=0.0, lam=1.0, nu=0.0, num_sweeps=1, seed=3)
        state = ials_fit(X, cfg)
        rng = substream(3, "init")
        w0 = rng.normal(0.0, cfg.init_scale, size=(1, 1))[0, 0]
        h0 = rng.normal(0.0, cfg.init_scale, size=(1, 1))[0, 0]
        w1 = h0 / (h0**2 + 1.0)
        h1 = w1 / (w1**2 + 1.0)
        assert state.W[0, 0] == pytest.approx(w1, rel=1e-12)
        assert state.H[0, 0] == pytest.approx(h1, rel=1e-12)
        del w0

    def test_user_halfsweep_matches_dense_solve(self, rng):
        X = random_binary(rng, (4, 6))
        X[0, :3] = 1.0  # user 0 is guaranteed observations
        cfg = IALSConfig(d=3, alpha0=0.2, lam=0.05, num_sweeps=1, seed=1)
        state = ials_fit(X, cfg)
        # reconstruct the H matrix the first user update saw
        stream = substream(1, "init")
        stream.normal(0.0, cfg.init_scale / np.sqrt(3), size=(4, 3))
        H0 = stream.normal(0.0, cfg.init_scale / np.sqrt(3), size=(6, 3))
        items = np.flatnonzero(X[0])
        lam_u = cfg.lam * (len(items) + cfg.alpha0 * 6) ** cfg.nu
        A = H0[items].T @ H0[items] + cfg.alpha0 * (H0.T @ H0) + lam_u * np.eye(3)
        expected = np.linalg.solve(A, H0[items].sum(axis=0))
        np.testing.assert_allclose(state.W[0], expected, rtol=1e-10)

    @pytest.mark.parametrize("debiased", [False, True])
    def test_objective_non_increasing(self, debiased, rng):
        X = random_binary(rng, (8, 10))
        cfg = IALSConfig(d=4, alpha0=0.1, lam=0.1, c_u=1.5, num_sweeps=10, seed=2)
        trace = ials_fit(X, cfg, debiased=debiased).objective_trace
        assert len(trace) == 11
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_unregularized_limit_fits_ones(self):
        X = np.ones((3, 4))
        cfg = IALSConfig(d=2, alpha0=0.0, lam=1e-8, nu=0.0, num_sweeps=50, seed=0)
        state = ials_fit(X, cfg)
        np.testing.assert_allclose(state.W @ state.H.T, np.ones((3, 4)), atol=1e-3)

    def test_dataset_and_matrix_sources_agree(self, rng):
        ds = build_dataset([[0, 2], [1], [0, 1, 3]], [[], [], []], 4)
        cfg = IALSConfig(d=2, alpha0=0.3, lam=0.2, num_sweeps=3, seed=5)
        from_ds = ials_fit(ds, cfg)
        from_mat = ials_fit(ds.train_matrix(), cfg)
        np.testing.assert_allclose(from_ds.W, from_mat.W, atol=1e-14)
        np.testing.assert_allclose(from_ds.H, from_mat.H, atol=1e-14)

    def test_debiased_alpha0_bound(self):
        cfg = IALSConfig(d=2, alpha0=1.5, lam=0.1)
        with pytest.raises(ValueError, match="alpha0 < 1"):
            ials_fit(np.ones((2, 2)), cfg, debiased=True)

    def test_score_interfaces_agree(self, rng):
        X = random_binary(rng, (5, 7))
        state = ials_fit(X, IALSConfig(d=3, alpha0=0.1, lam=0.1, num_sweeps=2))
        block = state.score_block(np.arange(5))
        for u in range(5):
            np.testing.assert_allclose(state.score_block(np.array([u]))[0], block[u], atol=1e-14)

    def test_objective_value_is_finite(self, rng):
        X = random_binary(rng, (6, 6))
        cfg = IALSConfig(d=2, alpha0=0.2, lam=0.3)
        state = ials_fit(X, cfg)
        assert np.isfinite(ials_objective(state.W, state.H, X, cfg))

    @pytest.mark.parametrize("debiased", [False, True])
    @pytest.mark.parametrize("per_user_c", [False, True])
    def test_matches_cho_solve_oracle(self, debiased, per_user_c, rng):
        for shape, d in (((12, 15), 4), ((30, 20), 7), ((5, 40), 3)):
            X = random_binary(rng, shape, p=0.3)
            c_u = rng.uniform(0.5, 2.5, size=shape[0]) if per_user_c else 1.7
            cfg = IALSConfig(d=d, alpha0=0.15, lam=0.05, nu=0.7, c_u=c_u, num_sweeps=4, seed=4)
            state = ials_fit(X, cfg, debiased=debiased)
            W, H, trace = reference_ials_fit(X, cfg, debiased)
            assert rel_dev(state.W, W) <= 1e-12
            assert rel_dev(state.H, H) <= 1e-12
            assert len(state.objective_trace) == len(trace)
            for got, want in zip(state.objective_trace, trace):
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_overflowing_solve_raises(self, rng):
        # c_u * H_S 1 is huge and the system tiny: the solved row overflows
        X = random_binary(rng, (6, 5))
        X[0, :2] = 1.0
        cfg = IALSConfig(d=2, alpha0=0.1, lam=1e-300, c_u=1e300, init_scale=1e-200, num_sweeps=1)
        with pytest.raises(FloatingPointError, match="user"):
            ials_fit(X, cfg, debiased=True)

    def test_nan_does_not_reach_the_factors(self, rng):
        X = random_binary(rng, (6, 5))
        X[0, :2] = 1.0
        cfg = IALSConfig(d=2, alpha0=0.1, lam=0.1, init_scale=np.nan, num_sweeps=1)
        with pytest.raises(FloatingPointError, match="non-finite"):
            ials_fit(X, cfg)


class TestSolveRows:
    d = 6
    # rows with 0, 1, d - 1, d, d + 1 and many entries, shuffled so that
    # equal-length rows are not adjacent
    counts = np.random.default_rng(0).permutation([0, 0, 1, 1, 1, 5, 5, 6, 6, 7, 7, 30, 30, 37])

    def system(self, rng, gram_kind):
        R = rows_with_counts(rng, self.counts, 40)
        fixed = rng.normal(size=(40, self.d))
        if gram_kind == "full":
            gram = 0.3 * (fixed.T @ fixed)
        elif gram_kind == "zero":  # alpha0 = 0
            gram = np.zeros((self.d, self.d))
        else:  # rank 2, with exactly zero eigenvalues in exact arithmetic
            B = rng.normal(size=(self.d, 2))
            gram = B @ B.T
        return R, fixed, gram, rng.uniform(0.05, 1.0, size=len(self.counts))

    @pytest.mark.parametrize("gram_kind", ["full", "zero", "rank-deficient"])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("with_conf", [False, True])
    @pytest.mark.parametrize("chunk_floats", [None, 1])
    def test_matches_the_per_row_solver(self, gram_kind, per_row, with_conf, chunk_floats,
                                        rng, monkeypatch):
        if chunk_floats is not None:  # one row per chunk
            monkeypatch.setattr(linear, "_CHUNK_FLOATS", chunk_floats)
        R, fixed, gram, lams = self.system(rng, gram_kind)
        n = len(R)
        a, b = (rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)) if per_row else (0.7, 1.3)
        conf = rng.uniform(0.5, 2.5, size=40) if with_conf else None
        args = (R, fixed, gram, lams, "user", a, b, conf)
        want = per_row_solve_rows(*args)
        got, got_gram = linear._solve_rows(*args)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
        assert np.all(got[self.counts == 0] == 0.0)
        np.testing.assert_array_equal(got_gram, got.T @ got)
        again, again_gram = linear._solve_rows(*args)
        np.testing.assert_array_equal(again, got)
        np.testing.assert_array_equal(again_gram, got_gram)

    @pytest.mark.parametrize("gram_kind", ["full", "zero"])
    def test_negative_lambda_on_a_definite_system(self, gram_kind, rng):
        # a long row stays positive definite below lambda = -min eig(gram),
        # and is solved through its checked normal equations
        R, fixed, gram, lams = self.system(rng, gram_kind)
        long_row = int(np.argmax(self.counts))
        lams[long_row] = -np.linalg.eigvalsh(gram)[0] - 1e-2
        want = per_row_solve_rows(R, fixed, gram, lams, "user")
        got, _ = linear._solve_rows(R, fixed, gram, lams, "user")
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("length", ["short", "long"])
    def test_indefinite_row_is_named(self, side, length, rng):
        # a negative ridge weight on a row of L <= d entries (the capacitance
        # branch) or of L > d entries (the normal equations), on either side
        R, fixed, gram, lams = self.system(rng, "full")
        row = int(np.flatnonzero(self.counts == {"short": 1, "long": 30}[length])[0])
        lams[row] = -50.0
        message = (rf"{side} {row} is not positive definite: its ridge weight is -50 over "
                   rf"{self.counts[row]} interactions")
        with pytest.raises(np.linalg.LinAlgError, match=message):
            linear._solve_rows(R, fixed, gram, lams, side)

    @pytest.mark.parametrize("debiased", [False, True])
    def test_an_item_with_no_interactions_at_alpha0_zero_is_named(self, debiased, rng):
        # at alpha0 = 0 the ridge weight lambda (0 + alpha0 * users)^nu of an
        # item nobody has is 0, whatever lambda is, so its system is zero
        X = random_binary(rng, (8, 6), p=0.5)
        X[0] = X[:, 0] = 1.0  # every other item and every user has an interaction
        X[:, 4] = 0.0
        cfg = IALSConfig(d=3, alpha0=0.0, lam=0.1, num_sweeps=2)
        message = ("ridge system of item 4 is not positive definite: its ridge weight is 0 over "
                   "0 interactions; with none, it is positive only for alpha0 > 0")
        with pytest.raises(np.linalg.LinAlgError, match=message):
            ials_fit(X, cfg, debiased=debiased)
        # a positive alpha0 gives that item a positive weight
        state = ials_fit(X, IALSConfig(d=3, alpha0=0.1, lam=0.1, num_sweeps=2), debiased=debiased)
        assert np.isfinite(state.H).all()

    def raises_without_warnings(self, match, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match=match):
                linear._solve_rows(*args, **kwargs)
        assert caught == []

    def test_non_finite_fixed_factors_raise(self, rng):
        R, fixed, _, lams = self.system(rng, "full")
        for bad in (np.nan, np.inf):
            fixed[3, 2] = bad
            with np.errstate(invalid="ignore"):
                # alpha0 = 0 does not make the Gram zero: 0 * inf is NaN
                grams = (fixed.T @ fixed, 0.0 * (fixed.T @ fixed))
            for gram in grams:
                self.raises_without_warnings("user solves got non-finite fixed factors",
                                             R, fixed, gram, lams, "user")

    def test_overflow_raises(self, rng):
        R, fixed, gram, lams = self.system(rng, "full")
        # b / lambda overflows the solved rows themselves
        self.raises_without_warnings("item solves produced non-finite factors",
                                     R, fixed, 0.0 * gram, np.full_like(lams, 1e-300), "item",
                                     1.0, 1e300)
        # the rows are finite (near 1e200) but their Gram overflows
        self.raises_without_warnings("item solves produced non-finite factors",
                                     R, 1e-200 * fixed, 0.0 * gram, np.full_like(lams, 1e-300),
                                     "item", 1e300, 1e300)


def lagrangian_column_oracle(X, lam):
    """Per-column constrained ridge: eliminate the diagonal unknown."""
    n = X.shape[1]
    W = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        Xo = X[:, others]
        w = np.linalg.solve(Xo.T @ Xo + lam * np.eye(n - 1), Xo.T @ X[:, i])
        W[others, i] = w
    return W


class TestEASE:
    def test_identity_gives_zero(self):
        sol = ease_fit(np.eye(3), lam=0.5)
        assert np.all(sol.W == 0.0)
        _, P = two_buffer_ease_solve(np.eye(3), 0.5)
        np.testing.assert_allclose(P, (2.0 / 3.0) * np.eye(3), atol=1e-15)

    def test_matches_per_column_oracle(self, rng):
        for _ in range(5):
            X = random_binary(rng, (6, 5))
            sol = ease_fit(X, lam=0.7)
            oracle = lagrangian_column_oracle(X, 0.7)
            assert np.max(np.abs(sol.W - oracle)) < 1e-8

    def test_huge_lambda_kills_weights(self, rng):
        X = random_binary(rng, (6, 5))
        assert np.max(np.abs(ease_fit(X, lam=1e6).W)) < 1e-3

    def test_diag_exactly_zero(self, rng):
        X = random_binary(rng, (7, 6))
        assert np.all(np.diag(ease_fit(X, lam=0.2).W) == 0.0)

    def test_stationarity_residual(self, rng):
        # (X'X + lam I) W - X'X must vanish off the diagonal
        X = random_binary(rng, (6, 5))
        lam = 0.4
        W = ease_fit(X, lam).W
        G = X.T @ X
        residual = (G + lam * np.eye(5)) @ W - G
        off = residual[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) < 1e-8

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            ease_fit(np.eye(2), lam=0.0)

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.35])
    def test_matches_lu_inverse_oracle(self, alpha, rng):
        for shape, p, lam in (((20, 12), 0.3, 0.7), ((60, 40), 0.1, 2.0), ((8, 30), 0.5, 0.05)):
            X = random_binary(rng, shape, p)
            X[:, 1] = 0.0  # an item nobody has
            sol = ease_fit(X, lam) if alpha is None else ease_debiased_fit(X, lam, alpha)
            W, P = reference_ease_fit(X, lam, alpha or 0.0)
            assert rel_dev(sol.W, W) <= 1e-12
            # P is symmetric, so W's columns scaled by diag(P) are too
            scaled = sol.W * np.diag(P)
            assert rel_dev(scaled, scaled.T) <= 1e-12

    def test_sparse_input_equals_dense(self, rng):
        X = random_binary(rng, (25, 18), p=0.2)
        for fit in (lambda Y: ease_fit(Y, 0.8), lambda Y: ease_debiased_fit(Y, 0.8, 0.3)):
            dense, sparse = fit(X), fit(sp.csr_matrix(X))
            np.testing.assert_array_equal(sparse.W, dense.W)

    def test_outputs_are_c_contiguous(self, rng):
        sol = ease_fit(random_binary(rng, (10, 9)), lam=0.5)
        assert sol.W.flags.c_contiguous

    @pytest.mark.parametrize("fit", [ease_fit, lambda X, lam: ease_debiased_fit(X, lam, 0.4)])
    def test_rejected_factorization_raises(self, fit):
        # two identical one-user columns: 1 + lam rounds to 1, so the
        # second Cholesky pivot is exactly zero
        with pytest.raises(FloatingPointError, match="positive definite"):
            fit(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1e-300)

    def test_non_finite_input_raises(self, rng):
        # 6 x 5 takes the item side
        X = random_binary(rng, (6, 5))
        X[2, 3] = np.nan
        with pytest.raises(ValueError, match=r"entry \(2, 3\) is nan; entries must be finite"):
            ease_fit(X, 1.0)
        with pytest.raises(ValueError, match=r"entry \(2, 3\) is nan"):
            ease_debiased_fit(sp.csr_matrix(X), 1.0, 0.4)

    @pytest.mark.parametrize("gram_rows", [3, 64])
    @pytest.mark.parametrize("n", [1, 40, 150])
    def test_one_buffer_equals_two_buffer_solve(self, n, gram_rows, rng, monkeypatch):
        # n = 1, n below the block of Gram rows and n not a multiple of it;
        # the item side (2m^2 > n^2) keeps the two-buffer arithmetic bit for
        # bit, the user side (n/2 x n for n >= 40) agrees to rounding
        monkeypatch.setattr(linear, "_GRAM_ROWS", gram_rows)
        for m in (max(n // 2, 3), 2 * n):
            X = random_binary(rng, (m, n))
            weighted = X * rng.uniform(0.5, 3.0, size=X.shape)
            for Y in (X, sp.csr_matrix(X), weighted, sp.csr_matrix(weighted)):
                for lam, alpha in ((0.7, 0.0), (0.7, 0.35)):
                    W, _ = two_buffer_ease_solve(Y, lam / (1.0 - alpha), alpha)
                    fit = ease_fit(Y, lam) if alpha == 0.0 else ease_debiased_fit(Y, lam, alpha)
                    if 2 * m * m <= n * n:
                        assert rel_dev(fit.W, W) <= 1e-12
                    else:
                        np.testing.assert_array_equal(fit.W, W)

    @pytest.mark.parametrize("alpha", [None, 0.35])
    @pytest.mark.parametrize("shape", [(7, 10), (8, 11), (9, 9), (0, 5)])
    def test_both_sides_match_lu_inverse_oracle(self, shape, alpha, rng, monkeypatch):
        # 2 * 7^2 <= 10^2 takes the user side; 2 * 8^2 > 11^2, m = n and m = 0
        # the item side
        monkeypatch.setattr(linear, "_GRAM_ROWS", 3)
        X = random_binary(rng, shape, 0.4)
        X[:, 1] = 0.0  # an item nobody has
        weighted = X * rng.uniform(0.5, 3.0, size=shape)
        for Y in (X, weighted, sp.csr_matrix(weighted)):
            W, _ = reference_ease_fit(sp.csr_matrix(Y).toarray(), 0.6, alpha or 0.0)
            sol = ease_fit(Y, 0.6) if alpha is None else ease_debiased_fit(Y, 0.6, alpha)
            assert rel_dev(sol.W, W) <= 1e-12
            assert np.all(np.diag(sol.W) == 0.0) and np.all(sol.W[:, 1] == 0.0)
            assert sol.W.flags.c_contiguous

    def test_user_side_non_finite_input_raises(self, rng):
        X = random_binary(rng, (3, 5))
        for bad, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
            X[2, 3] = bad
            with pytest.raises(ValueError, match=rf"entry \(2, 3\) is {shown}; entries must be finite"):
                ease_fit(X, 1.0)
            with pytest.raises(ValueError, match=rf"entry \(2, 3\) is {shown}"):
                ease_debiased_fit(sp.csr_matrix(X), 1.0, 0.4)

    def test_peak_memory_within_the_budget_estimate(self, rng):
        # the CLI refuses catalogs above linear.item_budget on an estimate of
        # 12 n^2 bytes (1.5 n x n float64 matrices); a dense Gram is the
        # worst case for the sparse product
        n = 1000
        X = random_binary(rng, (300, n), p=0.3)
        tracemalloc.start()
        try:
            ease_fit(X, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    @pytest.mark.parametrize("m", [500, 1400])
    def test_peak_memory_within_the_budget_estimate_on_each_side(self, m, rng):
        # 2 * 500^2 <= n^2 takes the user side, which holds an m x m buffer
        # beside the n x n one; 1,400 users take the item side
        n = 1000
        assert ease_fit_peak(sp.csr_matrix(random_binary(rng, (m, n), p=0.05))) <= 1.5 * 8 * n * n

    def test_user_side_peak_at_the_edge_of_the_rule(self, rng):
        # 2 * 707^2 <= 1000^2: the two buffers, 8(n^2 + m^2) bytes, all but
        # fill 12 n^2, and X's nonzeros and two blocks of _GRAM_ROWS rows of
        # M's fill come on top, but no dense m x n array
        n, m = 1000, 707
        X = sp.csr_matrix(random_binary(rng, (m, n), p=0.05))
        bound = 8 * (n * n + m * m) + 24 * X.nnz + 16 * linear._GRAM_ROWS * (n + m)
        assert ease_fit_peak(X) <= bound

    def test_weighted_and_negative_entries_are_used(self, rng):
        for shape in ((6, 5), (3, 5)):
            X = random_binary(rng, shape) * rng.uniform(-2.0, 3.0, size=shape)
            W, _ = reference_ease_fit(X, 0.9)
            assert rel_dev(ease_fit(X, 0.9).W, W) <= 1e-12

    @pytest.mark.parametrize("shape, p", [((300, 1000), 0.3), ((500, 1000), 0.05),
                                          ((1400, 1000), 0.05), ((707, 1000), 0.05),
                                          ((10, 2000), 0.05)])
    def test_peak_within_the_plan(self, shape, p, rng):
        # the shapes of the three peak tests above (707 x 1,000 is the user
        # side's edge, 1,400 x 1,000 the item side) and a user side so narrow
        # that W's n x n finiteness mask outweighs the m x m buffer
        X = sp.csr_matrix(random_binary(rng, shape, p))
        user_side, peak_bytes = linear._ease_plan(*shape, X.nnz)
        assert user_side == (shape[0] < 1000)
        assert ease_fit_peak(X) <= peak_bytes

    @pytest.mark.parametrize("shape, p, share", [((707, 1000), 0.05, 1.55),
                                                 ((10, 2000), 0.05, 1.08),
                                                 ((3000, 2000), 0.002, 1.10)])
    def test_peak_in_units_of_the_output(self, shape, p, share, rng):
        # the user side's edge, a narrow user side and a sparse item side: the
        # m x m inverse lives in W's buffer and finiteness is checked a block
        # of rows at a time, so little beyond W's 8 n^2 bytes is left
        X = sp.csr_matrix(random_binary(rng, shape, p))
        assert ease_fit_peak(X) <= share * 8 * shape[1] ** 2

    @pytest.mark.parametrize("k, offset", [(1, 0), (40, 7), (150, 1000)])
    def test_inverse_gram_into_an_offset_view(self, k, offset, rng, monkeypatch):
        # as the user side calls it: the last k^2 floats of a larger buffer,
        # here filled with NaN, and blocks that do not divide k
        monkeypatch.setattr(linear, "_GRAM_ROWS", 16)
        A = sp.csr_matrix(random_binary(rng, (k, 2 * k + 3)) * rng.uniform(-1.0, 3.0, (k, 2 * k + 3)))
        At = A.T.tocsr()
        alone = linear._inverse_gram(A, At, 0.7, np.empty((k, k)))
        buffer = rng.normal(size=offset + k * k)
        buffer[offset:] = np.nan
        view = buffer[offset:].reshape(k, k)
        before = buffer[:offset].copy()
        got = linear._inverse_gram(A, At, 0.7, view)
        assert got is view
        np.testing.assert_array_equal(view, alone)
        np.testing.assert_array_equal(buffer[:offset], before)
        P = np.linalg.inv((A @ At).toarray() + 0.7 * np.eye(k))
        assert rel_dev(alone, P) <= 1e-12

    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_a_non_finite_weight_in_any_block_is_refused(self, row, rng, monkeypatch):
        # finiteness is checked 3 rows at a time here; the NaN sits in the
        # first, a middle or the last (short) block of the item side's W
        monkeypatch.setattr(linear, "_GRAM_ROWS", 3)
        inverse_gram = linear._inverse_gram

        def with_a_nan(*args):
            P = inverse_gram(*args)
            P[row, 1] = np.nan
            return P

        monkeypatch.setattr(linear, "_inverse_gram", with_a_nan)
        with pytest.raises(FloatingPointError, match="non-finite weights"):
            ease_fit(random_binary(rng, (30, 10), 0.5), 1.0)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 4), (3, 9), (4, 8), (5, 12), (7, 70)])
    def test_user_side_corner_shapes_match_lu_inverse_oracle(self, shape, rng, monkeypatch):
        # c = ceil(m^2 / n) rows hold the m x m inverse: m^2 a multiple of n
        # or not, one corner row or several, corner rows fewer than a block
        monkeypatch.setattr(linear, "_GRAM_ROWS", 2)
        m, n = shape
        assert linear._ease_plan(m, n, 0)[0]
        X = random_binary(rng, shape, 0.5) * rng.uniform(0.5, 3.0, size=shape)
        for alpha in (0.0, 0.35):
            W, _ = reference_ease_fit(X, 0.6, alpha)
            assert rel_dev(ease_debiased_fit(sp.csr_matrix(X), 0.6, alpha).W, W) <= 1e-12


class TestEASEDebiased:
    def test_alpha_zero_equals_plain(self, rng):
        X = random_binary(rng, (6, 5))
        plain = ease_fit(X, lam=0.3).W
        deb = ease_debiased_fit(X, lam=0.3, alpha=0.0).W
        assert np.max(np.abs(plain - deb)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_identity_gives_zero(self, alpha):
        assert np.all(ease_debiased_fit(np.eye(4), lam=0.5, alpha=alpha).W == 0.0)

    def test_scale_identity(self, rng):
        X = random_binary(rng, (6, 5))
        alpha, lam = 0.3, 0.6
        deb = ease_debiased_fit(X, lam, alpha).W
        rescaled = ease_fit(X, lam / (1 - alpha)).W / (1 - alpha)
        denom = max(np.max(np.abs(rescaled)), 1e-30)
        assert np.max(np.abs(deb - rescaled)) / denom < 1e-10

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="c_u < 2"):
            ease_debiased_fit(np.eye(2), lam=0.1, alpha=1.0)
        with pytest.raises(ValueError, match="c_u < 2"):
            ease_debiased_fit(np.eye(2), 0.1, -0.2)
        with pytest.raises(ValueError, match="lam must be positive"):
            ease_debiased_fit(np.eye(2), 0.0, 0.3)
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^lam must be positive and finite"):
                ease_fit(np.eye(2), lam)


class TestTheorem1:
    def test_reference_setting(self, rng):
        X = random_binary(rng, (8, 10))
        dev = check_theorem1(X, d=4, alpha0=0.1, c_u=2.0, lam=0.01)
        assert dev <= 1e-8

    def test_degenerate_parameters(self, rng):
        X = random_binary(rng, (6, 7))
        dev = check_theorem1(X, d=3, alpha0=1e-8, c_u=1.0, lam=0.05)
        assert dev <= 1e-8

    def test_multiple_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = random_binary(rng, (8, 10))
            dev = check_theorem1(X, d=4, alpha0=0.5, c_u=1.5, lam=0.01, seed=seed)
            assert dev <= 1e-8

    def test_premises_enforced(self):
        with pytest.raises(ValueError, match="alpha0"):
            check_theorem1(np.eye(3), d=2, alpha0=0.0, c_u=1.5)
        with pytest.raises(ValueError, match="c_u"):
            check_theorem1(np.eye(3), d=2, alpha0=0.2, c_u=0.0)


class TestTheorem2:
    def test_reference_setting(self, rng):
        X = random_binary(rng, (6, 8))
        scale_dev, oracle_dev = check_theorem2(X, lam=0.5, alpha=0.4)
        assert scale_dev < 1e-10
        assert oracle_dev < 1e-4

    def test_alpha_zero(self, rng):
        X = random_binary(rng, (6, 5))
        scale_dev, oracle_dev = check_theorem2(X, lam=0.5, alpha=0.0)
        assert scale_dev < 1e-12
        assert oracle_dev < 1e-4

    def test_oracle_size_guard(self, rng):
        X = random_binary(rng, (6, 9))
        with pytest.raises(ValueError, match="8 items"):
            check_theorem2(X, lam=0.5, alpha=0.3)


class TestEASEScorer:
    def test_scores_are_row_sums(self, rng):
        ds = build_dataset([[0, 2], [1]], [[1], [0]], 3)
        W = rng.normal(size=(3, 3))
        scorer = EASEScorer(ds, W)
        np.testing.assert_allclose(scorer.score_block(np.array([0]))[0], W[0] + W[2], atol=1e-15)
        np.testing.assert_allclose(
            scorer.score_block(np.array([0, 1])), np.stack([W[0] + W[2], W[1]]), atol=1e-15
        )

    def test_catalog_mismatch_rejected(self, rng):
        ds = build_dataset([[0]], [[1]], 2)
        with pytest.raises(ValueError, match="catalog"):
            EASEScorer(ds, np.zeros((3, 3)))
