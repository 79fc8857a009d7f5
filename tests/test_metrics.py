"""Top-k ranking and recall/NDCG against brute-force references."""

import math
import tracemalloc

import numpy as np
import pytest

from recloss import metrics
from recloss import MetricsReport, ScoringModel, evaluate
from recloss.data import CSRRows
from conftest import PopularityScorer, build_dataset, rank_top_k


class FixedScorer:
    """Score table indexed by user."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def score_block(self, users):
        return self.table[np.asarray(users)]


def recall_at_k(topk, test_items) -> float:
    """|topk ∩ test| / |test|, by a per-user set loop."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("test set is empty; skip this user")
    return sum(1 for i in topk if int(i) in test) / len(test)


def ndcg_at_k(topk, test_items) -> float:
    """Binary-relevance DCG over the top-k, normalized by the truncated ideal,
    by a per-user set loop."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("test set is empty; skip this user")
    dcg = sum(1.0 / np.log2(rank + 2) for rank, i in enumerate(topk) if int(i) in test)
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(min(len(topk), len(test))))
    return dcg / idcg


def reference_top_k(scores, k):
    """The full stable sort the kernel replaced: descending score, ties by
    lowest index, -inf then NaN last, each in index order."""
    return np.argsort(-np.asarray(scores, dtype=float), axis=1, kind="stable")[:, :k]


def partition_top_k(neg, k):
    """The argpartition kernel the threshold kernel replaced: k candidates per
    row of negated scores, with the rows whose boundary ties were cut (or whose
    boundary is NaN) mended from the lowest-index tied items, then a stable
    sort of the k survivors in index order."""
    n = neg.shape[1]
    if k < n:
        cand = np.argpartition(neg, k - 1, axis=1)[:, :k].copy()
        vals = np.take_along_axis(neg, cand, axis=1)
        bound = vals[:, k - 1:]
        nan_bound = np.isnan(bound[:, 0])
        # argpartition takes any of the items tied at the boundary value (NaN
        # ones included): fix the rows with tied items left out of the candidates
        tied = neg == bound
        fix = np.flatnonzero(nan_bound | (np.count_nonzero(tied, axis=1)
                                          > np.count_nonzero(vals == bound, axis=1)))
        tied, nan_fix = tied[fix], nan_bound[fix]
        tied[nan_fix] = np.isnan(neg[fix[nan_fix]])
        t, v = bound[fix], vals[fix]
        above = (v < t) | (np.isnan(t) & ~np.isnan(v))
        # keep the candidates above the boundary; the lowest-index tied items,
        # found by partitioning their indices, fill the remaining slots
        key = np.where(tied, np.arange(n, dtype=np.int32), n)
        key.partition(k - 1, axis=1)
        lowest = np.sort(key[:, :k], axis=1)
        fixed = cand[fix]
        fixed[~above] = lowest[np.arange(k) < k - np.count_nonzero(above, axis=1)[:, None]]
        cand[fix] = fixed
        cand.sort(axis=1)
    else:
        cand = np.broadcast_to(np.arange(n), neg.shape)
    # candidates in index order, so a stable sort of their values breaks ties by index
    order = np.argsort(np.take_along_axis(neg, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


def tie_cases(rng, b=6, n=300):
    """Score blocks whose rankings hinge on the tie rule, by name."""
    mostly_masked = rng.normal(size=(b, n))
    mostly_masked[rng.random((b, n)) < 0.995] = -np.inf
    with_nan = np.round(rng.normal(size=(b, n)), 1)
    with_nan[rng.random((b, n)) < 0.3] = np.nan
    with_nan[rng.random((b, n)) < 0.2] = -np.inf
    mostly_nan = rng.normal(size=(b, n))
    mostly_nan[rng.random((b, n)) < 0.97] = np.nan
    nan_and_masked = np.full((b, n), np.nan)
    nan_and_masked[:, ::7] = -np.inf
    signed_zeros = np.round(rng.normal(size=(b, n)))
    signed_zeros[signed_zeros == 0] = -0.0
    signed_zeros[:, ::3] = 0.0
    signed_zeros[:, ::5] = np.inf
    return {
        "gaussian": rng.normal(size=(b, n)),
        "heavy_ties": np.round(rng.normal(size=(b, n)), 1),
        "popularity": np.broadcast_to(rng.zipf(1.5, size=n).astype(float), (b, n)).copy(),
        "binary": (rng.random((b, n)) < 0.3).astype(float),
        "mostly_masked": mostly_masked,
        "all_masked": np.full((b, n), -np.inf),
        "with_nan": with_nan,
        "mostly_nan": mostly_nan,
        "nan_and_masked": nan_and_masked,
        "signed_zeros": signed_zeros,
        # about 3 ones per row, fewer than most k: the top k is mostly tied zeros
        "sparse_binary": (rng.random((b, n)) < 3.0 / n).astype(float),
    }


CASE_NAMES = tuple(tie_cases(np.random.default_rng(0)))


def brute_force_metrics(scores, train, test, k):
    """Naive comparator reference: sort (score desc, index asc), then count."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    order = [i for i in order if i not in set(train)][:k]
    hits = [i in set(test) for i in order]
    recall = sum(hits) / len(test)
    dcg = sum(1 / math.log2(r + 2) for r, h in enumerate(hits) if h)
    idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(test))))
    return order, recall, dcg / idcg


class TestRankTopK:
    def setup_method(self):
        self.ds = build_dataset([[1], [0]], [[0], [2]], 3)

    def test_no_mask(self):
        scorer = FixedScorer([[0.1, 0.9, 0.5]] * 2)
        assert rank_top_k(scorer, self.ds, 0, 2, mask_train=False).tolist() == [1, 2]

    def test_train_item_masked(self):
        scorer = FixedScorer([[0.1, 0.9, 0.5]] * 2)
        assert rank_top_k(scorer, self.ds, 0, 2).tolist() == [2, 0]

    def test_equal_scores_ascending_index(self):
        scorer = FixedScorer([[0.5, 0.5, 0.5]] * 2)
        assert rank_top_k(scorer, self.ds, 0, 3, mask_train=False).tolist() == [0, 1, 2]

    def test_k_clamped_to_catalog(self):
        scorer = FixedScorer([[0.1, 0.9, 0.5]] * 2)
        assert len(rank_top_k(scorer, self.ds, 0, 50, mask_train=False)) == 3

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            rank_top_k(FixedScorer([[0.0] * 3] * 2), self.ds, 0, 0)


class TestTopKKernel:
    """The exact top-k kernel against the full stable sort it replaced."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    @pytest.mark.parametrize("k", [1, 2, 20, 299, 300])
    def test_kernel_matches_stable_sort(self, name, k):
        rng = np.random.default_rng(17)
        for _ in range(5):
            scores = tie_cases(rng)[name]
            got = metrics._top_k(-scores, k)
            np.testing.assert_array_equal(got, reference_top_k(scores, k))

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_rank_top_k_matches_stable_sort(self, name):
        # k = 12 exceeds the unmasked items of user 1, so masked ones pad its tail
        rng = np.random.default_rng(23)
        scores = tie_cases(rng, b=3, n=15)[name]
        train = [[0, 5], list(range(4, 15)), []]
        ds = build_dataset(train, [[1], [1], [0]], 15)
        for k in (1, 4, 12, 15):
            for u in range(3):
                masked = scores[u].copy()
                masked[train[u]] = -np.inf
                got = rank_top_k(FixedScorer(scores), ds, u, k)
                assert got.tolist() == reference_top_k(masked[None], k)[0].tolist()

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_evaluate_matches_stable_sort(self, name):
        rng = np.random.default_rng(29)
        n, k = 40, 20
        scores = tie_cases(rng, b=8, n=n)[name]
        train = [rng.choice(n, size=int(rng.integers(0, 25)), replace=False).tolist()
                 for _ in range(8)]
        test = [rng.choice(np.setdiff1d(np.arange(n), t), size=3, replace=False).tolist()
                for t in train]
        ds = build_dataset(train, test, n)
        masked = scores.copy()
        for u, items in enumerate(train):
            masked[u, items] = -np.inf
        order = reference_top_k(masked, k)
        recall = np.mean([recall_at_k(order[u], test[u]) for u in range(8)])
        ndcg = np.mean([ndcg_at_k(order[u], test[u]) for u in range(8)])
        report = evaluate(FixedScorer(scores), ds, k=k)
        assert report.recall == pytest.approx(recall, abs=1e-12)
        assert report.ndcg == pytest.approx(ndcg, abs=1e-12)

    def test_evaluate_peak_memory(self):
        # the block's scores plus argpartition's result for one _TOP_K_ROWS
        # slice; the full stable sort held a negated copy and a (B, n) int64
        # order on top
        b, n = 256, 20_000
        rng = np.random.default_rng(31)
        ds = build_dataset([[u] for u in range(b)], [[b + u] for u in range(b)], n)
        scorer = FixedScorer(rng.normal(size=(b, n)))
        tracemalloc.start()
        try:
            evaluate(scorer, ds, k=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * b * n * 8


class TestThresholdKernel:
    """The threshold kernel against the argpartition kernel it replaced and
    the full stable sort, bit for bit."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    @pytest.mark.parametrize("n, ks", [
        # a multiple of the 64 groups, k below, at and above the group count
        (320, (1, 20, 63, 64, 65, 150, 299, 300)),
        # not a multiple of the group count, so the groups differ in width
        (1037, (1, 20, 63, 64, 65, 150, 299, 300)),
        # rows narrower than the group count are sorted whole
        (40, (1, 20, 39, 40)),
    ])
    def test_kernel_matches_both_oracles(self, name, n, ks):
        rng = np.random.default_rng(41)
        for _ in range(3):
            scores = tie_cases(rng, n=n)[name]
            for k in ks:
                got = metrics._top_k(-scores, k)
                np.testing.assert_array_equal(got, partition_top_k(-scores, k))
                np.testing.assert_array_equal(got, reference_top_k(scores, k))

    def test_evaluate_peak_holds_a_mask_not_an_index(self):
        # the block's scores plus one slice's 1-byte mask; argpartition's
        # (rows, n) int64 index put the peak at 1.126 x the block
        b, n = 256, 20_000
        rng = np.random.default_rng(31)
        ds = build_dataset([[u] for u in range(b)], [[b + u] for u in range(b)], n)
        scorer = FixedScorer(rng.normal(size=(b, n)))
        tracemalloc.start()
        try:
            evaluate(scorer, ds, k=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * b * n * 8


class TestTopKSlices:
    """evaluate ranks a score block _TOP_K_ROWS rows at a time."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_slices_rank_as_one_call(self, monkeypatch, name):
        # 20 users: slices of 3 leave a short last one; 1 << 30 ranks them in one call
        rng = np.random.default_rng(37)
        b, n = 20, 60
        scores = tie_cases(rng, b=b, n=n)[name]
        train = [rng.choice(n, size=int(rng.integers(0, 30)), replace=False).tolist()
                 for _ in range(b)]
        test = [rng.choice(np.setdiff1d(np.arange(n), t), size=2, replace=False).tolist()
                for t in train]
        ds = build_dataset(train, test, n)
        masked = scores.copy()
        for u, items in enumerate(train):
            masked[u, items] = -np.inf
        order = reference_top_k(masked, 10)
        recall = np.mean([recall_at_k(order[u], test[u]) for u in range(b)])
        ndcg = np.mean([ndcg_at_k(order[u], test[u]) for u in range(b)])
        for rows in (3, 1 << 30):
            monkeypatch.setattr(metrics, "_TOP_K_ROWS", rows)
            report = evaluate(FixedScorer(scores), ds, k=10)
            assert report.recall == pytest.approx(recall, abs=1e-12)
            assert report.ndcg == pytest.approx(ndcg, abs=1e-12)


class RecordingScorer(FixedScorer):
    """A FixedScorer that records the size of every block it scores."""

    def __init__(self, table):
        super().__init__(table)
        self.blocks = []

    def score_block(self, users):
        self.blocks.append(len(users))
        return super().score_block(users)


class TestScoreBlocks:
    """evaluate scores blocks of at most _BLOCK_BYTES, one alive at a time."""

    def test_peak_is_one_block(self):
        b, n = 600, 20_000
        rng = np.random.default_rng(47)
        ds = build_dataset([[u] for u in range(b)], [[b + u] for u in range(b)], n)
        scorer = RecordingScorer(rng.normal(size=(b, n)))
        tracemalloc.start()
        try:
            evaluate(scorer, ds, k=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the block and one _top_k slice's one-byte mask fit the budget together
        assert max(scorer.blocks) * n * 8 + metrics._TOP_K_ROWS * n <= metrics._BLOCK_BYTES
        assert peak <= 1.1 * metrics._BLOCK_BYTES

    def test_wide_catalog_keeps_the_budget(self):
        # at Amazon-Books' 91,599 items fewer than _TOP_K_ROWS users fit the
        # budget, so each block is one _top_k slice and its mask counts too
        b, n, k = 64, 91_599, 20
        rng = np.random.default_rng(59)
        train = [[u] for u in range(b)]
        test = [rng.choice(np.arange(b, n), size=5, replace=False).tolist() for _ in range(b)]
        ds = build_dataset(train, test, n)
        scores = rng.normal(size=(b, n))
        scores[np.arange(b)[:, None], test] += 3.0  # some test items rank, some do not
        masked = scores.copy()
        masked[np.arange(b), np.arange(b)] = -np.inf
        order = reference_top_k(masked, k)
        del masked
        recall = np.mean([recall_at_k(order[u], test[u]) for u in range(b)])
        ndcg = np.mean([ndcg_at_k(order[u], test[u]) for u in range(b)])
        assert 0 < recall < 1
        scorer = RecordingScorer(scores)
        tracemalloc.start()
        try:
            report = evaluate(scorer, ds, k=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(scorer.blocks) < metrics._TOP_K_ROWS
        assert max(scorer.blocks) * n * 9 <= metrics._BLOCK_BYTES
        assert peak <= 1.1 * metrics._BLOCK_BYTES
        assert report.recall == pytest.approx(recall, abs=1e-12)
        assert report.ndcg == pytest.approx(ndcg, abs=1e-12)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_blocks_rank_as_one(self, monkeypatch, name):
        # 20 users: 3 rows and their slice's mask fill 3 * 9 * n bytes, and blocks
        # of 3 leave a short last one; 1 << 40 bytes holds them all
        rng = np.random.default_rng(53)
        b, n = 20, 60
        scores = tie_cases(rng, b=b, n=n)[name]
        train = [rng.choice(n, size=int(rng.integers(0, 30)), replace=False).tolist()
                 for _ in range(b)]
        test = [rng.choice(np.setdiff1d(np.arange(n), t), size=2, replace=False).tolist()
                for t in train]
        ds = build_dataset(train, test, n)
        masked = scores.copy()
        for u, items in enumerate(train):
            masked[u, items] = -np.inf
        order = reference_top_k(masked, 10)
        recall = np.mean([recall_at_k(order[u], test[u]) for u in range(b)])
        ndcg = np.mean([ndcg_at_k(order[u], test[u]) for u in range(b)])
        for rows, block_bytes, blocks in ((3, 3 * 9 * n, [3] * 6 + [2]), (32, 1 << 40, [20])):
            monkeypatch.setattr(metrics, "_TOP_K_ROWS", rows)
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
            scorer = RecordingScorer(scores)
            report = evaluate(scorer, ds, k=10)
            assert scorer.blocks == blocks
            assert report.recall == pytest.approx(recall, abs=1e-12)
            assert report.ndcg == pytest.approx(ndcg, abs=1e-12)

    def test_ranks_with_the_prepared_scorer(self):
        ds = build_dataset([[0], [1]], [[2], [3]], 4)

        class Prepared(RecordingScorer):
            def for_ranking(self):
                return self.ranked

        scorer = Prepared(np.zeros((2, 4)))
        scorer.ranked = RecordingScorer(np.eye(4)[[2, 3]])
        report = evaluate(scorer, ds, k=1)
        assert scorer.blocks == [] and scorer.ranked.blocks == [2]
        assert report.recall == 1.0

    @pytest.mark.parametrize("temperature", [1.0, 0.3])
    def test_cosine_matches_brute_force(self, rng, temperature):
        n_users, n_items, k = 9, 40, 7
        model = ScoringModel(rng.normal(size=(n_users, 5)), rng.normal(size=(n_items, 5)),
                             mode="cosine", temperature=temperature)
        model.user_embeddings[3] = 0.0  # a zero-norm user scores 0 against every item
        train = [rng.choice(n_items, size=4, replace=False).tolist() for _ in range(n_users)]
        test = [rng.choice(np.setdiff1d(np.arange(n_items), t), size=3, replace=False).tolist()
                for t in train]
        ds = build_dataset(train, test, n_items)
        recalls, ndcgs = [], []
        for u in range(n_users):
            uu = model.user_embeddings[u]
            scores = [float(uu @ v) / (max(math.sqrt(uu @ uu), 1e-12) * math.sqrt(v @ v))
                      / temperature for v in model.item_embeddings]
            _, recall, ndcg = brute_force_metrics(scores, train[u], set(test[u]), k)
            recalls.append(recall)
            ndcgs.append(ndcg)
        report = evaluate(model, ds, k=k)
        assert report.recall == pytest.approx(np.mean(recalls), abs=1e-12)
        assert report.ndcg == pytest.approx(np.mean(ndcgs), abs=1e-12)


class TestRecall:
    def test_half(self):
        assert recall_at_k([3, 7, 9], {3, 4}) == pytest.approx(0.5)

    def test_full(self):
        assert recall_at_k([3, 4, 9], {3, 4}) == pytest.approx(1.0)

    def test_disjoint(self):
        assert recall_at_k([1, 2], {5, 6}) == 0.0

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], set())


class TestNDCG:
    def test_rank_one(self):
        assert ndcg_at_k([4, 1, 2], {4}) == pytest.approx(1.0)

    def test_rank_two(self):
        assert ndcg_at_k([1, 4, 2], {4}) == pytest.approx(1 / math.log2(3))

    def test_permutation_complete(self):
        # all test items inside topk in any order -> 1.0
        assert ndcg_at_k([2, 0, 1], {0, 1, 2}) == pytest.approx(1.0)
        assert ndcg_at_k([1, 2, 0], {0, 1, 2}) == pytest.approx(1.0)

    def test_truncated_ideal(self):
        # |test| > k: ideal only spans the k slots actually available
        assert ndcg_at_k([5, 6], {5, 6, 7}) == pytest.approx(1.0)

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], set())


class TestEvaluate:
    def test_oracle_scorer_is_perfect(self):
        ds = build_dataset([[0], [1]], [[2, 3], [4]], 5)
        table = np.zeros((2, 5))
        table[0, [2, 3]] = 1.0
        table[1, 4] = 1.0
        report = evaluate(FixedScorer(table), ds, k=2)
        assert report.recall == pytest.approx(1.0)
        assert report.ndcg == pytest.approx(1.0)
        assert report.users_evaluated == 2

    def test_random_scorer_expectation(self):
        # |test_u| = 1, no train mask items in the way: E[recall@k] = k / (n - |train_u|)
        n_items, k, trials = 30, 5, 400
        ds = build_dataset([[0]], [[7]], n_items)
        rng = np.random.default_rng(11)
        hits = 0.0
        for _ in range(trials):
            hits += evaluate(FixedScorer(rng.random((1, n_items))), ds, k=k).recall
        expected = k / (n_items - 1)
        assert hits / trials == pytest.approx(expected, abs=0.035)

    def test_empty_test_users_excluded(self):
        ds = build_dataset([[0], [1], [2]], [[3], [], [4]], 5)
        report = evaluate(PopularityScorer(ds), ds, k=5)
        assert report.users_evaluated == 2

    def test_popularity_blocks_are_fresh_and_writable(self):
        # evaluate negates each block in place, so no block may be a view of
        # the scorer's counts or of another block
        ds = build_dataset([[0], [0, 1]], [[2], [3]], 4)
        scorer = PopularityScorer(ds)
        first, second = (scorer.score_block(np.array(us)) for us in ([0, 1], [0]))
        for block in (first, second):
            assert block.flags.writeable and block.dtype == np.float64
            assert not np.shares_memory(block, scorer.scores)
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        np.testing.assert_array_equal(second, [[2.0, 1.0, 0.0, 0.0]])

    def test_k_below_one_rejected(self):
        ds = build_dataset([[0], [1]], [[2], [3]], 4)
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(PopularityScorer(ds), ds, k=0)

    @pytest.mark.parametrize("as_rows", [False, True])
    def test_more_test_rows_than_users_rejected(self, as_rows):
        ds = build_dataset([[0], [1]], [[2], [2]], 3)
        tests = [[2], [2], [1]]
        if as_rows:
            tests = CSRRows.from_pairs([0, 1, 2], [2, 2, 1], 3, 3)
        with pytest.raises(ValueError, match="3 test rows for 2 users"):
            evaluate(PopularityScorer(ds), ds, tests, k=2)

    def test_fewer_test_rows_than_users_allowed(self):
        ds = build_dataset([[0], [1]], [[2], [2]], 3)
        assert evaluate(PopularityScorer(ds), ds, [[2]], k=2).users_evaluated == 1

    @pytest.mark.parametrize("width", [3, 5])
    def test_block_wider_or_narrower_than_catalog_rejected(self, width):
        ds = build_dataset([[0], [1]], [[2], [3]], 4)
        with pytest.raises(ValueError, match=r"\(2, %d\) score block .* catalog of 4 items" % width):
            evaluate(FixedScorer(np.ones((2, width))), ds, k=2)

    def test_no_evaluable_user_rejected(self):
        ds = build_dataset([[0], [1]], [[], []], 3)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(PopularityScorer(ds), ds, k=2)

    def test_validation_override_lists(self):
        ds = build_dataset([[0], [1]], [[], []], 4)
        val = [np.array([2]), np.array([], dtype=np.int64)]
        report = evaluate(FixedScorer(np.eye(2, 4, k=2)), ds, test_positives=val, k=1)
        assert report.users_evaluated == 1
        assert report.recall == pytest.approx(1.0)

    def test_monotone_transform_invariance(self, rng):
        ds = build_dataset(
            [[0, 1], [2], [3, 4]], [[5], [0, 6], [1]], 8
        )
        raw = rng.normal(size=(3, 8))
        base = evaluate(FixedScorer(raw), ds, k=3)
        for transform in (lambda s: 3 * s + 7, np.tanh, lambda s: np.exp(s / 2)):
            warped = evaluate(FixedScorer(transform(raw)), ds, k=3)
            assert warped.recall == base.recall
            assert warped.ndcg == base.ndcg

    def test_masked_items_never_ranked(self, rng):
        ds = build_dataset([[0, 1, 2, 3]], [[4]], 6)
        scorer = FixedScorer(rng.normal(size=(1, 6)) + 100.0)
        topk = rank_top_k(scorer, ds, 0, 2)
        assert not set(topk.tolist()) & {0, 1, 2, 3}

    def test_agrees_with_brute_force(self, rng):
        for _ in range(50):
            n_items = int(rng.integers(4, 12))
            k = int(rng.integers(1, n_items))
            train = rng.choice(n_items, size=int(rng.integers(0, 2)), replace=False)
            pool = np.setdiff1d(np.arange(n_items), train)
            test = rng.choice(pool, size=int(rng.integers(1, min(4, len(pool)) + 1)), replace=False)
            ds = build_dataset([train.tolist()], [test.tolist()], n_items)
            scores = np.round(rng.normal(size=n_items), 1)  # coarse grid forces ties
            report = evaluate(FixedScorer(scores[None, :]), ds, k=k)
            order, recall, ndcg = brute_force_metrics(scores, train, set(test.tolist()), k)
            assert rank_top_k(FixedScorer(scores[None, :]), ds, 0, k).tolist() == order
            assert report.recall == pytest.approx(recall, abs=1e-12)
            assert report.ndcg == pytest.approx(ndcg, abs=1e-12)


class TestReport:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(k=5, recall=1.2, ndcg=0.0, users_evaluated=1)

    def test_popularity_scorer_orders_by_count(self):
        ds = build_dataset([[2], [2], [1]], [[0], [1], [0]], 3)
        top = rank_top_k(PopularityScorer(ds), ds, 0, 2, mask_train=False)
        assert top.tolist() == [2, 1]
