"""Top-k ranking and recall/NDCG against brute-force references."""

import math

import numpy as np
import pytest

from recloss import (
    MetricsReport,
    PopularityScorer,
    evaluate,
    ndcg_at_k,
    rank_top_k,
    recall_at_k,
)
from conftest import build_dataset


class FixedScorer:
    """Score table indexed by user; optionally exposes the block interface."""

    def __init__(self, table, with_block=True):
        self.table = np.asarray(table, dtype=float)
        if with_block:
            self.score_block = self._score_block

    def score_all(self, u):
        return self.table[u]

    def _score_block(self, users):
        return self.table[np.asarray(users)]


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

    def test_k_below_one_rejected(self):
        ds = build_dataset([[0], [1]], [[2], [3]], 4)
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(PopularityScorer(ds), ds, k=0)

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

    def test_score_all_fallback_matches_block(self, rng):
        ds = build_dataset([[0], [1], [2]], [[3], [4], [0]], 6)
        table = rng.normal(size=(3, 6))
        with_block = evaluate(FixedScorer(table, with_block=True), ds, k=3)
        without = evaluate(FixedScorer(table, with_block=False), ds, k=3)
        assert with_block == without

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
