"""Item samplers: distributions, determinism, edge cases."""

import numpy as np
import pytest
from scipy import stats as sps

from recloss import (
    BatchSampler,
    PopularitySampler,
    SamplerConfig,
    substream,
)
from conftest import build_dataset


# The per-user samplers the vectorised BatchSampler replaced, kept as oracles.

def sample_unlabeled(ds, u: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws over the full catalog (may include u's positives)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, ds.num_items, size=n)


def sample_unlabeled_excluding(ds, u: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws over items outside u's train positives (rejection)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    positives = set(ds.train_positives[u].tolist())
    if len(positives) >= ds.num_items:
        raise ValueError(f"user {u} has interacted with every item; nothing to sample")
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        draws = rng.integers(0, ds.num_items, size=2 * (n - filled))
        keep = [d for d in draws.tolist() if d not in positives]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_user_positives(ds, u: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform draws with replacement from u's train positives."""
    positives = ds.train_positives[u]
    if len(positives) == 0:
        raise ValueError(f"user {u} has no train positives; skip this user")
    return positives[rng.integers(0, len(positives), size=m)]


def sample_popularity(ds, n: int, rng: np.random.Generator) -> np.ndarray:
    """n popularity-proportional draws (convenience one-shot form)."""
    return PopularitySampler(ds).sample(n, rng)


class TestSubstream:
    def test_deterministic_per_name(self):
        a = substream(42, "sampling").random(5)
        b = substream(42, "sampling").random(5)
        assert np.array_equal(a, b)

    def test_names_give_distinct_streams(self):
        a = substream(42, "sampling").random(5)
        b = substream(42, "init").random(5)
        assert not np.array_equal(a, b)

    def test_seeds_give_distinct_streams(self):
        a = substream(1, "sampling").random(5)
        b = substream(2, "sampling").random(5)
        assert not np.array_equal(a, b)


class TestUniform:
    def test_single_item_universe(self):
        ds = build_dataset([[0]], [[]], 1)
        draws = sample_unlabeled(ds, 0, 5, np.random.default_rng(0))
        assert draws.tolist() == [0, 0, 0, 0, 0]

    def test_in_range(self, tiny_ds, rng):
        draws = sample_unlabeled(tiny_ds, 0, 1000, rng)
        assert draws.min() >= 0 and draws.max() < tiny_ds.num_items

    def test_roughly_uniform(self, rng):
        ds = build_dataset([[0]], [[]], 8)
        draws = sample_unlabeled(ds, 0, 8000, rng)
        counts = np.bincount(draws, minlength=8)
        _, p = sps.chisquare(counts)
        assert p > 1e-4

    def test_deterministic(self, tiny_ds):
        a = sample_unlabeled(tiny_ds, 0, 20, np.random.default_rng(9))
        b = sample_unlabeled(tiny_ds, 0, 20, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_zero_draws_rejected(self, tiny_ds, rng):
        with pytest.raises(ValueError):
            sample_unlabeled(tiny_ds, 0, 0, rng)


class TestExcluding:
    def test_never_returns_positives(self, tiny_ds, rng):
        draws = sample_unlabeled_excluding(tiny_ds, 0, 500, rng)
        assert not np.intersect1d(draws, tiny_ds.train_positives[0]).size

    def test_saturated_user_rejected(self, rng):
        ds = build_dataset([[0, 1]], [[]], 2)
        with pytest.raises(ValueError, match="every item"):
            sample_unlabeled_excluding(ds, 0, 1, rng)


class TestUserPositives:
    def test_single_positive_repeats(self, rng):
        ds = build_dataset([[7], [0]], [[], []], 8)
        assert sample_user_positives(ds, 0, 3, rng).tolist() == [7, 7, 7]

    def test_draws_come_from_positives(self, tiny_ds, rng):
        draws = sample_user_positives(tiny_ds, 0, 200, rng)
        assert set(draws.tolist()) <= set(tiny_ds.train_positives[0].tolist())

    def test_empty_positives_rejected(self, rng):
        ds = build_dataset([[0], []], [[], [0]], 2)
        with pytest.raises(ValueError, match="no train positives"):
            sample_user_positives(ds, 1, 1, rng)


class TestPopularity:
    def test_add_one_probabilities(self):
        # popularity [3, 1] -> weights [4, 2] -> probabilities [2/3, 1/3]
        ds = build_dataset([[0], [0], [0, 1]], [[], [], []], 2)
        sampler = PopularitySampler(ds)
        assert sampler.probabilities == pytest.approx([4 / 6, 2 / 6])

    def test_empirical_frequencies(self, rng):
        ds = build_dataset([[0], [0], [0, 1]], [[], [], []], 2)
        draws = sample_popularity(ds, 9000, rng)
        freq = np.bincount(draws, minlength=2) / 9000
        assert freq == pytest.approx([2 / 3, 1 / 3], abs=0.02)

    def test_single_item_catalog(self, rng):
        ds = build_dataset([[0], [0]], [[], []], 1)
        assert set(sample_popularity(ds, 50, rng).tolist()) == {0}


class TestBatchSampler:
    def make(self, ds, **kw):
        return BatchSampler(ds, SamplerConfig(**kw), substream(0, "sampling"))

    def test_negative_shape(self, tiny_ds):
        sampler = self.make(tiny_ds, kind="uniform_all_items", n_negatives=4)
        neg = sampler.negatives(np.array([0, 1, 2]))
        assert neg.shape == (3, 4)
        assert neg.min() >= 0 and neg.max() < tiny_ds.num_items

    def test_extra_positive_shape(self, tiny_ds):
        sampler = self.make(tiny_ds, m_positives=2)
        extra = sampler.extra_positives(np.array([0, 1]))
        assert extra.shape == (2, 2)
        for row, u in zip(extra, [0, 1]):
            assert set(row.tolist()) <= set(tiny_ds.train_positives[u].tolist())

    def test_share_batch_duplicates_rows(self, tiny_ds):
        sampler = self.make(tiny_ds, n_negatives=6, share_batch=True)
        neg = sampler.negatives(np.array([0, 1, 2]))
        assert (neg == neg[0]).all()

    @pytest.mark.parametrize("kind", ["uniform_all_items", "popularity"])
    def test_shared_row_is_one_draw(self, tiny_ds, kind):
        users = np.array([0, 1, 2])
        shared = self.make(tiny_ds, kind=kind, n_negatives=6, share_batch=True).negatives(users)
        single = self.make(tiny_ds, kind=kind, n_negatives=6).negatives(users[:1])
        assert np.array_equal(shared, np.repeat(single, 3, axis=0))

    def test_share_batch_cannot_exclude_positives(self):
        with pytest.raises(ValueError, match="share_batch"):
            SamplerConfig(kind="uniform_excluding_user_positives", share_batch=True)

    def test_excluding_kind_avoids_positives(self, tiny_ds):
        sampler = self.make(
            tiny_ds, kind="uniform_excluding_user_positives", n_negatives=50
        )
        neg = sampler.negatives(np.array([0, 1]))
        for row, u in zip(neg, [0, 1]):
            assert not np.intersect1d(row, tiny_ds.train_positives[u]).size

    def excluding(self, ds, n, seed=0):
        cfg = SamplerConfig(kind="uniform_excluding_user_positives", n_negatives=n)
        return BatchSampler(ds, cfg, np.random.default_rng(seed))

    def test_excluding_one_free_item_is_always_drawn(self):
        ds = build_dataset([[0, 1, 2, 4, 5], [3]], [[], []], 6)
        neg = self.excluding(ds, 40).negatives(np.array([0, 1, 0]))
        assert (neg[[0, 2]] == 3).all()
        assert not (neg[1] == 3).any()

    def test_excluding_saturated_user_named(self):
        ds = build_dataset([[0], [0, 1, 2]], [[], []], 3)
        with pytest.raises(ValueError, match="user 1 has interacted with every item"):
            self.excluding(ds, 2).negatives(np.array([0, 1]))

    def test_excluding_duplicate_users_in_batch(self):
        ds = build_dataset([[0, 1, 2], [3, 4, 5], [0, 5]], [[], [], []], 8)
        users = np.array([1, 1, 0, 1, 2, 0, 2])
        neg = self.excluding(ds, 30).negatives(users)
        assert neg.shape == (7, 30)
        for row, u in zip(neg, users):
            assert not np.intersect1d(row, ds.train_positives[u]).size

    def test_excluding_is_uniform_over_the_complement(self):
        ds = build_dataset([[1, 4, 6], [0]], [[], []], 8)
        batched = self.excluding(ds, 9000).negatives(np.array([0]))[0]
        oracle = sample_unlabeled_excluding(ds, 0, 9000, np.random.default_rng(1))
        want = np.array([1, 0, 1, 1, 0, 1, 0, 1]) / 5
        for draws in (batched, oracle):
            freq = np.bincount(draws, minlength=8) / 9000
            assert freq == pytest.approx(want, abs=0.02)

    def test_extra_positives_uniform_over_own_positives(self, tiny_ds):
        sampler = self.make(tiny_ds, m_positives=6000)
        batched = sampler.extra_positives(np.array([0]))[0]
        oracle = sample_user_positives(tiny_ds, 0, 6000, np.random.default_rng(1))
        for draws in (batched, oracle):
            freq = np.bincount(draws, minlength=5) / 6000
            assert freq == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0, 0], abs=0.03)

    def test_extra_positives_names_user_without_positives(self):
        ds = build_dataset([[0], [], [1]], [[], [0], []], 2)
        with pytest.raises(ValueError, match="user 1 has no train positives"):
            self.make(ds, m_positives=2).extra_positives(np.array([0, 2, 1]))

    def test_popularity_kind_runs(self, tiny_ds):
        sampler = self.make(tiny_ds, kind="popularity", n_negatives=3)
        assert sampler.negatives(np.array([0, 1, 2])).shape == (3, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            SamplerConfig(kind="bogus")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_negatives=0)
        with pytest.raises(ValueError):
            SamplerConfig(m_positives=-1)
