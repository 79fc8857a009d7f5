"""Item samplers: distributions, determinism, edge cases."""

import numpy as np
import pytest
from scipy import stats as sps

from recloss import (
    BatchSampler,
    PopularitySampler,
    SamplerConfig,
    sample_popularity,
    sample_unlabeled,
    sample_unlabeled_excluding,
    sample_user_positives,
    substream,
)
from conftest import build_dataset


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
        cfg = SamplerConfig(**kw)
        return BatchSampler(ds, cfg, substream(cfg.seed, "sampling"))

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
