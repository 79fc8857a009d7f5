"""Synthetic generators: planted-block structure and the random smoke set."""

import numpy as np
import pytest

from recloss import evaluate, make_planted_blocks, make_random_dataset


class BlockScorer:
    """Oracle that scores 1 for in-block items, 0 elsewhere."""

    def __init__(self, planted):
        self.user_blocks = planted.user_blocks
        self.item_blocks = planted.item_blocks

    def score_block(self, users):
        return (self.item_blocks == self.user_blocks[users, None]).astype(float)


class TestPlantedBlocks:
    def test_every_user_has_train_and_test(self, planted):
        ds = planted.dataset
        for u in range(ds.num_users):
            assert len(ds.train_positives[u]) >= 1
            assert len(ds.test_positives[u]) >= 1

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            make_planted_blocks(num_users=10, num_items=11, num_blocks=3)

    def test_deterministic(self):
        a = make_planted_blocks(num_users=20, num_items=30, num_blocks=2, seed=5)
        b = make_planted_blocks(num_users=20, num_items=30, num_blocks=2, seed=5)
        for u in range(20):
            assert np.array_equal(a.dataset.train_positives[u], b.dataset.train_positives[u])

    def test_blocks_cover_evenly(self, planted):
        counts = np.bincount(planted.user_blocks)
        assert len(set(counts.tolist())) == 1
        counts = np.bincount(planted.item_blocks)
        assert len(set(counts.tolist())) == 1

    def test_interactions_mostly_in_block(self, planted):
        ds = planted.dataset
        in_block = 0
        total = 0
        for u in range(ds.num_users):
            items = ds.train_positives[u]
            in_block += int(np.sum(planted.item_blocks[items] == planted.user_blocks[u]))
            total += len(items)
        # expectation is 0.8 for the fixture parameters; leave sampling room
        assert in_block / total > 0.7

    def test_ideal_scorer_is_strong(self, planted):
        report = evaluate(BlockScorer(planted), planted.dataset, k=20)
        assert report.recall > 0.6


class TestRandomDataset:
    def test_density_roughly_matches(self):
        ds = make_random_dataset(50, 80, density=0.2, test_fraction=0.0, seed=1)
        observed = ds.train_interactions / (50 * 80)
        assert observed == pytest.approx(0.2, abs=0.04)

    def test_validates(self):
        ds = make_random_dataset(10, 15, density=0.3, seed=2)
        ds.validate()
        assert ds.train_interactions >= 10  # every user keeps >= 1 item
