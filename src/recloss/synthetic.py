"""Synthetic interaction generators with recoverable structure.

The planted-block construction partitions users and items into aligned
groups; users interact mostly inside their own block plus uniform noise.
Any reasonable model should push in-block test items to the top of the
ranking, which gives integration tests a target that is demanding but not
seed-brittle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset, hold_out
from .sampling import substream


@dataclass
class PlantedBlocks:
    dataset: InteractionDataset
    user_blocks: np.ndarray
    item_blocks: np.ndarray

    def ideal_scorer(self) -> "BlockScorer":
        return BlockScorer(self.user_blocks, self.item_blocks)


class BlockScorer:
    """Oracle that scores 1 for in-block items, 0 elsewhere."""

    def __init__(self, user_blocks: np.ndarray, item_blocks: np.ndarray):
        self.user_blocks = user_blocks
        self.item_blocks = item_blocks

    def score_all(self, u: int) -> np.ndarray:
        return (self.item_blocks == self.user_blocks[u]).astype(float)


def make_planted_blocks(
    num_users: int = 200,
    num_items: int = 300,
    num_blocks: int = 5,
    in_block_p: float = 0.8,
    noise_p: float = 0.05,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> PlantedBlocks:
    if num_items % num_blocks or num_users % num_blocks:
        raise ValueError("num_users and num_items must divide evenly into blocks")
    rng = substream(seed, "splits")
    user_blocks = np.repeat(np.arange(num_blocks), num_users // num_blocks)
    item_blocks = np.repeat(np.arange(num_blocks), num_items // num_blocks)
    in_block = item_blocks == user_blocks[:, None]
    liked = rng.random((num_users, num_items)) < np.where(in_block, in_block_p, noise_p)
    # guarantee at least one train and one test item per user: a user with
    # fewer than two likes gets two random in-block items instead
    few = np.flatnonzero(liked.sum(axis=1) < 2)
    block_size = num_items // num_blocks
    picks = np.argsort(rng.random((len(few), block_size)), axis=1)[:, :2]
    liked[few] = False
    liked[few[:, None], user_blocks[few, None] * block_size + picks] = True
    n = liked.sum(axis=1)
    n_test = np.minimum(np.maximum(1, np.round(test_fraction * n)), n - 1).astype(np.int64)
    ds = _split_test(liked, n_test, rng)
    return PlantedBlocks(dataset=ds, user_blocks=user_blocks, item_blocks=item_blocks)


def make_random_dataset(
    num_users: int,
    num_items: int,
    density: float = 0.1,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> InteractionDataset:
    """Unstructured uniform interactions; useful for smoke tests only."""
    rng = substream(seed, "splits")
    liked = rng.random((num_users, num_items)) < density
    empty = np.flatnonzero(~liked.any(axis=1))
    liked[empty, rng.integers(0, num_items, size=len(empty))] = True
    n = liked.sum(axis=1)
    n_test = np.minimum(np.round(test_fraction * n), n - 1).astype(np.int64)
    return _split_test(liked, n_test, rng)


def _split_test(liked: np.ndarray, n_test: np.ndarray, rng: np.random.Generator) -> InteractionDataset:
    """The dataset of a (users x items) like matrix with a uniform subset of
    n_test[u] of user u's likes moved to the test partition."""
    users, items = np.nonzero(liked)
    test = hold_out(users, n_test, rng)
    return InteractionDataset.from_pairs(
        *liked.shape, (users[~test], items[~test]), (users[test], items[test])
    )


# data.synthetic.kind -> its generator; a kind takes exactly its generator's keywords
SYNTHETIC_KINDS = {"planted": make_planted_blocks, "random": make_random_dataset}
DEFAULT_SYNTHETIC_KIND = "planted"


def synthetic_dataset(kind: str = DEFAULT_SYNTHETIC_KIND, **params) -> InteractionDataset:
    """The dataset that a data.synthetic table describes."""
    built = SYNTHETIC_KINDS[kind](**params)
    return built.dataset if isinstance(built, PlantedBlocks) else built
