"""Randomized property checks: loss inequalities and linear-model theorems.

Each driver draws its own instances from a seed, tracks the worst-case
slack or deviation, and reports pass/fail against a pinned tolerance.
The CLI `verify` subcommand serializes the reports to JSON and exits
nonzero when any property fails.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import losses
from .data import _atomic_write
from .linear import check_theorem1, check_theorem2
from .losses import BOUND_NAMES, ScoreBundle
from .sampling import substream


@dataclass
class PropertyReport:
    name: str
    passed: bool
    worst: float
    tolerance: float
    instances: int


def _require_instances(count: int, key: str) -> None:
    """A check over zero instances checks nothing, so it must not report a pass."""
    if count < 1:
        raise ValueError(f"{key} must be >= 1, got {count}")


def verify_bound_chain(
    num_instances: int = 10_000,
    seed: int = 0,
    max_n: int = 64,
    score_low: float = -10.0,
    score_high: float = 10.0,
    tolerance: float = -1e-9,
) -> list[PropertyReport]:
    """Slack of every loss inequality over random score bundles; all slacks
    must stay above `tolerance` (zero up to float noise)."""
    _require_instances(num_instances, "verify.bound_instances")
    rng = substream(seed, "verify-bounds")
    worst = {name: np.inf for name in BOUND_NAMES}
    for _ in range(num_instances):
        n = int(rng.integers(1, max_n + 1))
        pos = float(rng.uniform(score_low, score_high))
        unl = rng.uniform(score_low, score_high, size=n)
        slacks = losses.bound_chain_slacks(ScoreBundle(pos, unl))
        for name in BOUND_NAMES:
            worst[name] = min(worst[name], float(slacks[name]))
    return [
        PropertyReport(
            name=f"bound/{name}",
            passed=bool(worst[name] >= tolerance),
            worst=worst[name],
            tolerance=tolerance,
            instances=num_instances,
        )
        for name in BOUND_NAMES
    ]


def _random_interactions(rng, num_users, num_items, p=0.4) -> np.ndarray:
    X = (rng.random((num_users, num_items)) < p).astype(float)
    for u in range(num_users):
        if X[u].sum() == 0:
            X[u, rng.integers(0, num_items)] = 1.0
    return X


def verify_theorem1(
    num_instances: int = 50,
    seed: int = 0,
    alpha0_values: tuple = (0.05, 0.1, 0.5),
    c_u_values: tuple = (1.2, 1.5, 2.0),
    tolerance: float = 1e-8,
) -> PropertyReport:
    """Debiased-iALS closed form equals the rescaled original closed form."""
    _require_instances(num_instances, "verify.theorem_instances")
    rng = substream(seed, "verify-thm1")
    worst = 0.0
    for k in range(num_instances):
        nu_users = int(rng.integers(5, 11))
        n_items = int(rng.integers(6, 13))
        d = int(rng.integers(2, 6))
        X = _random_interactions(rng, nu_users, n_items)
        alpha0 = alpha0_values[k % len(alpha0_values)]
        c_u = c_u_values[(k // len(alpha0_values)) % len(c_u_values)]
        dev = check_theorem1(X, d=d, alpha0=alpha0, c_u=c_u, lam=0.01, seed=int(rng.integers(1 << 31)))
        worst = max(worst, dev)
    return PropertyReport(
        name="theorem1/ials-rescaling",
        passed=bool(worst <= tolerance),
        worst=worst,
        tolerance=tolerance,
        instances=num_instances,
    )


def verify_theorem2(
    num_instances: int = 50,
    seed: int = 0,
    alphas: tuple = (0.1, 0.3, 0.6),
    scale_tolerance: float = 1e-10,
    oracle_tolerance: float = 1e-4,
    oracle_every: int = 1,
) -> list[PropertyReport]:
    """Debiased EASE vs rescaled EASE (all instances) and vs an L-BFGS
    minimizer of the debiased objective (every `oracle_every`-th instance)."""
    _require_instances(num_instances, "verify.theorem_instances")
    rng = substream(seed, "verify-thm2")
    worst_scale, worst_oracle, oracle_runs = 0.0, 0.0, 0
    for k in range(num_instances):
        n_users = int(rng.integers(5, 9))
        n_items = int(rng.integers(4, 9))
        X = _random_interactions(rng, n_users, n_items, p=0.5)
        lam = float(rng.uniform(0.3, 2.0))
        alpha = alphas[k % len(alphas)]
        run_oracle = (k % oracle_every) == 0
        scale_dev, oracle_dev = check_theorem2(X, lam, alpha, run_oracle=run_oracle)
        worst_scale = max(worst_scale, scale_dev)
        if run_oracle:
            worst_oracle = max(worst_oracle, oracle_dev)
            oracle_runs += 1
    return [
        PropertyReport(
            name="theorem2/ease-scale",
            passed=bool(worst_scale <= scale_tolerance),
            worst=worst_scale,
            tolerance=scale_tolerance,
            instances=num_instances,
        ),
        PropertyReport(
            name="theorem2/ease-optimizer-oracle",
            passed=bool(worst_oracle <= oracle_tolerance),
            worst=worst_oracle,
            tolerance=oracle_tolerance,
            instances=oracle_runs,
        ),
    ]


def run_verification(
    bound_instances: int = 10_000,
    theorem_instances: int = 50,
    seed: int = 0,
) -> dict:
    _require_instances(bound_instances, "verify.bound_instances")
    _require_instances(theorem_instances, "verify.theorem_instances")
    reports = (
        verify_bound_chain(bound_instances, seed=seed)
        + [verify_theorem1(theorem_instances, seed=seed)]
        + verify_theorem2(theorem_instances, seed=seed)
    )
    return {
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "properties": [asdict(r) for r in reports],
    }


def write_report(report: dict, path) -> None:
    with _atomic_write(path) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
