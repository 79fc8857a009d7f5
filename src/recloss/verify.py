"""Randomized property checks: loss inequalities and linear-model theorems.

Each driver draws its own instances from a seed, tracks the worst-case
slack or deviation, and reports pass/fail against a tolerance pinned below.
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

__all__ = [
    "PropertyReport", "run_verification", "verify_bound_chain", "verify_theorem1",
    "verify_theorem2", "write_report",
]

# The drivers' score range, parameter grids and tolerances.  A bound-chain
# slack passes at or above BOUND_TOLERANCE (zero up to float noise); a
# theorem's deviation passes at or below its tolerance.
BOUND_MAX_N = 64
BOUND_SCORE_RANGE = (-10.0, 10.0)
BOUND_TOLERANCE = -1e-9
THEOREM1_ALPHA0 = (0.05, 0.1, 0.5)
THEOREM1_C_U = (1.2, 1.5, 2.0)
THEOREM1_TOLERANCE = 1e-8
THEOREM2_ALPHAS = (0.1, 0.3, 0.6)
THEOREM2_SCALE_TOLERANCE = 1e-10
THEOREM2_ORACLE_TOLERANCE = 1e-4


@dataclass
class PropertyReport:
    name: str
    passed: bool
    worst: float
    tolerance: float
    instances: int


def _report(name: str, worst: float, tolerance: float, instances: int,
            floor: bool = False) -> PropertyReport:
    """A deviation passes at or below its tolerance; a slack, a `floor`, at or above it."""
    passed = worst >= tolerance if floor else worst <= tolerance
    return PropertyReport(name, bool(passed), worst, tolerance, instances)


def _require_instances(count: int, key: str) -> None:
    """A check over zero instances checks nothing, so it must not report a pass."""
    if count < 1:
        raise ValueError(f"{key} must be >= 1, got {count}")


def verify_bound_chain(num_instances: int, seed: int = 0) -> list[PropertyReport]:
    """Slack of every loss inequality over random score bundles."""
    _require_instances(num_instances, "verify.bound_instances")
    rng = substream(seed, "verify-bounds")
    worst = {name: np.inf for name in BOUND_NAMES}
    for _ in range(num_instances):
        n = int(rng.integers(1, BOUND_MAX_N + 1))
        pos = float(rng.uniform(*BOUND_SCORE_RANGE))
        unl = rng.uniform(*BOUND_SCORE_RANGE, size=n)
        slacks = losses.bound_chain_slacks(ScoreBundle(pos, unl))
        for name in BOUND_NAMES:
            worst[name] = min(worst[name], float(slacks[name]))
    return [_report(f"bound/{name}", worst[name], BOUND_TOLERANCE, num_instances, floor=True)
            for name in BOUND_NAMES]


def _random_interactions(rng, num_users, num_items, p=0.4) -> np.ndarray:
    X = (rng.random((num_users, num_items)) < p).astype(float)
    for u in range(num_users):
        if X[u].sum() == 0:
            X[u, rng.integers(0, num_items)] = 1.0
    return X


def verify_theorem1(num_instances: int, seed: int = 0) -> PropertyReport:
    """Debiased-iALS closed form equals the rescaled original closed form."""
    _require_instances(num_instances, "verify.theorem_instances")
    rng = substream(seed, "verify-thm1")
    worst = 0.0
    for k in range(num_instances):
        nu_users = int(rng.integers(5, 11))
        n_items = int(rng.integers(6, 13))
        d = int(rng.integers(2, 6))
        X = _random_interactions(rng, nu_users, n_items)
        alpha0 = THEOREM1_ALPHA0[k % len(THEOREM1_ALPHA0)]
        c_u = THEOREM1_C_U[(k // len(THEOREM1_ALPHA0)) % len(THEOREM1_C_U)]
        dev = check_theorem1(X, d=d, alpha0=alpha0, c_u=c_u, lam=0.01, seed=int(rng.integers(1 << 31)))
        worst = max(worst, dev)
    return _report("theorem1/ials-rescaling", worst, THEOREM1_TOLERANCE, num_instances)


def verify_theorem2(num_instances: int, seed: int = 0) -> list[PropertyReport]:
    """Debiased EASE vs rescaled EASE and vs an L-BFGS minimizer of the
    debiased objective, on every instance."""
    _require_instances(num_instances, "verify.theorem_instances")
    rng = substream(seed, "verify-thm2")
    worst_scale, worst_oracle = 0.0, 0.0
    for k in range(num_instances):
        n_users = int(rng.integers(5, 9))
        n_items = int(rng.integers(4, 9))
        X = _random_interactions(rng, n_users, n_items, p=0.5)
        lam = float(rng.uniform(0.3, 2.0))
        scale_dev, oracle_dev = check_theorem2(X, lam, THEOREM2_ALPHAS[k % len(THEOREM2_ALPHAS)])
        worst_scale = max(worst_scale, scale_dev)
        worst_oracle = max(worst_oracle, oracle_dev)
    return [
        _report("theorem2/ease-scale", worst_scale, THEOREM2_SCALE_TOLERANCE, num_instances),
        _report("theorem2/ease-optimizer-oracle", worst_oracle, THEOREM2_ORACLE_TOLERANCE,
                num_instances),
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
