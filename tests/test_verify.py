"""Property-check drivers: reports, determinism, and mutation detection."""

import json

import numpy as np
import pytest

from recloss import (
    BOUND_NAMES,
    LossEvaluation,
    run_verification,
    verify_bound_chain,
    verify_theorem1,
    verify_theorem2,
    write_report,
)


class TestBoundChainDriver:
    def test_small_run_passes(self):
        reports = verify_bound_chain(num_instances=300, seed=0)
        assert len(reports) == len(BOUND_NAMES)
        assert all(r.passed for r in reports)
        assert {r.name for r in reports} == {f"bound/{n}" for n in BOUND_NAMES}

    def test_deterministic_worsts(self):
        a = verify_bound_chain(num_instances=200, seed=4)
        b = verify_bound_chain(num_instances=200, seed=4)
        assert [r.worst for r in a] == [r.worst for r in b]

    def test_mutated_loss_is_caught(self, monkeypatch):
        # flip the sign of the decoupled loss: several inequalities collapse
        import recloss.losses as losses

        real = losses.mine

        def broken(b, normalized=False):
            ev = real(b, normalized)
            return LossEvaluation(
                value=-np.asarray(ev.value), d_pos=ev.d_pos,
                d_unlabeled=ev.d_unlabeled,
            )

        monkeypatch.setattr(losses, "mine", broken)
        reports = verify_bound_chain(num_instances=100, seed=0)
        assert any(not r.passed for r in reports)


class TestTheoremDrivers:
    def test_theorem1_small_run(self):
        report = verify_theorem1(num_instances=10, seed=1)
        assert report.passed
        assert report.worst <= report.tolerance
        assert report.instances == 10

    def test_theorem2_small_run(self):
        scale, oracle = verify_theorem2(num_instances=6, seed=1)
        assert scale.passed and oracle.passed
        assert oracle.instances == 6


@pytest.mark.parametrize("check, key", [
    (verify_bound_chain, "verify.bound_instances"),
    (verify_theorem1, "verify.theorem_instances"),
    (verify_theorem2, "verify.theorem_instances"),
])
def test_property_check_rejects_zero_instances(check, key):
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        check(num_instances=0)


class TestRunVerification:
    def test_report_shape_and_json(self, tmp_path):
        report = run_verification(bound_instances=100, theorem_instances=4, seed=2)
        assert report["passed"] is True
        assert len(report["properties"]) == len(BOUND_NAMES) + 3
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == report

    @pytest.mark.parametrize("counts, key", [
        ({"bound_instances": 0}, "verify.bound_instances"),
        ({"theorem_instances": -1}, "verify.theorem_instances"),
    ])
    def test_counts_below_one_rejected(self, counts, key):
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            run_verification(**counts)
