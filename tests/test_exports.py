"""The package's export surface: each module names its public objects once,
in its own ``__all__``, and the package exports their union."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import recloss

EXPORTED = {
    "BOUND_NAMES", "BatchSampler", "CSRRows", "CheckpointFormatError",
    "DEBIASED_KINDS", "DatasetFormatError", "DatasetStats", "DebiasParams", "EASEScorer",
    "IALSConfig", "IALSState", "InteractionDataset",
    "LOSS_KINDS", "LossEvaluation", "MetricsReport", "OptimizerState", "PlateauSchedule",
    "PopularitySampler", "PropertyReport", "SAMPLER_KINDS", "SamplerConfig",
    "ScoreBundle", "ScoringModel", "TrainConfig", "TrainingDivergedError", "TrainingHistory",
    "__version__", "adam_step", "batch_objective", "bound_chain_slacks", "bpr", "ccl",
    "check_theorem1", "check_theorem2", "dataset_stats", "dcl", "debiased_ccl",
    "debiased_infonce", "debiased_mse", "ease_debiased_fit", "ease_fit", "evaluate",
    "evaluate_loss", "fit", "ials_fit", "ials_objective", "infonce", "infonce_plus", "init_model",
    "load_checkpoint", "load_dataset", "make_planted_blocks", "make_random_dataset",
    "make_validation_split", "mine", "mine_plus", "mse_pointwise", "positive_prior_all",
    "run_verification", "sampled_softmax", "save_checkpoint",
    "substream", "train_epoch", "verify_bound_chain", "verify_theorem1", "verify_theorem2",
    "write_report",
}
MODULES = ("checkpoint", "data", "linear", "losses", "metrics", "mf", "sampling", "synthetic",
           "verify")


def top_level_names(path: Path) -> set[str]:
    """The names a module's source binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_exports_each_name_once():
    assert len(recloss.__all__) == len(set(recloss.__all__))
    assert set(recloss.__all__) == EXPORTED


def test_every_export_resolves():
    assert [name for name in recloss.__all__ if not hasattr(recloss, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_what_it_defines(name):
    module = importlib.import_module(f"recloss.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) <= top_level_names(Path(module.__file__))
    for export in module.__all__:
        assert getattr(recloss, export) is getattr(module, export)


# SciPy modules that load at their one call site, not when the package is imported
DEFERRED = ("scipy.optimize", "scipy.special", "scipy.linalg")

IMPORT_THEN_CALL = textwrap.dedent("""
    import sys

    import numpy as np

    import recloss
    import recloss.cli

    deferred = sys.argv[1].split(",")
    assert [m for m in deferred if m in sys.modules] == [], sorted(sys.modules)

    # each call site still imports what it calls
    rng = np.random.default_rng(5)
    X = (rng.random((6, 8)) < 0.4).astype(float)
    scale_dev, oracle_dev = recloss.check_theorem2(X, lam=0.5, alpha=0.4, run_oracle=True)
    assert scale_dev < 1e-10 and oracle_dev < 1e-4, (scale_dev, oracle_dev)
    b = recloss.ScoreBundle(np.array([0.5, -1.0]), np.array([[0.2, 1.5], [-2.0, 0.0]]))
    ev = recloss.evaluate_loss("bpr", b)
    gaps = b.unlabeled_scores - b.pos_score[:, None]
    assert np.allclose(ev.value, np.log1p(np.exp(gaps)).sum(axis=1), rtol=1e-14, atol=0)
    assert np.allclose(ev.d_unlabeled, 1 / (1 + np.exp(-gaps)), rtol=1e-14, atol=0)
    W = recloss.ease_fit(X, 0.5).W
    assert W.shape == (8, 8) and not np.diag(W).any()
    assert [m for m in deferred if m not in sys.modules] == []
""")


def test_import_defers_scipy_optimize_special_and_linalg():
    src = str(Path(recloss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", IMPORT_THEN_CALL, ",".join(DEFERRED)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
