"""The package's export surface: each module names its public objects once,
in its own ``__all__``, and the package exports their union."""

import ast
import importlib
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
