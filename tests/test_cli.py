"""End-to-end command-line runs on tiny datasets."""

import concurrent.futures
import json
import os
import re

import numpy as np
import pytest

import recloss.cli
import recloss.verify
from recloss.checkpoint import load_checkpoint
from recloss.cli import BLAS_ENV_VARS, EVAL_HEADER, main
from recloss.config import DEFAULTS
from recloss.data import InteractionDataset, load_dataset
from recloss.linear import (
    LINEAR_MODELS, EASEScorer, IALSConfig, ease_debiased_fit, ease_fit, ials_fit,
)
from recloss.metrics import evaluate
from recloss.mf import ScoringModel
from recloss.synthetic import synthetic_dataset

TRAIN_TEXT = "0 1 2 3\n1 0 2\n2 3 4\n3 0 4\n"
TEST_TEXT = "0 4\n1 3\n2 0\n3 1\n"

# small planted dataset + short schedule so every command finishes in well
# under a second
SYNTH = [
    "--set", "data.synthetic.kind=planted",
    "--set", "data.synthetic.num_users=24",
    "--set", "data.synthetic.num_items=30",
    "--set", "data.synthetic.num_blocks=3",
    "--set", "data.synthetic.in_block_p=0.5",
    "--set", "data.synthetic.noise_p=0.05",
    "--set", "data.synthetic.test_fraction=0.25",
]
FAST = [
    "--set", "train.max_epochs=3",
    "--set", "train.embedding_dim=8",
    "--set", "train.batch_size=64",
    "--set", "sampler.n_negatives=4",
]


# a value off its default for each linear key, in range for every model that reads it
OFF_DEFAULT = {"d": 3, "alpha0": 0.2, "lambda": 0.5, "nu": 0.5, "sweeps": 2, "c_u": 1.5,
               "alpha": 0.3, "item_budget": 100}
# the linear keys each model reads
IALS_KEYS, EASE_KEYS = {"d", "alpha0", "lambda", "nu", "sweeps"}, {"lambda", "item_budget"}
READS = {"ials": IALS_KEYS, "ials-debiased": IALS_KEYS | {"c_u"},
         "ease": EASE_KEYS, "ease-debiased": EASE_KEYS | {"alpha"}}


def random_data(users, items, density=0.3):
    return ["--set", "data.synthetic.kind=random", "--set", f"data.synthetic.density={density}",
            "--set", f"data.synthetic.num_users={users}",
            "--set", f"data.synthetic.num_items={items}"]


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "train.txt").write_text(TRAIN_TEXT)
    (d / "test.txt").write_text(TEST_TEXT)
    return d


def read_eval(path):
    header, row = path.read_text().strip().split("\n")
    assert header == EVAL_HEADER
    return row.split(",")


class TestStats:
    def test_prints_fields(self, data_dir, capsys):
        assert main(["stats", "--data-dir", str(data_dir)]) == 0
        got = dict(line.split(",") for line in capsys.readouterr().out.strip().split("\n"))
        assert got["user_count"] == "4"
        assert got["item_count"] == "5"
        assert got["train_interactions"] == "9"
        assert got["test_interactions"] == "4"
        assert got["interaction_count"] == "13"
        assert float(got["density"]) == 13 / 20

    def test_output_dir(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stats", "--data-dir", str(data_dir), "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "stats.csv").read_text() == printed
        assert (out / "config.resolved").exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["stats", "--train", str(tmp_path / "no.txt"),
                   "--test", str(tmp_path / "no2.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_as_data_file(self, data_dir, capsys):
        rc = main(["stats", "--train", str(data_dir), "--test", str(data_dir / "test.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data_dir) in err and "Traceback" not in err

    def test_numeric_file_names_stay_paths(self, data_dir, monkeypatch, capsys):
        (data_dir / "123").write_text(TRAIN_TEXT)
        (data_dir / "456").write_text(TEST_TEXT)
        monkeypatch.chdir(data_dir)
        assert main(["stats", "--train", "123", "--test", "456"]) == 0
        assert "train_interactions,9" in capsys.readouterr().out

    @pytest.mark.parametrize("command, named", [
        (["stats", *random_data(5, 7), "--train", "/nonexistent/train.txt",
          "--test", "/nonexistent/test.txt"], "data.synthetic and data.train/data.test"),
        (["stats", "--train", "t1.txt"], "data.test is missing"),
    ])
    def test_data_sources_that_disagree_are_refused(self, command, named, capsys):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_malformed_token_names_file_and_line(self, data_dir, capsys):
        (data_dir / "train.txt").write_text("0 1\n1 1_000\n")
        assert main(["stats", "--data-dir", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: .*train\.txt:2: malformed token", err)

    def test_no_dataset_configured(self, capsys):
        assert main(["stats"]) == 1
        assert "no dataset" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["train", *SYNTH, *FAST, "--seed", "11", "--output", str(out)])
            assert rc == 0
            for artifact in ("checkpoint.bin", "history.csv", "eval.csv", "config.resolved"):
                assert (out / artifact).exists()
            outs.append(out)
        assert (outs[0] / "eval.csv").read_bytes() == (outs[1] / "eval.csv").read_bytes()
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()

        mode, model = load_checkpoint(outs[0] / "checkpoint.bin")
        assert mode == "dot"
        assert model.user_embeddings.shape == (24, 8)

        printed = capsys.readouterr().out.strip().split("\n")[-1]
        assert printed == (outs[1] / "eval.csv").read_text().strip().split("\n")[1]

    def test_history_names_the_configured_k(self, tmp_path, capsys):
        out = tmp_path / "k5"
        assert main(["train", *SYNTH, *FAST, "--set", "eval.k=5", "--output", str(out)]) == 0
        lines = (out / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,val_recall5,val_ndcg5,lr"
        assert len(lines) == 4  # the header and three epochs
        assert read_eval(out / "eval.csv")[3] == "5"

    def test_rerun_from_resolved_config(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["train", *SYNTH, *FAST, "--seed", "4", "--output", str(first)]) == 0
        second = tmp_path / "second"
        rc = main(["train", "--config", str(first / "config.resolved"),
                   "--output", str(second)])
        assert rc == 0
        assert (first / "eval.csv").read_bytes() == (second / "eval.csv").read_bytes()


class TestEval:
    def test_matches_training_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data-dir", str(data_dir), *FAST,
                     "--output", str(out)]) == 0
        train_row = read_eval(out / "eval.csv")
        capsys.readouterr()

        rc = main(["eval", "--data-dir", str(data_dir),
                   "--checkpoint", str(out / "checkpoint.bin")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == EVAL_HEADER
        eval_row = lines[1].split(",")
        # same k / recall / ndcg / user count; labels may differ
        assert eval_row[3:] == train_row[3:]

    def test_ease_checkpoint(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ease"
        assert main(["solve", "--data-dir", str(data_dir), "--model", "ease",
                     "--lambda", "1.0", "--output", str(out)]) == 0
        capsys.readouterr()

        rc = main(["eval", "--data-dir", str(data_dir),
                   "--checkpoint", str(out / "checkpoint.bin"),
                   "--model-label", "ease"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        row = lines[1].split(",")
        assert row[1] == "ease"
        # the command must reproduce exactly what the stored (float32) weight
        # matrix encodes
        _, W = load_checkpoint(out / "checkpoint.bin")
        ds = load_dataset(data_dir / "train.txt", data_dir / "test.txt")
        report = evaluate(EASEScorer(ds, W), ds, k=20)
        assert row[4] == f"{report.recall:.6f}"
        assert row[5] == f"{report.ndcg:.6f}"

    def test_k_flag(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ease"
        main(["solve", "--data-dir", str(data_dir), "--model", "ease",
              "--output", str(out)])
        capsys.readouterr()
        assert main(["eval", "--data-dir", str(data_dir), "--k", "2",
                     "--checkpoint", str(out / "checkpoint.bin")]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[3] == "2"

    def test_corrupt_checkpoint(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" * 12)
        rc = main(["eval", "--data-dir", str(data_dir), "--checkpoint", str(bad)])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("users, items", [(40, 30), (20, 50), (10, 20)])
    def test_checkpoint_of_another_shape_rejected(self, users, items, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *random_data(20, 30), *FAST, "--output", str(out)]) == 0
        capsys.readouterr()
        rc = main(["eval", *random_data(users, items), "--checkpoint", str(out / "checkpoint.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"holds 20 users x 30 items but the dataset has {users} users x {items} items" in err

    def test_ease_checkpoint_fits_any_user_count(self, tmp_path, capsys):
        out = tmp_path / "ease"
        assert main(["solve", *random_data(20, 30), "--output", str(out)]) == 0
        checkpoint = str(out / "checkpoint.bin")
        assert main(["eval", *random_data(40, 30), "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(["eval", *random_data(20, 50), "--checkpoint", checkpoint]) == 1
        assert "holds 20 users x 30 items but the dataset has 20 users x 50 items" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flags, data, blocks", [
        (["--preset", "mine+/gowalla"], random_data(40, 60, 0.1), 1),
        # debiased_infonce on cosine scores, whose clamp sits at train.temperature
        (["--set", "loss.kind=debiased_infonce", "--set", "train.mode=cosine",
          "--set", "train.temperature=0.4", "--set", "sampler.m_positives=2"],
         random_data(40, 60, 0.1), 1),
        # 400 users on 12,000 items rank in three 16 MiB score blocks
        (["--preset", "mine+/gowalla", "--set", "sampler.n_negatives=20"],
         random_data(400, 12_000, 0.002), 3),
    ], ids=["mine+/gowalla", "debiased_infonce-cosine", "three-score-blocks"])
    def test_one_epoch_checkpoint_reads_back(self, flags, data, blocks, tmp_path, capsys,
                                             monkeypatch):
        out = tmp_path / "run"
        assert main(["train", *flags, "--set", "train.max_epochs=1", *data,
                     "--output", str(out)]) == 0
        train_row = read_eval(out / "eval.csv")
        capsys.readouterr()

        scored = []  # the users of each block the eval pass scores
        score_block = ScoringModel.score_block

        def counted(model, users):
            scored.append(len(users))
            return score_block(model, users)

        monkeypatch.setattr(ScoringModel, "score_block", counted)
        assert main(["eval", *data, "--checkpoint", str(out / "checkpoint.bin")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == EVAL_HEADER
        eval_row = lines[1].split(",")
        assert eval_row[3] == train_row[3] and eval_row[6] == train_row[6]
        assert len(scored) == blocks and sum(scored) == int(eval_row[6])

    def test_missing_checkpoint(self, data_dir, tmp_path, capsys):
        rc = main(["eval", "--data-dir", str(data_dir),
                   "--checkpoint", str(tmp_path / "none.bin")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_ease(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ease"
        rc = main(["solve", "--data-dir", str(data_dir), "--model", "ease",
                   "--lambda", "0.5", "--output", str(out)])
        assert rc == 0
        mode, W = load_checkpoint(out / "checkpoint.bin")
        assert mode == "ease"
        assert W.shape == (5, 5)
        assert np.all(np.diag(W) == 0.0)
        row = read_eval(out / "eval.csv")
        assert row[1] == "ease"
        assert row[2] == "mse-closed-form"

    def test_ease_debiased(self, data_dir, tmp_path):
        out = tmp_path / "easedeb"
        rc = main(["solve", "--data-dir", str(data_dir), "--model", "ease-debiased",
                   "--lambda", "0.5", "--alpha", "0.3", "--output", str(out)])
        assert rc == 0
        assert read_eval(out / "eval.csv")[1] == "ease-debiased"

    def test_ials_prints_objective_trace(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ials"
        rc = main(["solve", "--data-dir", str(data_dir), "--model", "ials",
                   "--d", "4", "--sweeps", "3", "--lambda", "0.1",
                   "--output", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "objective:" in printed
        assert "over 3 sweeps" in printed
        mode, model = load_checkpoint(out / "checkpoint.bin")
        assert mode == "dot"
        assert model.user_embeddings.shape == (4, 4)

    def test_ials_debiased(self, data_dir, tmp_path):
        out = tmp_path / "ialsdeb"
        rc = main(["solve", "--data-dir", str(data_dir), "--model", "ials-debiased",
                   "--d", "4", "--sweeps", "2", "--c-u", "1.5", "--output", str(out)])
        assert rc == 0
        assert read_eval(out / "eval.csv")[1] == "ials-debiased"

    @pytest.mark.parametrize("model", ["ials", "ials-debiased"])
    @pytest.mark.parametrize("lam, warned", [("100", True), ("0.1", False)])
    def test_fit_at_the_all_zero_objective_warns(self, model, lam, warned, tmp_path, capsys):
        # on 40 x 60 random data, lambda = 100 (the default, on EASE's scale)
        # shrinks every factor to 0, where all scores tie
        out = tmp_path / model
        c_u = ["--c-u", "1.5"] if model == "ials-debiased" else []
        rc = main(["solve", "--model", model, "--lambda", lam, "--d", "4", "--sweeps", "3",
                   *c_u, "--set", "data.synthetic.kind=random",
                   "--set", "data.synthetic.num_users=40", "--set", "data.synthetic.num_items=60",
                   "--set", "data.synthetic.density=0.1", "--output", str(out)])
        assert rc == 0 and (out / "eval.csv").exists()
        err = capsys.readouterr().err
        assert (err.startswith("warning: ") and "linear.lambda" in err) == warned
        assert err.count("\n") == int(warned)

    def test_ease_solves_on_the_sparse_matrix(self, data_dir, tmp_path, monkeypatch):
        ds = load_dataset(data_dir / "train.txt", data_dir / "test.txt")
        X = ds.train_matrix()
        dense = {"ease": ease_fit(X, 0.5), "ease-debiased": ease_debiased_fit(X, 0.5, 0.3)}

        def refuse(self):
            raise AssertionError("solve built the dense train matrix")

        monkeypatch.setattr(InteractionDataset, "train_matrix", refuse)
        for model, sol in dense.items():
            out = tmp_path / model
            alpha = ["--alpha", "0.3"] if model == "ease-debiased" else []
            assert main(["solve", "--data-dir", str(data_dir), "--model", model,
                         "--lambda", "0.5", *alpha, "--output", str(out)]) == 0
            report = evaluate(EASEScorer(ds, sol.W), ds, k=20)
            row = read_eval(out / "eval.csv")
            assert row[4:] == [f"{report.recall:.6f}", f"{report.ndcg:.6f}",
                               str(report.users_evaluated)]

    @pytest.mark.parametrize("model", ["ials", "ials-debiased"])
    def test_ials_ranks_as_its_fit(self, model, tmp_path):
        # the row comes from the checkpointed dot model; it must equal the
        # ranking of the fit's own W[users] @ H.T
        out = tmp_path / model
        debiased = model == "ials-debiased"
        c_u = ["--c-u", "1.5"] if debiased else []
        assert main(["solve", "--model", model, "--lambda", "0.1", "--d", "4", "--sweeps", "3",
                     *c_u, *random_data(40, 60), "--output", str(out)]) == 0
        ds = synthetic_dataset(kind="random", num_users=40, num_items=60, density=0.3, seed=0)
        fit = ials_fit(ds, IALSConfig(d=4, alpha0=0.1, lam=0.1, c_u=1.5 if debiased else 1.0,
                                      num_sweeps=3), debiased=debiased)
        report = evaluate(fit, ds, k=20)
        assert read_eval(out / "eval.csv")[4:] == [f"{report.recall:.6f}", f"{report.ndcg:.6f}",
                                                   str(report.users_evaluated)]

    @pytest.mark.parametrize("key", OFF_DEFAULT)
    @pytest.mark.parametrize("model", READS)
    def test_a_key_its_model_does_not_read_is_refused(self, model, key, tmp_path, capsys):
        assert set(LINEAR_MODELS[model][2]) == READS[model]
        out = tmp_path / "out"
        setting = ["--set", f"linear.{key}={OFF_DEFAULT[key]}"]
        if key not in READS[model]:
            # no data directory exists, so naming the key means it was checked first
            rc = main(["solve", "--model", model, *setting, "--data-dir", str(tmp_path / "absent"),
                       "--output", str(out)])
            assert rc == 1 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith(f"error: {model} does not read linear.{key}, set to "
                                  f"{OFF_DEFAULT[key]}; keep its default")
            readers = [name for name, keys in READS.items() if key in keys]
            assert err.endswith(f" or fit {' or '.join(readers)}\n") and "absent" not in err
            # at its default, the key the model does not read is accepted
            setting = ["--set", f"linear.{key}={json.dumps(DEFAULTS['linear'][key])}"]
        # small, quick iALS fits; a key under test is set after them and wins
        fast = ["--d", "4", "--sweeps", "2", "--lambda", "0.1"] if "d" in READS[model] else []
        assert main(["solve", "--model", model, *fast, *setting, *random_data(40, 60),
                     "--output", str(out)]) == 0
        assert read_eval(out / "eval.csv")[1] == model

    def test_item_budget_guard(self, data_dir, tmp_path, capsys):
        rc = main(["solve", "--data-dir", str(data_dir), "--model", "ease",
                   "--item-budget", "3", "--output", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "budget" in err
        assert "linear.item_budget" in err
        assert re.search(r"about [0-9.e+-]+ GB", err)

    def test_refused_solve_is_an_error_line(self, tmp_path, capsys):
        # two identical one-user columns: 1 + lam rounds to 1, so the
        # solve is not numerically positive definite
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("0 0 1\n1 2\n")
        (data / "test.txt").write_text("0 2\n1 0\n")
        rc = main(["solve", "--data-dir", str(data), "--model", "ease", "--lambda", "1e-300",
                   "--output", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: EASE Gram + lam I is not numerically positive definite")
        assert err.endswith("raise lam\n") and "Traceback" not in err
        assert not (tmp_path / "x").exists()  # no --output directory is left behind

    def test_unknown_model(self, data_dir, tmp_path, capsys):
        rc = main(["solve", "--data-dir", str(data_dir),
                   "--set", "linear.model=svd", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown linear model" in capsys.readouterr().err


class TestVerify:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "verify"
        rc = main(["verify", "--bounds", "200", "--theorem-instances", "2",
                   "--seed", "1", "--output", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9
        assert all(line.startswith("PASS ") for line in lines)
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert len(report["properties"]) == 9

    @pytest.mark.parametrize("flags, key", [
        (["--bounds", "0", "--theorem-instances", "0"], "verify.bound_instances"),
        (["--theorem-instances", "0"], "verify.theorem_instances"),
    ])
    def test_zero_instances_is_an_error(self, flags, key, capsys):
        assert main(["verify", *flags]) == 1
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err.startswith(f"error: {key} must be >= 1")

    def test_failure_exit_code(self, monkeypatch, capsys):
        fake = {"seed": 0, "passed": False,
                "properties": [{"name": "bound/x", "passed": False,
                                "worst": -1.0, "tolerance": 1e-9, "instances": 1}]}
        monkeypatch.setattr(recloss.verify, "run_verification", lambda **kw: fake)
        assert main(["verify"]) == 1
        assert "FAIL bound/x" in capsys.readouterr().out


class TestSweep:
    def test_values_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "train.initial_lr",
                   "--values", "0.05,0.1", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "axis,value,recall,ndcg,status"
        assert len(lines) == 3
        assert all(line.endswith(",ok") for line in lines[1:])
        resolved = json.loads((out / "config.resolved").read_text())
        assert resolved["sweep"]["axis"] == "train.initial_lr"
        assert resolved["sweep"]["values"] == [0.05, 0.1]

    def test_log_range_uses_geometric_grid(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "train.l2_weight",
                   "--log-range", "1e-3", "1e-1", "3", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert values == pytest.approx(list(np.geomspace(1e-3, 1e-1, 3)))

    def test_bad_point_recorded_and_sweep_continues(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "loss.kind",
                   "--values", "bpr,nope", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[1].startswith("loss.kind,bpr,") and lines[1].endswith(",ok")
        assert lines[2].startswith("loss.kind,nope,") and lines[2].endswith(",error")
        assert "failed" in capsys.readouterr().err

    def test_mistyped_point_recorded_and_sweep_continues(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "train.batch_size",
                   "--values", "32,abc", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[1].endswith(",ok") and lines[2].endswith(",error")
        assert "'train.batch_size' must be int" in capsys.readouterr().err

    def test_unknown_axis_fails_every_point(self, tmp_path, capsys):
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "train.lr",
                   "--values", "0.1,0.2", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown config key 'train.lr'" in capsys.readouterr().err

    def test_parallel_workers_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        base = ["sweep", *SYNTH, *FAST, "--axis", "train.initial_lr", "--values", "0.05,0.1"]
        assert main([*base, "--set", "threads=1", "--output", str(serial)]) == 0
        assert main([*base, "--set", "threads=2", "--output", str(parallel)]) == 0
        assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()

    def test_log_range_from_config(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--set", "sweep.axis=train.l2_weight",
                   "--set", "sweep.log_range=[0.001,0.1,3]", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 3
        values = [float(line.split(",")[1]) for line in lines]
        assert values == pytest.approx(list(np.geomspace(1e-3, 1e-1, 3)))

    def test_malformed_log_range_from_config(self, tmp_path, capsys):
        rc = main(["sweep", *SYNTH, "--set", "sweep.axis=train.l2_weight",
                   "--set", "sweep.log_range=[0.001,0.1]", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "sweep.log_range must be [lo, hi, count]" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, shown", [
        (["--set", "sweep.axis=5"], "config key 'sweep.axis' must be a dotted key string, got 5"),
        (["--set", "sweep.values=0.05"], "config key 'sweep.values' must be a non-empty list, got 0.05"),
        (["--set", "sweep.values=[]"], "config key 'sweep.values' must be a non-empty list, got []"),
        (["--set", "sweep.log_range=[0.01,0.1,0]"], "sweep.log_range must be [lo, hi, count] with "
         "lo, hi > 0 and an integer count >= 1, got [0.01, 0.1, 0]"),
        (["--set", 'sweep.log_range=[0.01,"a",2]'], "sweep.log_range must be [lo, hi, count] with "
         "lo, hi > 0 and an integer count >= 1, got [0.01, 'a', 2]"),
        (["--set", "sweep.log_range=[0,0.1,3]"], "sweep.log_range must be [lo, hi, count] with "
         "lo, hi > 0 and an integer count >= 1, got [0, 0.1, 3]"),
        (["--set", "sweep.log_range=[0.01,0.1,2.5]"], "sweep.log_range must be [lo, hi, count] "
         "with lo, hi > 0 and an integer count >= 1, got [0.01, 0.1, 2.5]"),
        (["--log-range", "0.01", "a", "2"], "sweep.log_range must be [lo, hi, count] with "
         "lo, hi > 0 and an integer count >= 1, got [0.01, 'a', 2]"),
    ])
    def test_mistyped_grid_is_refused(self, grid, shown, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["sweep", *SYNTH, *FAST, "--set", "sweep.axis=train.l2_weight", *grid,
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not out.exists()

    def test_workers_spawn_with_blas_threads_split(self, tmp_path, monkeypatch):
        seen = {}

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                seen["workers"] = max_workers
                seen["start"] = mp_context.get_start_method()
                seen["env"] = [os.environ.get(name) for name in BLAS_ENV_VARS]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["sweep", *SYNTH, *FAST, "--axis", "train.initial_lr",
                     "--values", "0.05,0.1", "--set", "threads=5",
                     "--output", str(tmp_path / "p")]) == 0
        assert seen == {"workers": 2, "start": "spawn", "env": ["2", "2", "2"]}
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
        assert "OMP_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("grid, keys", [
        (["--values", "0.05,0.1", "--log-range", "1e-3", "1e-1", "3"], None),
        (["--set", "sweep.values=[0.05,0.1]", "--set", "sweep.log_range=[0.001,0.1,3]"],
         "sweep.values and by sweep.log_range"),
    ])
    def test_grid_set_twice_is_an_error(self, grid, keys, tmp_path, capsys):
        out = tmp_path / "x"
        command = ["sweep", *SYNTH, "--axis", "train.initial_lr", *grid, "--output", str(out)]
        if keys is None:  # argparse refuses the two grid flags together
            with pytest.raises(SystemExit) as exc:
                main(command)
            assert exc.value.code == 2
            assert ("argument --log-range: not allowed with argument --values"
                    in capsys.readouterr().err)
        else:
            assert main(command) == 1
            assert f"the sweep grid is set twice, by {keys}" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_outranks_config_grid(self, tmp_path):
        config, out = tmp_path / "grid.json", tmp_path / "sweep"
        config.write_text(json.dumps({"sweep": {"values": [0.5]}}))
        rc = main(["sweep", *SYNTH, *FAST, "--axis", "train.l2_weight", "--config", str(config),
                   "--log-range", "1e-3", "1e-1", "3", "--output", str(out)])
        assert rc == 0
        assert len((out / "sweep.csv").read_text().strip().split("\n")) == 4

    def test_rerun_from_resolved_config(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", *SYNTH, *FAST, "--axis", "train.l2_weight",
                     "--set", "sweep.log_range=[0.001,0.1,3]", "--output", str(first)]) == 0
        resolved = json.loads((first / "config.resolved").read_text())
        assert resolved["sweep"]["values"] == list(np.geomspace(1e-3, 1e-1, 3))
        assert resolved["sweep"]["log_range"] is None
        assert main(["sweep", "--config", str(first / "config.resolved"),
                     "--output", str(second)]) == 0
        assert (first / "sweep.csv").read_text() == (second / "sweep.csv").read_text()

    def test_needs_axis(self, tmp_path, capsys):
        rc = main(["sweep", *SYNTH, "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "axis" in capsys.readouterr().err

    def test_needs_values(self, tmp_path, capsys):
        rc = main(["sweep", *SYNTH, "--axis", "seed", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "--values or --log-range" in capsys.readouterr().err


class TestSettingErrors:
    @pytest.mark.parametrize("command", [
        ["train"],
        ["solve", "--model", "ease"],
        ["sweep", "--axis", "seed", "--values", "1,2"],
    ])
    def test_requires_output(self, command, data_dir, capsys):
        assert main([*command, "--data-dir", str(data_dir)]) == 1
        assert capsys.readouterr().err == f"error: {command[0]} requires --output for its artifacts\n"

    def test_every_command_refuses_both_grids(self, capsys):
        rc = main(["stats", *SYNTH, "--set", "sweep.values=[0.05,0.1]",
                   "--set", "sweep.log_range=[0.001,0.1,3]"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: the sweep grid is set twice, by sweep.values "
                                           "and by sweep.log_range; keep one\n")

    @pytest.mark.parametrize("command", [
        ["train", "--set", "sampler.n_negatives=0"],
        ["train", "--set", "train.plateau_factor=2"],
        ["train", "--set", "sampler.kind=uniform_excluding_user_positives",
         "--set", "sampler.share_batch=true"],
        ["solve", "--model", "ials", "--sweeps", "0"],
    ])
    def test_rejected_setting_is_an_error_line(self, command, tmp_path, capsys):
        rc = main([*command[:1], *SYNTH, *FAST, *command[1:], "--output", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    @pytest.mark.parametrize("command, named", [
        (["train", "--set", "train.batch_size=abc"], "'train.batch_size' must be int"),
        (["train", "--set", "sampler.n_negatives=2.5"], "'sampler.n_negatives' must be int"),
        (["solve", "--model", "ease", "--set", "linear.sweeps=abc"], "'linear.sweeps' must be int"),
        (["stats", "--set", "data.synthetic.density=0.1"], "data.synthetic.density"),
        (["train", "--set", "train.batch_size=0"], "batch_size must be >= 1"),
        (["train", "--set", "train.max_epochs=0"], "max_epochs must be >= 1"),
        (["train", "--set", "train.embedding_dim=0"], "embedding_dim must be >= 1"),
        (["train", "--set", "eval.k=0"], "eval_k must be >= 1"),
        (["solve", "--model", "ease", "--set", "eval.k=0"], "k must be >= 1"),
        (["train", "--set", "loss.kind=mine_plus", "--set", "loss.params.lambda=abc"],
         "config key 'loss.params.lambda' must be float"),
        (["train", "--set", "loss.kind=debiased_ccl", "--set", "loss.params.k=2.5"],
         "config key 'loss.params.k' must be int"),
        (["stats", "--set", "data.train=123", "--set", "data.test=456"],
         "config key 'data.train' must be a path string"),
        (["stats", "--set", "linear.model=svd"], "unknown linear model 'svd'"),
    ])
    def test_error_names_the_setting(self, command, named, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([*command[:1], *SYNTH, *FAST, *command[1:], "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (out / "eval.csv").exists()


    @pytest.mark.parametrize("command, named", [
        (["train", "--set", "train.batch_size=0"], "batch_size must be >= 1"),
        (["sweep", "--axis", "train.batch_size", "--values", "0"], "batch_size must be >= 1"),
        (["solve", "--model", "ials", "--lambda", "-1"], "linear.lambda"),
        (["solve", "--model", "ials-debiased", "--alpha0", "1.5"], "linear.alpha0"),
        (["train", "--set", "train.temperature=0"], "temperature must be positive"),
        (["train", "--set", "train.mode=foo"], "mode must be 'dot' or 'cosine'"),
        (["train", "--set", "train.init_std=0"], "init_std must be positive"),
        (["train", "--set", "train.val_fraction=1.5"], "val_fraction must lie in (0, 1)"),
        (["train", "--set", "train.l2_weight=NaN"], "'train.l2_weight' must be finite"),
        (["solve", "--model", "ials", "--set", "linear.nu=-1"], "linear.nu"),
        (["solve", "--model", "ease-debiased", "--alpha", "1.5"], "linear.alpha must lie in"),
        (["solve", "--model", "ease", "--lambda", "0"], "linear.lambda must be positive"),
    ])
    def test_run_settings_are_refused_before_data_is_read(self, command, named, tmp_path,
                                                          capsys):
        # neither data path exists, so naming the setting means it was checked first
        out = tmp_path / "x"
        rc = main([*command, "--train", "missing/t.txt", "--test", "missing/s.txt",
                   "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        # a sweep reports each failed point on its own line
        line = "sweep point train.batch_size=0 failed: " if command[0] == "sweep" else "error: "
        assert err.startswith(line) and named in err
        assert "missing" not in err and "Traceback" not in err
        assert not (out / "eval.csv").exists()
        # only a sweep, which records the point in sweep.csv, leaves an output directory
        assert out.exists() == (command[0] == "sweep")

    def test_extra_positives_for_a_plain_kind(self, tmp_path, capsys):
        rc = main(["train", *random_data(40, 60), "--set", "sampler.m_positives=2",
                   "--output", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bpr reads no extra positives") and "sampler.m_positives" in err
        assert "Traceback" not in err

    def test_sweep_base_outside_the_grid_may_be_out_of_range(self, tmp_path):
        # debiased_ccl refuses the base's m_positives = 0; every grid point sets it
        out = tmp_path / "sweep"
        rc = main(["sweep", *SYNTH, *FAST, "--set", "loss.kind=debiased_ccl",
                   "--axis", "sampler.m_positives", "--values", "5,10", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3 and all(line.endswith(",ok") for line in lines[1:])


class TestConfigPlumbing:
    def test_preset_reaches_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "preset"
        rc = main(["train", *SYNTH, "--preset", "mine+/yelp2018",
                   "--set", "sampler.n_negatives=5",
                   "--set", "train.max_epochs=2",
                   "--set", "train.embedding_dim=8",
                   "--output", str(out)])
        assert rc == 0
        resolved = json.loads((out / "config.resolved").read_text())
        assert resolved["loss"]["kind"] == "mine_plus"
        assert resolved["loss"]["params"]["lambda"] == 1.1
        assert resolved["train"]["temperature"] == 0.5
        assert resolved["train"]["mode"] == "cosine"
        assert resolved["sampler"]["n_negatives"] == 5

    def test_flags_take_the_type_of_their_key(self, data_dir, tmp_path):
        out = tmp_path / "ials"
        assert main(["solve", "--data-dir", str(data_dir), "--model", "ials-debiased", "--d", "2",
                     "--sweeps", "1", "--lambda", "1", "--c-u", "2", "--output", str(out)]) == 0
        linear = json.loads((out / "config.resolved").read_text())["linear"]
        assert linear["lambda"] == 1.0 and isinstance(linear["lambda"], float)
        assert linear["c_u"] == 2.0 and isinstance(linear["c_u"], float)
        assert linear["sweeps"] == 1 and linear["d"] == 2

    def test_model_choices_are_the_linear_models(self, data_dir, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--data-dir", str(data_dir), "--model", "svd"])
        assert "ials-debiased" in capsys.readouterr().err

    def test_unknown_set_key(self, capsys):
        assert main(["stats", "--set", "nope=1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["stats", "--preset", "mine+/netflix"]) == 1
        assert "unknown preset" in capsys.readouterr().err
