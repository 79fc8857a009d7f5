"""Config resolution: precedence, strict keys, presets, env thread cap."""

import json

import pytest

from recloss.cli import _train_config
from recloss.config import (
    DEFAULTS,
    PRESETS,
    THREADS_ENV_VAR,
    ConfigError,
    apply_override,
    deep_merge,
    resolve_config,
    validate_config,
    write_resolved,
)
from recloss.mf import TrainConfig
from recloss.sampling import SamplerConfig

# The default document as written out before the tables were derived from
# the dataclasses that read them; derivation must not change a byte of it.
DEFAULT_DOCUMENT = {
    "seed": 0,
    "threads": 1,
    "dataset_name": "dataset",
    "data": {"train": None, "test": None, "synthetic": None},
    "loss": {"kind": "bpr", "params": {}},
    "sampler": {"kind": "uniform_all_items", "n_negatives": 1, "m_positives": 0,
                "share_batch": False},
    "train": {
        "embedding_dim": 64, "batch_size": 512, "initial_lr": 1e-4, "plateau_factor": 0.5,
        "plateau_patience": 3, "plateau_threshold": 1e-4, "min_lr": 1e-6, "l2_weight": 0.0,
        "max_epochs": 100, "mode": None, "temperature": 1.0, "init_std": 0.01,
        "val_fraction": 0.1,
    },
    "linear": {"model": "ease", "d": 64, "alpha0": 0.1, "lambda": 100.0, "nu": 1.0,
               "c_u": 1.0, "alpha": 0.0, "sweeps": 10, "item_budget": 15_000},
    "eval": {"k": 20},
    "verify": {"bound_instances": 10_000, "theorem_instances": 50},
    "sweep": {"axis": None, "values": None, "log_range": None, "workers": 1},
}


def as_written(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


class TestDefaults:
    def test_defaults_validate(self):
        validate_config(DEFAULTS)

    def test_resolve_no_inputs(self):
        cfg = resolve_config()
        assert cfg["loss"]["kind"] == "bpr"
        assert cfg["train"]["embedding_dim"] == 64
        assert cfg["eval"]["k"] == 20

    def test_resolve_copies(self):
        cfg = resolve_config()
        cfg["train"]["embedding_dim"] = 1
        assert DEFAULTS["train"]["embedding_dim"] == 64


class TestDerivedDefaults:
    def test_default_document_unchanged(self):
        assert as_written(resolve_config()) == as_written(DEFAULT_DOCUMENT)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_documents_unchanged(self, name):
        expected = deep_merge(DEFAULT_DOCUMENT, PRESETS[name])
        assert as_written(resolve_config(preset=name)) == as_written(expected)

    def test_benchmark_keys_keep_their_values(self):
        assert DEFAULTS["train"]["embedding_dim"] == 64
        assert DEFAULTS["train"]["batch_size"] == 512
        assert DEFAULTS["train"]["val_fraction"] == 0.1
        assert DEFAULTS["eval"]["k"] == 20
        lin = DEFAULTS["linear"]
        assert (lin["d"], lin["alpha0"], lin["nu"], lin["lambda"]) == (64, 0.1, 1.0, 100.0)

    def test_cli_configs_equal_library_defaults(self):
        cfg = _train_config(resolve_config())
        assert cfg == TrainConfig()
        assert cfg.sampler == SamplerConfig()


class TestValueTypes:
    @pytest.mark.parametrize("override, key", [
        ("train.batch_size=abc", "train.batch_size"),
        ("train.batch_size=2.5", "train.batch_size"),
        ("train.batch_size=true", "train.batch_size"),
        ("sampler.n_negatives=2.5", "sampler.n_negatives"),
        ("sampler.share_batch=1", "sampler.share_batch"),
        ("train.initial_lr=fast", "train.initial_lr"),
        ("linear.sweeps=abc", "linear.sweeps"),
        ("linear.model=3", "linear.model"),
        ("sweep.workers=2.0", "sweep.workers"),
        ("data.synthetic.num_blocks=2.5", "data.synthetic.num_blocks"),
    ])
    def test_mistyped_value_names_its_key(self, override, key):
        with pytest.raises(ConfigError, match=f"'{key}' must be"):
            resolve_config(overrides=["data.synthetic.kind=planted", override])

    def test_int_accepted_for_float(self):
        cfg = resolve_config(overrides=["train.initial_lr=1", "linear.c_u=2"])
        assert cfg["train"]["initial_lr"] == 1 and cfg["linear"]["c_u"] == 2

    def test_none_default_is_free(self):
        cfg = resolve_config(overrides=["train.mode=cosine", "sweep.values=[1, 2]"])
        assert cfg["train"]["mode"] == "cosine" and cfg["sweep"]["values"] == [1, 2]

    def test_table_replaced_by_value_rejected(self):
        with pytest.raises(ConfigError, match="'loss.params' must be a table"):
            resolve_config(overrides=["loss.params=3"])


class TestSyntheticKinds:
    @pytest.mark.parametrize("kind, other_key", [("planted", "density"), ("random", "num_blocks")])
    def test_kind_rejects_the_other_kinds_keys(self, kind, other_key):
        with pytest.raises(ConfigError, match=f"data.synthetic.{other_key}"):
            resolve_config(overrides=[f"data.synthetic.kind={kind}", "data.synthetic.num_users=4",
                                      "data.synthetic.num_items=4", f"data.synthetic.{other_key}=1"])

    def test_kind_defaults_to_planted(self):
        with pytest.raises(ConfigError, match="data.synthetic.density"):
            resolve_config(overrides=["data.synthetic.density=0.1"])

    def test_missing_required_key_reported(self):
        with pytest.raises(ConfigError, match="requires data.synthetic.num_users"):
            resolve_config(overrides=["data.synthetic.kind=random", "data.synthetic.num_items=4"])

    def test_unknown_kind_reported(self):
        with pytest.raises(ConfigError, match="unknown synthetic data kind 'blobs'"):
            resolve_config(overrides=["data.synthetic.kind=blobs"])

    def test_random_kind_accepts_its_keys(self):
        resolve_config(overrides=["data.synthetic.kind=random", "data.synthetic.num_users=4",
                                  "data.synthetic.num_items=4", "data.synthetic.density=0.5"])


class TestStrictKeys:
    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown config key 'optimizer'"):
            validate_config(deep_merge(DEFAULTS, {"optimizer": "adam"}))

    def test_unknown_nested(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            validate_config(deep_merge(DEFAULTS, {"train": {"learning_rate": 0.1}}))

    def test_loss_param_checked_against_kind(self):
        bad = deep_merge(DEFAULTS, {"loss": {"kind": "bpr", "params": {"margin": 0.5}}})
        with pytest.raises(ConfigError, match="not valid for kind"):
            validate_config(bad)
        ok = deep_merge(DEFAULTS, {"loss": {"kind": "ccl", "params": {"margin": 0.5}}})
        validate_config(ok)

    def test_debiased_infonce_temperature_is_not_a_loss_param(self):
        with pytest.raises(ConfigError, match="train.temperature"):
            resolve_config(overrides=["loss.kind=debiased_infonce", "loss.params.temperature=0.4"])

    def test_unknown_loss_kind(self):
        with pytest.raises(ConfigError, match="unknown loss kind"):
            validate_config(deep_merge(DEFAULTS, {"loss": {"kind": "triplet"}}))

    def test_synthetic_keys_checked(self):
        bad = deep_merge(DEFAULTS, {"data": {"synthetic": {"blocks": 3}}})
        with pytest.raises(ConfigError, match="data.synthetic.blocks"):
            validate_config(bad)
        ok = deep_merge(DEFAULTS, {"data": {"synthetic": {"kind": "planted", "num_blocks": 3}}})
        validate_config(ok)


class TestPrecedence:
    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"temperature": 0.9}}))
        cfg = resolve_config(config_path=str(path), preset="mine+/gowalla")
        assert cfg["train"]["temperature"] == 0.9          # file wins
        assert cfg["loss"]["params"]["lambda"] == 1.2      # preset survives

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5}))
        cfg = resolve_config(config_path=str(path), overrides=["seed=9"])
        assert cfg["seed"] == 9

    def test_override_parses_json_values(self):
        cfg = resolve_config(overrides=[
            "train.initial_lr=0.01",
            "sampler.share_batch=true",
            "dataset_name=abc",
        ])
        assert cfg["train"]["initial_lr"] == 0.01
        assert cfg["sampler"]["share_batch"] is True
        assert cfg["dataset_name"] == "abc"

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.alpha'"):
            resolve_config(overrides=["train.alpha=3"])

    def test_apply_override_copies_and_leaves_checks_to_validation(self):
        cfg = resolve_config()
        out = apply_override(cfg, "train.alpha", 3)
        assert out["train"]["alpha"] == 3 and "alpha" not in cfg["train"]
        with pytest.raises(ConfigError, match="unknown config key 'train.alpha'"):
            validate_config(out)

    def test_override_free_form_loss_params(self):
        cfg = resolve_config(overrides=[
            "loss.kind=mine_plus", "loss.params.lambda=1.3",
        ])
        assert cfg["loss"]["params"]["lambda"] == 1.3

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            resolve_config(overrides=["seed"])

    def test_bad_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config(config_path=str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            resolve_config(config_path=str(bad))


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config(preset="mine+/netflix")

    def test_mine_plus_tables(self):
        cfg = resolve_config(preset="mine+/amazon-books")
        assert cfg["loss"]["kind"] == "mine_plus"
        assert cfg["loss"]["params"]["lambda"] == 1.1
        assert cfg["train"]["temperature"] == 0.4
        assert cfg["train"]["l2_weight"] == 0.01
        assert cfg["train"]["mode"] == "cosine"
        assert cfg["sampler"]["n_negatives"] == 800

        gowalla = resolve_config(preset="mine+/gowalla")
        assert gowalla["loss"]["params"]["lambda"] == 1.2
        assert gowalla["train"]["temperature"] == 0.4
        assert gowalla["train"]["l2_weight"] == 1.0

    def test_debiased_ccl_tables(self):
        cfg = resolve_config(preset="debiased-ccl/yelp2018")
        assert cfg["loss"]["kind"] == "debiased_ccl"
        assert cfg["loss"]["params"]["lambda_n"] == 0.4
        assert cfg["loss"]["params"]["margin"] == 0.9
        assert cfg["sampler"]["m_positives"] == 10
        # the table's "-9" regularization entry means 1e-9
        assert cfg["train"]["l2_weight"] == 1e-9

        books = resolve_config(preset="debiased-ccl/amazon-books")
        assert books["loss"]["params"]["lambda_n"] == 0.6
        assert books["loss"]["params"]["margin"] == 0.4
        assert books["sampler"]["m_positives"] == 50

    def test_every_preset_validates(self):
        for name in PRESETS:
            resolve_config(preset=name)


class TestThreadCap:
    def test_env_caps_threads(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        cfg = resolve_config(overrides=["threads=8"])
        assert cfg["threads"] == 2

    def test_env_does_not_raise_threads(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "8")
        cfg = resolve_config(overrides=["threads=2"])
        assert cfg["threads"] == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "lots")
        with pytest.raises(ConfigError, match="integer"):
            resolve_config()


class TestWriteResolved:
    def test_round_trips_through_file(self, tmp_path):
        cfg = resolve_config(preset="mine+/yelp2018", overrides=["seed=3"])
        write_resolved(cfg, tmp_path)
        path = tmp_path / "config.resolved"
        assert path.exists()
        again = resolve_config(config_path=str(path))
        assert again == cfg
