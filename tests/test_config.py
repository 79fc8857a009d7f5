"""Config resolution: precedence, strict keys, presets, env thread cap."""

import json

import pytest

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
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(overrides=["train.alpha=3"])

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
