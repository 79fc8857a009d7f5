"""Binary model checkpoints: round trips and corruption handling."""

import numpy as np
import pytest

from recloss import (
    CheckpointFormatError,
    ScoringModel,
    load_checkpoint,
    save_checkpoint,
)


def make_model(mode="dot", t=1.0):
    rng = np.random.default_rng(8)
    return ScoringModel(
        rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), mode=mode, temperature=t
    )


class TestRoundTrip:
    @pytest.mark.parametrize("mode,t", [("dot", 1.0), ("cosine", 0.4)])
    def test_model_round_trip(self, tmp_path, mode, t):
        model = make_model(mode, t)
        path = tmp_path / "model.bin"
        save_checkpoint(path, model)
        loaded_mode, loaded = load_checkpoint(path)
        assert loaded_mode == mode
        assert loaded.temperature == pytest.approx(t)
        # payload is float32: compare at that precision
        np.testing.assert_allclose(
            loaded.user_embeddings, model.user_embeddings.astype(np.float32), atol=0
        )
        np.testing.assert_allclose(
            loaded.item_embeddings, model.item_embeddings.astype(np.float32), atol=0
        )

    def test_ease_round_trip(self, tmp_path):
        W = np.random.default_rng(0).normal(size=(6, 6))
        np.fill_diagonal(W, 0.0)
        path = tmp_path / "ease.bin"
        save_checkpoint(path, W)
        mode, loaded = load_checkpoint(path)
        assert mode == "ease"
        assert loaded.shape == (6, 6)
        np.testing.assert_allclose(loaded, W.astype(np.float32), atol=0)

    def test_scores_survive_round_trip(self, tmp_path):
        model = make_model("cosine", 0.5)
        save_checkpoint(tmp_path / "m.bin", model)
        _, loaded = load_checkpoint(tmp_path / "m.bin")
        want = model.score_block(np.array([1]))
        got = loaded.score_block(np.array([1]))
        np.testing.assert_allclose(got, want, atol=1e-6)  # float32 payload


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(path, make_model())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(path, make_model())
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"RECMOD")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(path, make_model())
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_non_square_ease_rejected(self, tmp_path):
        with pytest.raises((CheckpointFormatError, ValueError)):
            save_checkpoint(tmp_path / "w.bin", np.zeros((3, 4)))
