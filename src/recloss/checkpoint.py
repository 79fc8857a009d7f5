"""Binary checkpoint container for embedding models and EASE weights.

Layout (all little-endian):
  magic      8 bytes  b"RECMODEL"
  version    uint32   currently 1
  num_users  uint32
  num_items  uint32
  d          uint32   embedding dim; equals num_items for mode "ease"
  mode       uint8    0 = dot, 1 = cosine, 2 = ease
  t          float64  temperature (1.0 when unused)
  user matrix  num_users x d float32, row-major (absent entries for ease: num_users = 0)
  item matrix  num_items x d float32, row-major (holds W for ease)
"""

from __future__ import annotations

import struct

import numpy as np

from .mf import ScoringModel

MAGIC = b"RECMODEL"
VERSION = 1
_HEADER = struct.Struct("<8sIIIIBd")
_MODE_CODES = {"dot": 0, "cosine": 1, "ease": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}


class CheckpointFormatError(ValueError):
    pass


def save_checkpoint(path, obj) -> None:
    """Write a ScoringModel, or an (num_items, num_items) EASE weight matrix."""
    if isinstance(obj, ScoringModel):
        header = _HEADER.pack(
            MAGIC, VERSION, obj.num_users, obj.num_items, obj.d,
            _MODE_CODES[obj.mode], obj.temperature,
        )
        body = (
            obj.user_embeddings.astype("<f4").tobytes()
            + obj.item_embeddings.astype("<f4").tobytes()
        )
    else:
        W = np.asarray(obj, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise CheckpointFormatError("EASE checkpoint expects a square weight matrix")
        header = _HEADER.pack(MAGIC, VERSION, 0, W.shape[0], W.shape[1], _MODE_CODES["ease"], 1.0)
        body = W.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_checkpoint(path):
    """Returns ("dot"|"cosine", ScoringModel) or ("ease", weight matrix)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointFormatError("file too short for a checkpoint header")
    magic, version, num_users, num_items, d, mode_code, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointFormatError("bad magic; not a model checkpoint")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if mode_code not in _MODE_NAMES:
        raise CheckpointFormatError(f"unknown mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    expected = (num_users + num_items) * d * 4
    if len(raw) != _HEADER.size + expected:
        raise CheckpointFormatError(
            f"payload size mismatch: expected {expected} matrix bytes, "
            f"found {len(raw) - _HEADER.size}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(float)
    users = flat[: num_users * d].reshape(num_users, d)
    items = flat[num_users * d:].reshape(num_items, d)
    if mode == "ease":
        if d != num_items:
            raise CheckpointFormatError("ease checkpoint must hold a square matrix")
        return mode, items
    return mode, ScoringModel(users, items, mode=mode, temperature=t)
