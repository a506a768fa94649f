"""Binary checkpoint container shared by all model kinds.

Layout:

    magic   4 bytes  b"CTRV"
    version u32 LE
    hlen    u32 LE   byte length of the JSON header
    header  UTF-8 JSON: model kind, hyperparameters, vocabulary hash,
            named parameter shapes in order, plus optional model extras
            (count tables for the lexical models, the vocabulary itself)
    body    for each parameter, in header order: raw float32 LE values

Floats are stored bit-exactly, so save/load restores predictions
bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError

MAGIC = b"CTRV"
FORMAT_VERSION = 1


def vocabulary_hash(tokens) -> str:
    """Stable hash of an ordered token list (sha256 hex)."""
    h = hashlib.sha256()
    for tok in tokens:
        h.update(tok.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class Checkpoint:
    kind: str
    hyperparameters: dict
    arrays: dict[str, np.ndarray]
    vocabulary: list[str] | None = None
    extra: dict = field(default_factory=dict)
    vocab_hash: str = ""

    def require(self, section: str, key: str, length: int | None = None):
        """``key`` of the ``hyperparameters``, ``extra`` or ``arrays`` section,
        which must be present and, given ``length``, hold that many entries."""
        value = getattr(self, section).get(key)
        if value is None or (length is not None and len(value) != length):
            raise DataFormatError(f"checkpoint {section} has no {key!r}"
                                  + ("" if length is None else f" of length {length}"))
        return value

    def counts(self, key: str, length: int) -> np.ndarray:
        """``extra[key]``, which must be a list of ``length`` non-negative integers."""
        value = self.require("extra", key, length)
        if not isinstance(value, list) or not all(type(v) is int and v >= 0 for v in value):
            raise DataFormatError(f"checkpoint {key!r} is not a list of non-negative integers")
        return np.array(value, dtype=np.int64)

    def array(self, name: str, shape) -> np.ndarray:
        """The stored parameter ``name``, which must have ``shape``."""
        arr = self.require("arrays", name)
        if arr.shape != tuple(shape):
            raise DataFormatError(f"checkpoint parameter {name!r} has shape {arr.shape}, "
                                  f"expected {tuple(shape)}")
        return arr


def save_checkpoint(path, kind: str, hyperparameters: dict, arrays: dict[str, np.ndarray],
                    vocabulary: list[str] | None = None, extra: dict | None = None) -> None:
    header = {
        "model": kind,
        "hyperparameters": hyperparameters,
        "vocabulary_hash": vocabulary_hash(vocabulary) if vocabulary is not None else "",
        "parameters": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
        "vocabulary": vocabulary,
        "extra": extra or {},
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise DataFormatError(f"bad checkpoint magic {raw[:4]!r}, expected {MAGIC!r}", offset=0)
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}", offset=4)
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header_end = 12 + hlen
    if header_end > len(raw):
        raise DataFormatError("truncated checkpoint header", offset=12)
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"unreadable checkpoint header: {exc}", offset=12) from exc
    for key in ("model", "hyperparameters", "parameters"):
        if key not in header:
            raise DataFormatError(f"checkpoint header has no {key!r}", offset=12)
    vocabulary = header.get("vocabulary")
    if vocabulary is not None and vocabulary_hash(vocabulary) != header.get("vocabulary_hash"):
        raise DataFormatError("checkpoint vocabulary does not match its vocabulary_hash",
                              offset=12)
    arrays: dict[str, np.ndarray] = {}
    pos = header_end
    for entry in header["parameters"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise DataFormatError(f"checkpoint parameter entry {entry!r} needs a name "
                                  "and a shape of sizes", offset=12)
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = pos + 4 * count
        if end > len(raw):
            raise DataFormatError(
                f"truncated parameter payload for {entry['name']!r}", offset=pos
            )
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise DataFormatError(f"checkpoint parameter {entry['name']!r} holds non-finite "
                                  "values", offset=pos)
        arrays[entry["name"]] = arr
        pos = end
    if pos != len(raw):
        raise DataFormatError(f"{len(raw) - pos} trailing bytes after parameters", offset=pos)
    return Checkpoint(
        kind=header["model"],
        hyperparameters=header["hyperparameters"],
        arrays=arrays,
        vocabulary=vocabulary,
        extra=header.get("extra", {}),
        vocab_hash=header.get("vocabulary_hash", ""),
    )
