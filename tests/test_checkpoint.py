import struct

import numpy as np
import pytest

from controkit.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
    vocabulary_hash,
)
from controkit.errors import DataFormatError


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(4,)).astype(np.float32),
    }
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "cnn", {"lr": 1e-3}, arrays,
                    vocabulary=["<pad>", "<oov>", "a"], extra={"note": 1})
    ckpt = load_checkpoint(path)
    assert ckpt.kind == "cnn"
    assert ckpt.hyperparameters == {"lr": 1e-3}
    assert ckpt.vocabulary == ["<pad>", "<oov>", "a"]
    assert ckpt.extra == {"note": 1}
    for name, arr in arrays.items():
        assert arr.dtype == ckpt.arrays[name].dtype
        assert np.array_equal(arr, ckpt.arrays[name])
    assert ckpt.vocab_hash == vocabulary_hash(["<pad>", "<oov>", "a"])


def test_header_layout(tmp_path):
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "lm", {}, {}, vocabulary=None, extra={})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == FORMAT_VERSION
    hlen = struct.unpack_from("<I", raw, 8)[0]
    assert raw[12 : 12 + hlen].decode("utf-8").startswith("{")


def test_parameter_order_preserved(tmp_path):
    arrays = {"z_last": np.ones(2, np.float32), "a_first": np.zeros(3, np.float32)}
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "cnn", {}, arrays)
    ckpt = load_checkpoint(path)
    assert list(ckpt.arrays) == ["z_last", "a_first"]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ctrv"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.ctrv"
    path.write_bytes(MAGIC + struct.pack("<I", 999) + struct.pack("<I", 2) + b"{}")
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "cnn", {}, {"w": np.ones((2, 2), np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "cnn", {}, {"w": np.ones((1,), np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(path)


def test_load_copies_each_parameter_once(tmp_path, rng):
    # the file's bytes plus one owned copy of each array; slicing the file's
    # bytes before copying would add a third
    import tracemalloc

    arrays = {"embedding": rng.normal(size=(2_000, 300)).astype(np.float32),
              "dense.w": rng.normal(size=(300, 2)).astype(np.float32)}
    path = tmp_path / "model.ctrv"
    save_checkpoint(path, "cnn", {}, arrays, vocabulary=["<pad>", "<oov>"])
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(ckpt.arrays[name], arr) for name, arr in arrays.items())
    assert peak < 2.4 * path.stat().st_size
