import numpy as np
import pytest

from controkit.embeddings import (
    EmbeddingTable,
    load_embeddings,
    read_w2v,
    save_embeddings,
    write_w2v,
)
from controkit.errors import DataFormatError
from controkit.textprep import PAD_INDEX, Vocabulary


@pytest.fixture
def vocab():
    return Vocabulary.from_tokens(["alpha", "beta", "gamma"], {})


def test_binary_round_trip_byte_exact(tmp_path, rng):
    words = ["alpha", "beta", "gamma"]
    vectors = rng.normal(size=(3, 5)).astype(np.float32)
    path = tmp_path / "vecs.bin"
    write_w2v(path, words, vectors, binary=True)
    original = path.read_bytes()
    back_words, back_vectors = read_w2v(path)
    assert back_words == words
    assert np.array_equal(back_vectors, vectors)
    path2 = tmp_path / "again.bin"
    write_w2v(path2, back_words, back_vectors, binary=True)
    assert path2.read_bytes() == original


def test_text_variant_round_trip(tmp_path, rng):
    words = ["alpha", "beta"]
    vectors = rng.normal(size=(2, 3)).astype(np.float32)
    path = tmp_path / "vecs.txt"
    write_w2v(path, words, vectors, binary=False)
    back_words, back_vectors = read_w2v(path, binary=False)
    assert back_words == words
    assert np.array_equal(back_vectors, vectors)


def test_format_sniffing(tmp_path, rng):
    vectors = rng.normal(size=(2, 4)).astype(np.float32)
    bin_path = tmp_path / "v.bin"
    txt_path = tmp_path / "v.txt"
    write_w2v(bin_path, ["a", "b"], vectors, binary=True)
    write_w2v(txt_path, ["a", "b"], vectors, binary=False)
    assert np.array_equal(read_w2v(bin_path)[1], vectors)
    assert np.array_equal(read_w2v(txt_path)[1], vectors)


def test_full_coverage_load_copies_rows_bit_exactly(tmp_path, vocab, rng):
    vectors = rng.normal(size=(3, 4)).astype(np.float32)
    path = tmp_path / "v.bin"
    write_w2v(path, ["alpha", "beta", "gamma"], vectors, binary=True)
    table = load_embeddings(path, vocab, dim=4, rng=rng)
    assert table.coverage == 1.0
    assert np.array_equal(table.vectors[2], vectors[0])
    assert np.array_equal(table.vectors[3], vectors[1])
    assert np.array_equal(table.vectors[4], vectors[2])
    assert np.array_equal(table.vectors[PAD_INDEX], np.zeros(4, np.float32))


def test_zero_overlap_random_init_within_bounds(tmp_path, vocab, rng):
    path = tmp_path / "v.bin"
    write_w2v(path, ["other"], rng.normal(size=(1, 4)).astype(np.float32), binary=True)
    table = load_embeddings(path, vocab, dim=4, rng=rng)
    assert table.coverage == 0.0
    non_pad = table.vectors[1:]
    assert np.all(np.abs(non_pad) <= 0.25)
    assert np.any(non_pad != 0)


def test_table_save_reload_rows_identical(tmp_path, vocab, rng):
    table = EmbeddingTable.random(vocab, 6, rng)
    path = tmp_path / "v.bin"
    save_embeddings(path, table, binary=True)
    reloaded = load_embeddings(path, vocab, dim=6, rng=np.random.default_rng(99))
    assert reloaded.coverage == 1.0
    assert np.array_equal(reloaded.vectors[2:], table.vectors[2:])


def test_missing_header_is_format_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"no newline at all")
    with pytest.raises(DataFormatError, match="offset 0"):
        read_w2v(path)


def test_malformed_header_fields(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"3 x y\nrest")
    with pytest.raises(DataFormatError, match="header"):
        read_w2v(path)


@pytest.mark.parametrize("binary", [True, False, None])
@pytest.mark.parametrize("header", [b"-1 4", b"3 0", b"1000000000 300"])
def test_impossible_header_refused_before_allocating(tmp_path, header, binary):
    # a billion 300-dim records would need 1.1 TiB; the 5 bytes after the
    # header cannot hold them
    path = tmp_path / "bad.bin"
    path.write_bytes(header + b"\nabcde")
    with pytest.raises(DataFormatError, match="header"):
        read_w2v(path, binary=binary)


def test_dimension_mismatch(tmp_path, vocab, rng):
    path = tmp_path / "v.bin"
    write_w2v(path, ["alpha"], rng.normal(size=(1, 4)).astype(np.float32), binary=True)
    with pytest.raises(DataFormatError, match="dim"):
        load_embeddings(path, vocab, dim=7, rng=rng)


def test_truncated_binary_record(tmp_path, rng):
    path = tmp_path / "v.bin"
    write_w2v(path, ["alpha"], rng.normal(size=(1, 4)).astype(np.float32), binary=True)
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    with pytest.raises(DataFormatError, match="truncated"):
        read_w2v(path, binary=True)


def test_pad_row_zero_and_oov_row_random(tmp_path, vocab, rng):
    table = EmbeddingTable.random(vocab, 4, rng)
    assert np.array_equal(table.vectors[PAD_INDEX], np.zeros(4, np.float32))
    assert np.any(table.vectors[1] != 0)  # shared trainable OOV row
