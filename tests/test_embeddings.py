import numpy as np
import pytest

from controkit import embeddings
from controkit.embeddings import (
    MISSING_WORD_SCALE,
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


# Draw contract: a table is drawn in row blocks straight into float32. That is
# the one-shot float64 draw cast to float32, byte for byte, and it leaves the
# generator where the one-shot draw does. An upgrade that breaks the
# numpy property this relies on changes every initialized table and must
# fail here.
_DRAW_SHAPES = [(7, 3), (1, 1), (embeddings._DRAW_BLOCK + 1, 1), (1000, 300), (3, 70_000)]


def _one_shot(seed, shape):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-MISSING_WORD_SCALE, MISSING_WORD_SCALE, size=shape).astype(np.float32)
    return table, rng.random()


@pytest.mark.parametrize("shape", _DRAW_SHAPES)
def test_draw_contract_random_table(shape):
    words = [f"w{i}" for i in range(shape[0] - 2)] if shape[0] > 2 else []
    vocab = Vocabulary.from_tokens(words, {})
    rng = np.random.default_rng(41)
    table = EmbeddingTable.random(vocab, shape[1], rng)
    expected, next_draw = _one_shot(41, (len(vocab), shape[1]))
    expected[PAD_INDEX] = 0.0
    assert table.vectors.dtype == np.float32
    assert table.vectors.tobytes() == expected.tobytes()
    assert rng.random() == next_draw


@pytest.mark.parametrize("shape", _DRAW_SHAPES[:4])
def test_draw_contract_load_embeddings(tmp_path, shape):
    words = [f"w{i}" for i in range(max(shape[0] - 2, 1))]
    vocab = Vocabulary.from_tokens(words, {})
    found = words[::3]
    file_vectors = np.arange(len(found) * shape[1], dtype=np.float32).reshape(len(found), -1)
    path = tmp_path / "v.bin"
    write_w2v(path, found, file_vectors, binary=True)
    rng = np.random.default_rng(42)
    table = load_embeddings(path, vocab, dim=shape[1], rng=rng)
    expected, next_draw = _one_shot(42, (len(vocab), shape[1]))
    for word, vec in zip(found, file_vectors):
        expected[vocab.token_to_index[word]] = vec
    expected[PAD_INDEX] = 0.0
    assert table.vectors.tobytes() == expected.tobytes()
    assert rng.random() == next_draw

