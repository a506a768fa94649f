import tracemalloc

import numpy as np
import pytest

from controkit import embeddings
from controkit.embeddings import (
    MISSING_WORD_SCALE,
    EmbeddingTable,
    read_w2v,
    table_from_vectors,
    write_w2v,
)
from controkit.errors import DataFormatError
from controkit.textprep import PAD_INDEX, Vocabulary


def load_table(path, vocab, dim, rng):
    """A table read from a w2v file the way training builds one."""
    return table_from_vectors(*read_w2v(path), vocab, dim, rng=rng)


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
    table = load_table(path, vocab, dim=4, rng=rng)
    assert table.coverage == 1.0
    assert np.array_equal(table.vectors[2], vectors[0])
    assert np.array_equal(table.vectors[3], vectors[1])
    assert np.array_equal(table.vectors[4], vectors[2])
    assert np.array_equal(table.vectors[PAD_INDEX], np.zeros(4, np.float32))


def test_zero_overlap_random_init_within_bounds(tmp_path, vocab, rng):
    path = tmp_path / "v.bin"
    write_w2v(path, ["other"], rng.normal(size=(1, 4)).astype(np.float32), binary=True)
    table = load_table(path, vocab, dim=4, rng=rng)
    assert table.coverage == 0.0
    non_pad = table.vectors[1:]
    assert np.all(np.abs(non_pad) <= 0.25)
    assert np.any(non_pad != 0)


def test_table_save_reload_rows_identical(tmp_path, vocab, rng):
    table = EmbeddingTable.random(vocab, 6, rng)
    path = tmp_path / "v.bin"
    write_w2v(path, table.vocab.words(), table.vectors[2:], binary=True)
    reloaded = load_table(path, vocab, dim=6, rng=np.random.default_rng(99))
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
        load_table(path, vocab, dim=7, rng=rng)


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


# Draw contract: a table is drawn in float64 blocks straight into float32.
# That is the one-shot float64 draw cast to float32, byte for byte, and it
# leaves the generator where the one-shot draw does. An upgrade that breaks
# the numpy property this relies on changes every initialized table and must
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
    table = load_table(path, vocab, dim=shape[1], rng=rng)
    expected, next_draw = _one_shot(42, (len(vocab), shape[1]))
    for word, vec in zip(found, file_vectors):
        expected[vocab.token_to_index[word]] = vec
    expected[PAD_INDEX] = 0.0
    assert table.vectors.tobytes() == expected.tobytes()
    assert rng.random() == next_draw


# The same contract for every numpy bit generator, at the edges of the one
# reused float64 block: the split multiply and subtract equal uniform's
# ``low + (high - low) * u`` only because each generator's double is a
# multiple of 2**-53.
_BLOCK = embeddings._DRAW_BLOCK
_EDGE_SHAPES = [
    (256, _BLOCK // 256),  # exactly one block
    (_BLOCK + 1, 1),  # one block plus one value
    (100, 300),  # fewer values than a block
    (300, 300),  # row 218 straddles the first block edge
]
_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("shape", _EDGE_SHAPES)
def test_draw_contract_every_bit_generator(shape, bit_generator):
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(shape[0] - 2)], {})
    rng = np.random.Generator(bit_generator(43))
    table = EmbeddingTable.random(vocab, shape[1], rng)
    one_shot = np.random.Generator(bit_generator(43))
    expected = one_shot.uniform(-MISSING_WORD_SCALE, MISSING_WORD_SCALE,
                                size=shape).astype(np.float32)
    expected[PAD_INDEX] = 0.0
    assert table.vectors.tobytes() == expected.tobytes()
    assert rng.random() == one_shot.random()


class _BufferRecorder:
    """A generator that offers only ``random(out=...)`` and records the
    address of each buffer it fills."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.addresses = []

    def random(self, *, out):
        self.addresses.append(out.__array_interface__["data"][0])
        return self.rng.random(out=out)


def test_draw_fills_one_reused_block():
    """Every block is drawn into the same float64 buffer, and the draw's peak
    is the float32 table, that one block, numpy's 64 KiB casting buffer and
    4 KiB for its iterator: no array per block and no float64 table."""
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(20_000 - 2)], {})
    recorder = _BufferRecorder(5)
    table = EmbeddingTable.random(vocab, 300, recorder)
    assert len(recorder.addresses) == -(-table.vectors.size // _BLOCK)
    assert len(set(recorder.addresses)) == 1
    del table
    tracemalloc.start()
    try:
        table = EmbeddingTable.random(vocab, 300, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.vectors.nbytes + 8 * _BLOCK + 68 * 1024
