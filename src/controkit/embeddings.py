"""Word-vector tables and the w2v interchange formats.

Binary format (bit-exact round trips): ASCII header ``"<count> <dim>\n"``,
then per word the word's UTF-8 bytes, a single space, and dim consecutive
32-bit little-endian IEEE-754 floats, optionally followed by a newline.
Text variant: one word plus dim decimal floats per line, space-separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DimensionError
from .textprep import OOV_INDEX, PAD_INDEX, Vocabulary

MISSING_WORD_SCALE = 0.25
_DRAW_BLOCK = 1 << 16  # float64 values drawn at a time


@dataclass
class EmbeddingTable:
    """Vocabulary plus dense word vectors; the shared input of the neural
    models.

    Row 0 (padding) stays all-zeros and is excluded from gradient updates;
    out-of-vocabulary words share the single trainable row 1.
    """

    vocab: Vocabulary
    vectors: np.ndarray
    trainable: bool = True
    coverage: float | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int, rng, trainable: bool = True,
               scale: float = MISSING_WORD_SCALE) -> "EmbeddingTable":
        """Rows uniform in [-scale, scale], padding row zero. The bytes and the
        generator's next state are those of one ``rng.uniform`` over the whole
        table cast to float32, but drawn in row blocks: no float64 table."""
        vectors = np.empty((len(vocab), dim), dtype=np.float32)
        step = max(1, _DRAW_BLOCK // max(1, dim))
        for lo in range(0, len(vocab), step):
            vectors[lo : lo + step] = rng.uniform(-scale, scale, vectors[lo : lo + step].shape)
        vectors[PAD_INDEX] = 0.0
        return cls(vocab=vocab, vectors=vectors, trainable=trainable, coverage=0.0)


def _sniff_binary(raw: bytes, header_end: int, dim: int) -> bool:
    """Decide the variant by strictly parsing the first record as text."""
    line_end = raw.find(b"\n", header_end)
    if line_end < 0:
        line_end = len(raw)
    try:
        parts = raw[header_end:line_end].decode("utf-8").rstrip().split(" ")
        if len(parts) != dim + 1:
            return True
        for value in parts[1:]:
            float(value)
        return False
    except (UnicodeDecodeError, ValueError):
        return True


def _parse_header(raw: bytes):
    newline = raw.find(b"\n")
    if newline < 0:
        raise DataFormatError("missing w2v header line", offset=0)
    parts = raw[:newline].split()
    if len(parts) != 2:
        raise DataFormatError(f"malformed w2v header {raw[:newline]!r}", offset=0)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DataFormatError(f"non-numeric w2v header {raw[:newline]!r}", offset=0) from exc
    if count < 0 or dim < 1:
        raise DataFormatError(f"w2v header {raw[:newline]!r} needs a count >= 0 and "
                              f"a dimension >= 1", offset=0)
    return count, dim, newline + 1


def read_w2v(path, binary: bool | None = None) -> tuple[list[str], np.ndarray]:
    """All (word, vector) records of a w2v file, order preserved."""
    with open(path, "rb") as f:
        raw = f.read()
    count, dim, pos = _parse_header(raw)
    if binary is None:
        binary = _sniff_binary(raw, pos, dim)
    words: list[str] = []
    if binary:
        if count * (4 * dim + 1) > len(raw) - pos:  # a record is >= a space and dim floats
            raise DataFormatError(f"header promises {count} records of dimension {dim}, "
                                  f"more than {len(raw) - pos} bytes hold", offset=0)
        vectors = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            space = raw.find(b" ", pos)
            if space < 0:
                raise DataFormatError(f"truncated record {i}", offset=pos)
            try:
                words.append(raw[pos:space].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"undecodable word in record {i}", offset=pos) from exc
            vec_end = space + 1 + 4 * dim
            if vec_end > len(raw):
                raise DataFormatError(f"truncated vector in record {i}", offset=space + 1)
            vectors[i] = np.frombuffer(raw[space + 1 : vec_end], dtype="<f4")
            pos = vec_end
            if pos < len(raw) and raw[pos : pos + 1] == b"\n":
                pos += 1
    else:
        lines = raw[pos:].decode("utf-8").splitlines()
        records = [ln for ln in lines if ln.strip()]
        if len(records) != count:
            raise DataFormatError(
                f"header promises {count} records, file has {len(records)}", offset=pos
            )
        vectors = np.empty((count, dim), dtype=np.float32)
        for i, line in enumerate(records):
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"record {i} has {len(parts) - 1} values, expected {dim}", line=i + 2
                )
            words.append(parts[0])
            vectors[i] = np.array([float(v) for v in parts[1:]], dtype=np.float32)
    return words, vectors


def write_w2v(path, words, vectors: np.ndarray, binary: bool = True) -> None:
    vectors = np.asarray(vectors, dtype=np.float32)
    if len(words) != vectors.shape[0]:
        raise DimensionError(f"{len(words)} words vs {vectors.shape[0]} vector rows")
    with open(path, "wb") as f:
        f.write(f"{len(words)} {vectors.shape[1]}\n".encode("ascii"))
        if binary:
            for word, vec in zip(words, vectors):
                f.write(word.encode("utf-8"))
                f.write(b" ")
                f.write(np.ascontiguousarray(vec, dtype="<f4").tobytes())
                f.write(b"\n")
        else:
            for word, vec in zip(words, vectors):
                values = " ".join(repr(float(v)) for v in vec)
                f.write(f"{word} {values}\n".encode("utf-8"))


def table_from_vectors(words, file_vectors: np.ndarray, vocab: Vocabulary, dim: int,
                       rng=None, trainable: bool = True) -> EmbeddingTable:
    """Embedding table for ``vocab`` initialized from w2v records.

    Rows for vocabulary words present in the file are copied bit-exactly
    (binary) or parsed (text); missing words are initialized uniform
    [-0.25, 0.25]; the padding row is zero. ``coverage`` records the found
    fraction of non-reserved words.
    """
    if file_vectors.shape[1] != dim:
        raise DataFormatError(
            f"file vectors have dim {file_vectors.shape[1]}, expected {dim}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    table = EmbeddingTable.random(vocab, dim, rng).vectors
    row_of = {w: i for i, w in enumerate(words)}
    found = 0
    for token, index in vocab.token_to_index.items():
        if index in (PAD_INDEX, OOV_INDEX):
            continue
        src = row_of.get(token)
        if src is not None:
            table[index] = file_vectors[src]
            found += 1
    table[PAD_INDEX] = 0.0
    n_words = len(vocab) - 2
    coverage = found / n_words if n_words else 0.0
    return EmbeddingTable(vocab=vocab, vectors=table, trainable=trainable, coverage=coverage)
