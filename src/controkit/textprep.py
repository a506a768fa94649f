"""Deterministic text preparation: tokens, sentences, vocabulary, encoding."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import UsageError

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Trailing abbreviations after which a '.' does not end a sentence.
ABBREVIATIONS = frozenset(
    "mr mrs ms dr prof sr jr st etc vs eg ie cf al fig no inc ltd co corp dept est".split()
)

_BOUNDARY_RE = re.compile(r"[.!?]+|\n+")
_TRAILING_WORD_RE = re.compile(r"[A-Za-z.]+$")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; standalone punctuation disappears.

    Pure and deterministic; empty text gives an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!', '?' and newline runs, guarding common abbreviations.

    Terminators are not part of the returned sentences and empty segments
    are dropped; text without a terminator is one sentence.
    """
    sentences = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        if not m.group().startswith("\n"):
            # internal dots ("e.g", "U.S.-led", "3.14", hostnames) are
            # followed by a non-space character, real terminators are not
            if m.end() < len(text) and not text[m.end()].isspace():
                continue
            if m.group().startswith("."):
                before = _TRAILING_WORD_RE.search(text[max(0, m.start() - 12) : m.start()])
                if before and before.group().replace(".", "").lower() in ABBREVIATIONS:
                    continue
        segment = text[start : m.start()].strip()
        if segment:
            sentences.append(segment)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


@dataclass
class Vocabulary:
    """Token/index bijection with two reserved slots: 0 padding, 1 OOV."""

    token_to_index: dict[str, int]
    index_to_token: list[str]
    counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.index_to_token)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, OOV_INDEX)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def words(self) -> list[str]:
        """Non-reserved tokens in index order."""
        return self.index_to_token[2:]

    @classmethod
    def from_tokens(cls, ordered_tokens, counts=None) -> "Vocabulary":
        index_to_token = [PAD_TOKEN, OOV_TOKEN] + list(ordered_tokens)
        token_to_index = {t: i for i, t in enumerate(index_to_token)}
        if len(token_to_index) != len(index_to_token):
            raise UsageError("duplicate tokens in vocabulary")
        return cls(token_to_index, index_to_token, dict(counts or {}))


def build_vocabulary(corpus, max_size: int = 50_000, min_freq: int = 2) -> Vocabulary:
    """Frequency-ranked vocabulary over a document stream.

    ``corpus`` yields objects with a ``text`` attribute or plain strings.
    Ties in frequency break lexicographically; ``max_size`` caps the total
    vocabulary including the two reserved slots.
    """
    counts: dict[str, int] = {}
    empty = True
    for doc in corpus:
        empty = False
        text = doc.text if hasattr(doc, "text") else doc
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    kept = kept[: max(0, max_size - 2)]
    return Vocabulary.from_tokens(kept, {t: counts[t] for t in kept})


@dataclass
class EncodeLimits:
    max_sentences: int = 30
    max_words_per_sentence: int = 50
    max_tokens: int = 400

    def validated(self) -> "EncodeLimits":
        limits = (self.max_sentences, self.max_words_per_sentence, self.max_tokens)
        if not all(type(n) is int and n > 0 for n in limits):
            raise UsageError(f"encode limits must be positive integers: {self}")
        return self


@dataclass
class EncodedDocument:
    """Model-ready index form of one document.

    ``sentences`` is the hierarchical form (empty sentences dropped, prefix
    truncation); ``tokens`` is the flat form right-padded with the padding
    index to exactly ``max_tokens``. ``empty`` marks documents with no
    tokens at all; those are excluded from training and scored 0.5 at
    inference.
    """

    doc_id: str
    sentences: list[list[int]]
    tokens: list[int]
    empty: bool


def encode_document(doc, vocab: Vocabulary, limits: EncodeLimits | None = None) -> EncodedDocument:
    limits = (limits or EncodeLimits()).validated()
    text = doc.text if hasattr(doc, "text") else doc
    doc_id = getattr(doc, "id", "")

    sentences = []
    for sent in split_sentences(text)[: limits.max_sentences]:
        idx = [vocab.index(t) for t in tokenize(sent)[: limits.max_words_per_sentence]]
        if idx:
            sentences.append(idx)

    flat = [vocab.index(t) for t in tokenize(text)[: limits.max_tokens]]
    empty = not flat
    flat = flat + [PAD_INDEX] * (limits.max_tokens - len(flat))
    return EncodedDocument(doc_id=doc_id, sentences=sentences, tokens=flat, empty=empty)
