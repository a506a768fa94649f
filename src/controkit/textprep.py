"""Deterministic text preparation: tokens, sentences, vocabulary, encoding."""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    """Token/index bijection with two reserved slots: 0 padding, 1 OOV.
    ``counts[i]`` is the corpus count of token ``i`` (0 for the reserved
    slots and for tokens no count was given)."""

    token_to_index: dict[str, int]
    index_to_token: list[str]
    counts: list[int]

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
        """The vocabulary of ``ordered_tokens`` after the reserved slots;
        ``counts`` maps tokens to their corpus counts."""
        index_to_token = [PAD_TOKEN, OOV_TOKEN] + list(ordered_tokens)
        token_to_index = {t: i for i, t in enumerate(index_to_token)}
        if len(token_to_index) != len(index_to_token):
            raise UsageError("duplicate tokens in vocabulary")
        counts = counts or {}
        return cls(token_to_index, index_to_token,
                   [0, 0] + [counts.get(t, 0) for t in index_to_token[2:]])


def build_vocabulary(corpus, max_size: int, min_freq: int) -> Vocabulary:
    """Frequency-ranked vocabulary over a document stream.

    ``corpus`` yields objects with a ``text`` attribute or plain strings.
    Ties in frequency break lexicographically; ``max_size`` caps the total
    vocabulary including the two reserved slots.
    """
    counts: dict[str, int] = {}
    empty = True
    for doc in corpus:
        empty = False
        for tok in tokenize(_text(doc)):
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    kept = kept[: max(0, max_size - 2)]
    return Vocabulary.from_tokens(kept, {t: counts[t] for t in kept})


def encode_tokens(doc, vocab: Vocabulary, max_tokens: int) -> list[int]:
    """The ids of a document's (or a text's) first ``max_tokens`` tokens,
    unpadded; empty when it has no tokens."""
    return [vocab.index(t) for t in tokenize(_text(doc))[:max_tokens]]


def encode_sentences(doc, vocab: Vocabulary, max_sentences: int,
                     max_words_per_sentence: int) -> list[list[int]]:
    """The id lists of a document's (or a text's) first ``max_sentences``
    sentences, each cut to ``max_words_per_sentence`` ids and unpadded;
    sentences without a token are dropped."""
    sentences = []
    for sent in split_sentences(_text(doc))[:max_sentences]:
        idx = [vocab.index(t) for t in tokenize(sent)[:max_words_per_sentence]]
        if idx:
            sentences.append(idx)
    return sentences


def _text(doc) -> str:
    return doc.text if hasattr(doc, "text") else doc
