"""Hierarchical attention classifier: word-level bi-GRU with attention
builds sentence vectors, a sentence-level bi-GRU with attention builds the
document vector.

Within a document all sentences run the word-level GRUs in lockstep,
padded to the longest sentence; padded steps keep their previous hidden
state, and ``attention_pool``'s mask gives them attention weight exactly
zero. Every attention distribution is a softmax, so word-attention rows
and the sentence-attention vector each sum to 1.

A document's graph has the same nodes whatever its size: one lookup of
the padded (S, L) word matrix, one bidirectional ``gru_sequence`` node
per level, one ``attention_pool`` node per level (S groups of L words,
then one group of S sentences) and the ``linear`` dense layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable
from ..gru import gru_arrays, gru_sequence
from ..textprep import PAD_INDEX, encode_sentences
from .base import EmptyDocumentError, NeuralModel, glorot_uniform

N_CLASSES = 2


@dataclass
class HanParams(NeuralModel):
    embedding: EmbeddingTable
    arrays: dict  # {word,sent}_gru.{w,u,b}, {word,sent}_att.{w,b,u}, dense.{w,b}
    max_sentences: int  # sentences read per document
    max_words_per_sentence: int

    SHAPE = {"hidden_dim": int, "max_sentences": int, "max_words_per_sentence": int}

    @property
    def hidden_dim(self) -> int:
        return self.arrays["word_gru.u"].shape[2]

    @classmethod
    def random(cls, embedding: EmbeddingTable, rng, *, hidden_dim: int, max_sentences: int,
               max_words_per_sentence: int, scale: float = 0.1):
        rep = 2 * hidden_dim  # concatenated bi-directional width
        arrays = {}
        for level, input_dim in (("word", embedding.dim), ("sent", rep)):
            gru = gru_arrays(input_dim, hidden_dim, rng, scale)
            arrays.update(zip((f"{level}_gru.{name}" for name in "wub"), gru))
            for name, shape in (("w", (rep, rep)), ("b", (rep,)), ("u", (rep,))):
                arrays[f"{level}_att.{name}"] = rng.uniform(-scale, scale,
                                                            size=shape).astype(np.float32)
        arrays["dense.w"] = glorot_uniform(rng, fan_in=rep, fan_out=N_CLASSES,
                                           shape=(N_CLASSES, rep))
        arrays["dense.b"] = np.zeros(N_CLASSES, dtype=np.float32)
        return cls(embedding, arrays, max_sentences, max_words_per_sentence)

    def network_input(self, doc) -> list[list[int]]:
        """The non-empty sentence id lists of a document (or a text), capped."""
        sentences = encode_sentences(doc, self.embedding.vocab, self.max_sentences,
                                     self.max_words_per_sentence)
        if not sentences:
            raise EmptyDocumentError(f"document {getattr(doc, 'id', '')!r} has no sentences")
        return sentences

    input_ids = staticmethod(chain.from_iterable)

    def logits(self, bound, sentences, mode: str = "eval", rng=None,
               dropout_rate: float = 0.5) -> ad.Tensor:
        return han_logits(bound, sentences, mode, rng, dropout_rate)[0]


def _nodes(bound, prefix: str, names: str) -> tuple:
    """The bound ``prefix.<name>`` arrays, one per letter of ``names``."""
    return tuple(bound[f"{prefix}.{name}"] for name in names)


def han_document_vector(bound, sentences, mode: str, rng=None, dropout_rate: float = 0.5):
    """Document vector plus both attention distributions.

    Returns (doc_vec (1, 2h), word_alpha (S, L) with padded positions at
    zero weight, sent_alpha (1, S)), the two distributions as arrays.
    """
    n_sent = len(sentences)
    lengths = np.array([len(s) for s in sentences])
    max_len = int(lengths.max())

    padded = np.full((n_sent, max_len), PAD_INDEX, dtype=np.int64)
    for i, sent in enumerate(sentences):
        padded[i, : len(sent)] = sent
    mask = np.arange(max_len) < lengths[:, None]

    # word level: row i * L + t of every (S * L, .) node is word t of sentence i
    x = ad.lookup(bound["embedding"], padded.reshape(-1), pad_index=PAD_INDEX)
    word_h = gru_sequence(x, _nodes(bound, "word_gru", "wub"), n_sent, mask)
    sent_vec, word_alpha = ad.attention_pool(word_h, *_nodes(bound, "word_att", "wbu"), n_sent,
                                             mask)

    # sentence level: one sequence of S steps
    sent_h = gru_sequence(sent_vec, _nodes(bound, "sent_gru", "wub"), 1)
    doc_vec, sent_alpha = ad.attention_pool(sent_h, *_nodes(bound, "sent_att", "wbu"), 1)  # (1, 2h)
    doc_vec = ad.dropout(doc_vec, dropout_rate, mode, rng)
    return doc_vec, word_alpha, sent_alpha


def han_logits(bound, sentences, mode: str, rng=None, dropout_rate: float = 0.5):
    """The (1, 2) logits node plus both attention distributions (arrays)."""
    doc_vec, word_alpha, sent_alpha = han_document_vector(bound, sentences, mode, rng,
                                                          dropout_rate)
    logits = ad.linear(doc_vec, bound["dense.w"], bound["dense.b"])
    return logits, word_alpha, sent_alpha


def han_forward(sentences, params: HanParams, mode: str = "eval", rng=None,
                dropout_rate: float = 0.5, dtype=np.float32):
    """Class probabilities plus attention weights for one document's
    sentences (``HanParams.network_input``).

    Returns (probs[2], word_attention, sentence_attention): word attention
    is a list per sentence trimmed to the sentence's true length; sentence
    attention is a 1-D array over sentences. Each distribution sums to 1.
    """
    graph = ad.Graph(dtype)
    logits, word_alpha, sent_alpha = han_logits(params.bind(graph), sentences, mode, rng,
                                                dropout_rate)
    word_attention = [word_alpha[i, : len(sent)].copy() for i, sent in enumerate(sentences)]
    return ad.stable_softmax(logits.data)[0], word_attention, sent_alpha[0].copy()
