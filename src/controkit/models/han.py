"""Hierarchical attention classifier: word-level bi-GRU with attention
builds sentence vectors, a sentence-level bi-GRU with attention builds the
document vector.

Within a document all sentences run the word-level GRUs in lockstep,
padded to the longest sentence; padded steps keep their previous hidden
state, and ``attention_pool``'s mask gives them attention weight exactly
zero. Every attention distribution is a softmax, so word-attention rows
and the sentence-attention vector each sum to 1.

A document's graph has the same nodes whatever its size: one lookup of
the padded (S, L) word matrix, one ``gru_sequence`` node per GRU
direction and level, one ``attention_pool`` node per level (S groups of
L words, then one group of S sentences) and the ``linear`` dense layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable
from ..gru import GruParams, gru_sequence
from ..textprep import PAD_INDEX, EncodedDocument
from .base import EmptyDocumentError, NeuralModel, glorot_uniform

N_CLASSES = 2


@dataclass
class HanParams(NeuralModel):
    embedding: EmbeddingTable
    word_fw: GruParams
    word_bw: GruParams
    word_att_w: np.ndarray   # (2h, 2h)
    word_att_b: np.ndarray   # (2h,)
    word_att_u: np.ndarray   # (2h,) context vector
    sent_fw: GruParams
    sent_bw: GruParams
    sent_att_w: np.ndarray
    sent_att_b: np.ndarray
    sent_att_u: np.ndarray
    dense_w: np.ndarray      # (2, 2h)
    dense_b: np.ndarray      # (2,)

    SHAPE = {"hidden_dim": int}

    @property
    def hidden_dim(self) -> int:
        return self.word_fw.hidden_dim

    @classmethod
    def random(cls, embedding: EmbeddingTable, rng, hidden_dim: int = 50, scale: float = 0.1):
        dim = embedding.dim
        rep = 2 * hidden_dim  # concatenated bi-directional width

        def u(*shape):
            return rng.uniform(-scale, scale, size=shape).astype(np.float32)

        return cls(
            embedding=embedding,
            word_fw=GruParams.random(dim, hidden_dim, rng, scale),
            word_bw=GruParams.random(dim, hidden_dim, rng, scale),
            word_att_w=u(rep, rep),
            word_att_b=u(rep),
            word_att_u=u(rep),
            sent_fw=GruParams.random(rep, hidden_dim, rng, scale),
            sent_bw=GruParams.random(rep, hidden_dim, rng, scale),
            sent_att_w=u(rep, rep),
            sent_att_b=u(rep),
            sent_att_u=u(rep),
            dense_w=glorot_uniform(rng, fan_in=rep, fan_out=N_CLASSES, shape=(N_CLASSES, rep)),
            dense_b=np.zeros(N_CLASSES, dtype=np.float32),
        )

    def named_arrays(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding.vectors}
        out.update(self.word_fw.named_arrays("word_fw"))
        out.update(self.word_bw.named_arrays("word_bw"))
        out["word_att.w"] = self.word_att_w
        out["word_att.b"] = self.word_att_b
        out["word_att.u"] = self.word_att_u
        out.update(self.sent_fw.named_arrays("sent_fw"))
        out.update(self.sent_bw.named_arrays("sent_bw"))
        out["sent_att.w"] = self.sent_att_w
        out["sent_att.b"] = self.sent_att_b
        out["sent_att.u"] = self.sent_att_u
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out

    def network_input(self, doc) -> list[list[int]]:
        """The sentences of an encoded document (or a sentence list)."""
        sentences = doc.sentences if isinstance(doc, EncodedDocument) else doc
        if not sentences:
            raise EmptyDocumentError(f"document {getattr(doc, 'doc_id', '')!r} has no sentences")
        return sentences

    def logits(self, bound, sentences, mode: str = "eval", rng=None,
               dropout_rate: float = 0.5) -> ad.Tensor:
        return han_logits(bound, sentences, mode, rng, dropout_rate)[0]


def _cell(bound, prefix: str) -> tuple:
    """The nine bound blocks of one GRU, in the order ``gru_sequence`` takes."""
    return tuple(bound[f"{prefix}.{block.name}"] for block in fields(GruParams))


def _attention(bound, prefix: str) -> tuple:
    """The bound ``w``, ``b`` and ``u`` blocks of one attention level, in the
    order ``attention_pool`` takes."""
    return tuple(bound[f"{prefix}.{name}"] for name in ("w", "b", "u"))


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
    word_h = ad.concat((gru_sequence(x, _cell(bound, "word_fw"), n_sent, mask),
                        gru_sequence(x, _cell(bound, "word_bw"), n_sent, mask, reverse=True)),
                       axis=1)
    sent_vec, word_alpha = ad.attention_pool(word_h, *_attention(bound, "word_att"), n_sent, mask)

    # sentence level: one sequence of S steps
    sent_h = ad.concat((gru_sequence(sent_vec, _cell(bound, "sent_fw"), 1),
                        gru_sequence(sent_vec, _cell(bound, "sent_bw"), 1, reverse=True)),
                       axis=1)
    doc_vec, sent_alpha = ad.attention_pool(sent_h, *_attention(bound, "sent_att"), 1)  # (1, 2h)
    doc_vec = ad.dropout(doc_vec, dropout_rate, mode, rng)
    return doc_vec, word_alpha, sent_alpha


def han_logits(bound, sentences, mode: str, rng=None, dropout_rate: float = 0.5):
    """The (1, 2) logits node plus both attention distributions (arrays)."""
    doc_vec, word_alpha, sent_alpha = han_document_vector(bound, sentences, mode, rng,
                                                          dropout_rate)
    logits = ad.linear(doc_vec, bound["dense.w"], bound["dense.b"])
    return logits, word_alpha, sent_alpha


def han_forward(doc, params: HanParams, mode: str = "eval", rng=None,
                dropout_rate: float = 0.5, dtype=np.float32):
    """Class probabilities plus attention weights for one document.

    Returns (probs[2], word_attention, sentence_attention): word attention
    is a list per sentence trimmed to the sentence's true length; sentence
    attention is a 1-D array over sentences. Each distribution sums to 1.
    """
    sentences = params.network_input(doc)
    graph = ad.Graph(dtype)
    logits, word_alpha, sent_alpha = han_logits(params.bind(graph), sentences, mode, rng,
                                                dropout_rate)
    word_attention = [word_alpha[i, : len(sent)].copy() for i, sent in enumerate(sentences)]
    return ad.stable_softmax(logits.data)[0], word_attention, sent_alpha[0].copy()
