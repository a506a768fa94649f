"""Hierarchical attention classifier: word-level bi-GRU with attention
builds sentence vectors, a sentence-level bi-GRU with attention builds the
document vector.

Within a document all sentences run the word-level GRUs in lockstep,
padded to the longest sentence; padded steps keep their previous hidden
state and their attention logits are pushed to -1e9 so padded positions
get zero weight. Every attention distribution is an explicit softmax, so
word-attention rows and the sentence-attention vector each sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable
from ..gru import BoundGru, GruParams, gru_step
from ..textprep import PAD_INDEX, EncodedDocument
from .base import EmptyDocumentError, NeuralModel, glorot_uniform

N_CLASSES = 2
MASK_LOGIT = -1e9


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

    SHAPE = ("hidden_dim",)

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

    def score(self, encoded: EncodedDocument) -> float:
        return float(han_forward(encoded, self, mode="eval")[0][1])


class _BoundAttention:
    def __init__(self, graph: ad.Graph, prefix: str, w, b, u):
        self.w_t = ad.transpose(graph.parameter(f"{prefix}.w", w))
        self.b = graph.parameter(f"{prefix}.b", b)
        self.u_col = ad.reshape(graph.parameter(f"{prefix}.u", u), (len(u), 1))


class BoundHan:
    def __init__(self, graph: ad.Graph, params: HanParams):
        self.params = params
        if params.embedding.trainable:
            self.embedding = graph.parameter("embedding", params.embedding.vectors)
        else:
            self.embedding = graph.constant(params.embedding.vectors, name="embedding")
        self.word_fw = BoundGru(graph, "word_fw", params.word_fw)
        self.word_bw = BoundGru(graph, "word_bw", params.word_bw)
        self.word_att = _BoundAttention(graph, "word_att", params.word_att_w,
                                        params.word_att_b, params.word_att_u)
        self.sent_fw = BoundGru(graph, "sent_fw", params.sent_fw)
        self.sent_bw = BoundGru(graph, "sent_bw", params.sent_bw)
        self.sent_att = _BoundAttention(graph, "sent_att", params.sent_att_w,
                                        params.sent_att_b, params.sent_att_u)
        self.dense_w_t = ad.transpose(graph.parameter("dense.w", params.dense_w))
        self.dense_b = graph.parameter("dense.b", params.dense_b)


def _bi_gru_states(graph, x_steps, masks, fw_cell, bw_cell, n_rows, hidden):
    """Forward+backward GRU over a padded step sequence; returns the
    concatenated (n_rows, 2*hidden) annotation per step."""
    zeros = np.zeros((n_rows, hidden), dtype=graph.dtype)
    h = graph.constant(zeros)
    fw = []
    for t in range(len(x_steps)):
        h = gru_step(x_steps[t], h, fw_cell, mask=masks[t] if masks else None)
        fw.append(h)
    h = graph.constant(zeros.copy())
    bw = [None] * len(x_steps)
    for t in reversed(range(len(x_steps))):
        h = gru_step(x_steps[t], h, bw_cell, mask=masks[t] if masks else None)
        bw[t] = h
    return [ad.concat((fw[t], bw[t]), axis=1) for t in range(len(x_steps))]


def han_document_vector(graph: ad.Graph, bound: BoundHan, sentences, mode: str,
                        rng=None, dropout_rate: float = 0.5):
    """Document vector plus both attention distributions.

    Returns (doc_vec (1, 2h), word_alpha (S, L) with padded positions at
    zero weight, sent_alpha (1, S)).
    """
    if not sentences:
        raise EmptyDocumentError("document has no sentences")
    n_sent = len(sentences)
    max_len = max(len(s) for s in sentences)
    hidden = bound.params.hidden_dim

    padded = np.full((n_sent, max_len), PAD_INDEX, dtype=np.int64)
    mask_np = np.zeros((n_sent, max_len), dtype=graph.dtype)
    for i, sent in enumerate(sentences):
        padded[i, : len(sent)] = sent
        mask_np[i, : len(sent)] = 1.0

    x_steps = [ad.lookup(bound.embedding, padded[:, t], pad_index=PAD_INDEX)
               for t in range(max_len)]
    masks = None
    if mask_np.min() == 0.0:
        masks = [graph.constant(mask_np[:, t : t + 1]) for t in range(max_len)]

    annotations = _bi_gru_states(graph, x_steps, masks, bound.word_fw, bound.word_bw,
                                 n_sent, hidden)

    score_cols = []
    for t in range(max_len):
        u_t = ad.tanh(ad.add(ad.matmul(annotations[t], bound.word_att.w_t), bound.word_att.b))
        score_cols.append(ad.matmul(u_t, bound.word_att.u_col))
    scores = ad.concat(score_cols, axis=1)  # (S, L)
    if masks is not None:
        # (mask - 1) * 1e9 adds -1e9 to padded positions, forcing their
        # attention weight to exactly zero after the stabilized softmax.
        mask_bonus = graph.constant((mask_np - 1.0) * -MASK_LOGIT)
        scores = ad.add(scores, mask_bonus)
    word_alpha = ad.softmax(scores)

    sent_vec = None
    for t in range(max_len):
        weighted = ad.mul(ad.col(word_alpha, t), annotations[t])
        sent_vec = weighted if sent_vec is None else ad.add(sent_vec, weighted)

    sent_rows = [ad.row(sent_vec, i) for i in range(n_sent)]
    sent_annotations = _bi_gru_states(graph, sent_rows, None, bound.sent_fw, bound.sent_bw,
                                      1, hidden)
    sent_h = ad.concat(sent_annotations, axis=0)  # (S, 2h)
    u_s = ad.tanh(ad.add(ad.matmul(sent_h, bound.sent_att.w_t), bound.sent_att.b))
    sent_scores = ad.reshape(ad.matmul(u_s, bound.sent_att.u_col), (1, n_sent))
    sent_alpha = ad.softmax(sent_scores)
    doc_vec = ad.matmul(sent_alpha, sent_h)  # (1, 2h)
    doc_vec = ad.dropout(doc_vec, dropout_rate, mode, rng)
    return doc_vec, word_alpha, sent_alpha


def han_logits(graph, bound, sentences, mode, rng=None, dropout_rate=0.5):
    doc_vec, word_alpha, sent_alpha = han_document_vector(
        graph, bound, sentences, mode, rng, dropout_rate)
    logits = ad.add(ad.matmul(doc_vec, bound.dense_w_t), bound.dense_b)
    return logits, word_alpha, sent_alpha


def han_loss(graph: ad.Graph, bound: BoundHan, sentences, target: int, mode: str,
             rng=None, dropout_rate: float = 0.5, l2: float = 1e-3) -> ad.Tensor:
    logits, _, _ = han_logits(graph, bound, sentences, mode, rng, dropout_rate)
    nll = -ad.element(ad.log_softmax(logits), 0, target)
    if l2 > 0:
        w = graph.params["dense.w"]
        return ad.add(nll, ad.sum_all(ad.mul(w, w)) * l2)
    return nll


def han_forward(encoded, params: HanParams, mode: str = "eval", rng=None,
                dropout_rate: float = 0.5, dtype=np.float32):
    """Class probabilities plus attention weights for one document.

    Returns (probs[2], word_attention, sentence_attention): word attention
    is a list per sentence trimmed to the sentence's true length; sentence
    attention is a 1-D array over sentences. Each distribution sums to 1.
    """
    if isinstance(encoded, EncodedDocument):
        if encoded.empty or not encoded.sentences:
            raise EmptyDocumentError(f"document {encoded.doc_id!r} has no sentences")
        sentences = encoded.sentences
    else:
        sentences = encoded
        if not sentences:
            raise EmptyDocumentError("document has no sentences")
    graph = ad.Graph(dtype)
    bound = BoundHan(graph, params)
    logits, word_alpha, sent_alpha = han_logits(graph, bound, sentences, mode, rng, dropout_rate)
    probs = ad.softmax(logits)
    word_attention = [word_alpha.data[i, : len(sent)].copy()
                      for i, sent in enumerate(sentences)]
    return probs.data[0], word_attention, sent_alpha.data[0].copy()
