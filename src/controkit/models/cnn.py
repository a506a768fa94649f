"""Window-convolution text classifier with max-over-time pooling.

For each window size, filters slide over consecutive embedding windows;
each filter's per-position ReLU activations collapse to their maximum, so
a matched n-gram contributes the same pooled value wherever it sits. The
pooled features pass through dropout and a dense layer into a two-way
softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable
from ..errors import DimensionError
from ..textprep import PAD_INDEX, EncodedDocument
from .base import EmptyDocumentError, NeuralModel, glorot_uniform

N_CLASSES = 2  # index 0 non-controversial, index 1 controversial


@dataclass
class CnnParams(NeuralModel):
    embedding: EmbeddingTable
    window_sizes: tuple
    filters: dict           # window size -> (n_filters, window*dim) float32
    filter_biases: dict     # window size -> (n_filters,) float32
    dense_w: np.ndarray     # (2, n_windows*n_filters)
    dense_b: np.ndarray     # (2,)

    SHAPE = {"window_sizes": list, "n_filters": int}

    @property
    def n_filters(self) -> int:
        return next(iter(self.filters.values())).shape[0]

    @classmethod
    def random(cls, embedding: EmbeddingTable, rng, window_sizes=(2, 3, 4), n_filters=128):
        dim = embedding.dim
        filters, biases = {}, {}
        for h in window_sizes:
            filters[h] = glorot_uniform(rng, fan_in=h * dim, fan_out=n_filters,
                                        shape=(n_filters, h * dim))
            biases[h] = np.zeros(n_filters, dtype=np.float32)
        pooled = n_filters * len(window_sizes)
        return cls(
            embedding=embedding,
            window_sizes=tuple(window_sizes),
            filters=filters,
            filter_biases=biases,
            dense_w=glorot_uniform(rng, fan_in=pooled, fan_out=N_CLASSES,
                                   shape=(N_CLASSES, pooled)),
            dense_b=np.zeros(N_CLASSES, dtype=np.float32),
        )

    def named_arrays(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding.vectors}
        for h in self.window_sizes:
            out[f"conv{h}.w"] = self.filters[h]
            out[f"conv{h}.b"] = self.filter_biases[h]
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out

    def score(self, encoded: EncodedDocument) -> float:
        return float(cnn_forward(encoded, self, mode="eval")[1])


class BoundCnn:
    """CNN parameters registered in one graph, transposes shared."""

    def __init__(self, graph: ad.Graph, params: CnnParams):
        self.params = params
        if params.embedding.trainable:
            self.embedding = graph.parameter("embedding", params.embedding.vectors)
        else:
            self.embedding = graph.constant(params.embedding.vectors, name="embedding")
        self.filters_t = {}
        self.biases = {}
        for h in params.window_sizes:
            self.filters_t[h] = ad.transpose(graph.parameter(f"conv{h}.w", params.filters[h]))
            self.biases[h] = graph.parameter(f"conv{h}.b", params.filter_biases[h])
        self.dense_w_t = ad.transpose(graph.parameter("dense.w", params.dense_w))
        self.dense_b = graph.parameter("dense.b", params.dense_b)


def _prepare_tokens(tokens, window_sizes) -> list[int]:
    max_window = max(window_sizes)
    toks = list(tokens)
    if all(t == PAD_INDEX for t in toks):
        raise EmptyDocumentError("document has no tokens")
    if len(toks) < max_window:
        toks = toks + [PAD_INDEX] * (max_window - len(toks))
    return toks


def cnn_logits(graph: ad.Graph, bound: BoundCnn, tokens, mode: str, rng=None,
               dropout_rate: float = 0.5) -> ad.Tensor:
    """Forward graph up to the (1, 2) logits node."""
    toks = _prepare_tokens(tokens, bound.params.window_sizes)
    embedded = ad.lookup(bound.embedding, toks, pad_index=PAD_INDEX)
    pooled = []
    for h in bound.params.window_sizes:
        win = ad.windows(embedded, h)
        act = ad.relu(ad.add(ad.matmul(win, bound.filters_t[h]), bound.biases[h]))
        pooled.append(ad.max_over_rows(act))
    features = ad.concat(pooled, axis=1)
    features = ad.dropout(features, dropout_rate, mode, rng)
    return ad.add(ad.matmul(features, bound.dense_w_t), bound.dense_b)


def cnn_loss(graph: ad.Graph, bound: BoundCnn, tokens, target: int, mode: str,
             rng=None, dropout_rate: float = 0.5, l2: float = 1e-3) -> ad.Tensor:
    """Cross-entropy plus the l2 penalty on the dense prediction weights."""
    logits = cnn_logits(graph, bound, tokens, mode, rng, dropout_rate)
    nll = -ad.element(ad.log_softmax(logits), 0, target)
    if l2 > 0:
        w = graph.params["dense.w"]
        return ad.add(nll, ad.sum_all(ad.mul(w, w)) * l2)
    return nll


def cnn_forward(encoded, params: CnnParams, mode: str = "eval", rng=None,
                dropout_rate: float = 0.5, dtype=np.float32) -> np.ndarray:
    """Class probabilities [non-controversial, controversial] for one document."""
    if isinstance(encoded, EncodedDocument):
        if encoded.empty:
            raise EmptyDocumentError(f"document {encoded.doc_id!r} is empty")
        tokens = encoded.tokens
    else:
        tokens = encoded
    graph = ad.Graph(dtype)
    bound = BoundCnn(graph, params)
    logits = cnn_logits(graph, bound, tokens, mode, rng, dropout_rate)
    probs = ad.softmax(logits)
    if probs.data.shape != (1, N_CLASSES):
        raise DimensionError(f"unexpected output shape {probs.data.shape}")
    return probs.data[0]
