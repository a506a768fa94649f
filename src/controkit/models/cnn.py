"""Window-convolution text classifier with max-over-time pooling.

For each window size, filters slide over consecutive embedding windows;
each filter's per-position ReLU activations collapse to their maximum, so
a matched n-gram contributes the same pooled value wherever it sits. The
pooled features pass through dropout and a dense layer into a two-way
softmax. The network reads a document's own tokens and one widest window
of padding, built while encoding (``network_input``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable
from ..textprep import PAD_INDEX, encode_tokens
from .base import EmptyDocumentError, NeuralModel, glorot_uniform

N_CLASSES = 2  # index 0 non-controversial, index 1 controversial


@dataclass
class CnnParams(NeuralModel):
    embedding: EmbeddingTable
    arrays: dict            # conv<h>.w (n_filters, h*dim), conv<h>.b, dense.w (2, pooled), dense.b
    window_sizes: tuple
    max_tokens: int         # tokens read per document

    SHAPE = {"window_sizes": list, "n_filters": int, "max_tokens": int}

    @property
    def n_filters(self) -> int:
        return self.arrays[f"conv{self.window_sizes[0]}.w"].shape[0]

    @classmethod
    def random(cls, embedding: EmbeddingTable, rng, *, window_sizes, n_filters, max_tokens):
        dim = embedding.dim
        arrays = {}
        for h in window_sizes:
            arrays[f"conv{h}.w"] = glorot_uniform(rng, fan_in=h * dim, fan_out=n_filters,
                                                  shape=(n_filters, h * dim))
            arrays[f"conv{h}.b"] = np.zeros(n_filters, dtype=np.float32)
        pooled = n_filters * len(window_sizes)
        arrays["dense.w"] = glorot_uniform(rng, fan_in=pooled, fan_out=N_CLASSES,
                                           shape=(N_CLASSES, pooled))
        arrays["dense.b"] = np.zeros(N_CLASSES, dtype=np.float32)
        return cls(embedding, arrays, tuple(window_sizes), max_tokens)

    def network_input(self, doc) -> list[int]:
        """The ids of the first ``max_tokens`` tokens of a document (or a
        text), then ``max(window_sizes)`` padding ids, capped at ``max_tokens``.

        The pooled features are those of the input padded to ``max_tokens``:
        the padding row is zero, so every all-padding window evaluates to
        ``relu(b)``, and this input keeps every window that reads a token, in
        front, and one all-padding window wherever the padded input had one,
        so each filter's first maximum is where it was. Only float rounding
        can differ: a GEMM may round a row differently in a shorter product.
        """
        tokens = encode_tokens(doc, self.embedding.vocab, self.max_tokens)
        if not tokens:
            raise EmptyDocumentError(f"document {getattr(doc, 'id', '')!r} has no tokens")
        return tokens + [PAD_INDEX] * min(max(self.window_sizes), self.max_tokens - len(tokens))

    input_ids = staticmethod(iter)

    def logits(self, bound, tokens, mode: str = "eval", rng=None,
               dropout_rate: float = 0.5) -> ad.Tensor:
        """Forward graph up to the (1, 2) logits node; a document shorter
        than the widest window is padded to it."""
        tokens = list(tokens) + [PAD_INDEX] * (max(self.window_sizes) - len(tokens))
        embedded = ad.lookup(bound["embedding"], tokens, pad_index=PAD_INDEX)
        pooled = ad.conv_max_pool(embedded, [(bound[f"conv{h}.w"], bound[f"conv{h}.b"])
                                             for h in self.window_sizes])
        features = ad.dropout(pooled, dropout_rate, mode, rng)
        return ad.linear(features, bound["dense.w"], bound["dense.b"])
