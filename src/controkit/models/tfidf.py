"""Tf-idf features with a linear max-margin classifier.

Features: raw term frequency times idf(t) = ln((1+N)/(1+df(t))) + 1, the
vector l2-normalized. Weights come from full-batch subgradient descent on
mean hinge loss plus an l2 penalty; the score is the raw margin w.x + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..corpus import CONTROVERSIAL
from ..errors import UsageError
from ..textprep import tokenize
from .base import LexicalModel


@dataclass
class TfIdfModel(LexicalModel):
    terms: list[str]
    term_index: dict[str, int]
    doc_freq: np.ndarray
    n_docs: int
    idf: np.ndarray
    w: np.ndarray  # float32, one weight per term
    b: float

    def score(self, tokens_or_text) -> float:
        """Margin w.x + b; positive favors controversial."""
        tokens = tokenize(tokens_or_text) if isinstance(tokens_or_text, str) else tokens_or_text
        vec = tfidf_vector(tokens, self)
        return float(vec @ self.w.astype(np.float64) + self.b)

    def checkpoint_parts(self):
        extra = {"terms": self.terms, "doc_freq": [int(v) for v in self.doc_freq],
                 "n_docs": self.n_docs}
        arrays = {"w": self.w, "b": np.array([self.b], dtype=np.float32)}
        return {}, arrays, self.terms, extra

    @classmethod
    def train(cls, docs, config) -> "TfIdfModel":
        return tfidf_train(docs, epochs=config.tfidf_epochs, lr=config.tfidf_lr,
                           l2=config.tfidf_l2)

    @classmethod
    def from_checkpoint(cls, ckpt) -> "TfIdfModel":
        terms = ckpt.vocabulary
        return tfidf_from_counts(terms=terms,
                                 doc_freq=ckpt.require("extra", "doc_freq", len(terms)),
                                 n_docs=ckpt.require("extra", "n_docs"),
                                 w=ckpt.array("w", (len(terms),)),
                                 b=float(ckpt.array("b", (1,))[0]))


def _idf(doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    return np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0


def tfidf_from_counts(terms, doc_freq, n_docs, w, b) -> TfIdfModel:
    doc_freq = np.asarray(doc_freq, dtype=np.int64)
    return TfIdfModel(
        terms=list(terms),
        term_index={t: i for i, t in enumerate(terms)},
        doc_freq=doc_freq,
        n_docs=int(n_docs),
        idf=_idf(doc_freq, int(n_docs)),
        w=np.asarray(w, dtype=np.float32),
        b=float(b),
    )


def tfidf_vector(tokens, model: TfIdfModel) -> np.ndarray:
    """l2-normalized tf-idf feature vector; unseen terms contribute nothing."""
    vec = np.zeros(len(model.terms), dtype=np.float64)
    for tok in tokens:
        idx = model.term_index.get(tok)
        if idx is not None:
            vec[idx] += 1.0
    vec *= model.idf
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def _feature_matrix(token_lists, model: TfIdfModel) -> sparse.csr_matrix:
    data, indices, indptr = [], [], [0]
    for tokens in token_lists:
        counts: dict[int, float] = {}
        for tok in tokens:
            idx = model.term_index.get(tok)
            if idx is not None:
                counts[idx] = counts.get(idx, 0.0) + 1.0
        cols = sorted(counts)
        row = np.array([counts[c] * model.idf[c] for c in cols], dtype=np.float64)
        norm = np.linalg.norm(row)
        if norm > 0:
            row /= norm
        data.extend(row)
        indices.extend(cols)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(model.terms)),
    )


def tfidf_train(docs, epochs: int = 200, lr: float = 0.5, l2: float = 1e-4) -> TfIdfModel:
    """Fit the margin classifier on labeled documents.

    Deterministic full-batch subgradient descent on
    mean(max(0, 1 - y (w.x + b))) + l2 ||w||^2 with y in {-1, +1}
    (+1 = controversial).
    """
    labels = np.array([1.0 if d.label == CONTROVERSIAL else -1.0 for d in docs])
    if not ((labels > 0).any() and (labels < 0).any()):
        raise UsageError("tf-idf training needs both classes in the corpus")

    token_lists = [tokenize(d.text) for d in docs]
    doc_freq_map: dict[str, int] = {}
    for tokens in token_lists:
        for tok in set(tokens):
            doc_freq_map[tok] = doc_freq_map.get(tok, 0) + 1
    terms = sorted(doc_freq_map)
    n_docs = len(docs)
    model = tfidf_from_counts(
        terms=terms,
        doc_freq=[doc_freq_map[t] for t in terms],
        n_docs=n_docs,
        w=np.zeros(len(terms), dtype=np.float32),
        b=0.0,
    )

    x = _feature_matrix(token_lists, model)
    w = np.zeros(len(terms), dtype=np.float64)
    b = 0.0
    for _ in range(epochs):
        margins = labels * (x @ w + b)
        violating = margins < 1.0
        if violating.any():
            coeff = -labels * violating / n_docs
            grad_w = x.T @ coeff + 2.0 * l2 * w
            grad_b = float(coeff.sum())
        else:
            grad_w = 2.0 * l2 * w
            grad_b = 0.0
        w -= lr * grad_w
        b -= lr * grad_b
    model.w = w.astype(np.float32)
    model.b = float(np.float32(b))
    return model
