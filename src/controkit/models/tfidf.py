"""Tf-idf features with a linear max-margin classifier.

Features: raw term frequency times idf(t) = ln((1+N)/(1+df(t))) + 1, the
vector l2-normalized. Weights come from full-batch subgradient descent on
mean hinge loss plus an l2 penalty; the score is the raw margin w.x + b.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..corpus import CONTROVERSIAL
from ..errors import DataFormatError, UsageError
from ..textprep import tokenize
from .base import LexicalModel, count_terms


@dataclass
class TfIdfModel(LexicalModel):
    """Document frequencies, from which ``idf`` derives, and the margin weights."""
    terms: list[str]
    doc_freq: np.ndarray  # int64
    n_docs: int
    w: np.ndarray  # float32, one weight per term
    b: float

    def __post_init__(self):
        super().__post_init__()
        self.idf = np.log((1.0 + self.n_docs) / (1.0 + self.doc_freq)) + 1.0

    def feature_row(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The l2-normalized tf-idf values of a document's ascending term
        ``ids`` with their ``counts``: the one row builder of fit and score."""
        row = counts * self.idf[ids]
        norm = math.sqrt(row.dot(row))  # np.linalg.norm's sum, without its checks
        if norm > 0:
            row /= norm
        return row

    def term_counts(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """The ascending ids of a document's in-vocabulary terms, with their
        float64 counts: the form :func:`count_terms` gives a training document."""
        counts = Counter(tokens)
        known = [t for t in sorted(counts) if t in self.term_index]  # sorted terms: ids ascend
        return (np.fromiter(map(self.term_index.__getitem__, known), np.int64, len(known)),
                np.fromiter(map(counts.__getitem__, known), np.float64, len(known)))

    def score(self, tokens) -> float:
        """Margin w.x + b over the document's own terms; positive favors controversial."""
        ids, counts = self.term_counts(tokens)
        return float(self.feature_row(ids, counts) @ self.w[ids].astype(np.float64) + self.b)

    def checkpoint_parts(self):
        extra = {"doc_freq": [int(v) for v in self.doc_freq],
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
        doc_freq = ckpt.counts("doc_freq", len(terms))
        n_docs = ckpt.require("extra", "n_docs")
        if type(n_docs) is not int or n_docs < doc_freq.max(initial=0):
            raise DataFormatError(f"checkpoint n_docs {n_docs!r} is not an integer "
                                  f"at least every document frequency")
        return cls(terms=terms, doc_freq=doc_freq, n_docs=n_docs,
                   w=ckpt.array("w", (len(terms),)), b=float(ckpt.array("b", (1,))[0]))


def _feature_matrix(indptr, ids, counts, model: TfIdfModel):
    """COO arrays ``(rows, cols, data)`` of the feature rows of the documents
    :func:`count_terms` counted, each row built by ``feature_row``."""
    bounds = indptr.tolist()
    data = [model.feature_row(ids[a:b], counts[a:b]) for a, b in zip(bounds, bounds[1:])]
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), ids, np.concatenate(data)


def tfidf_train(docs, epochs: int, lr: float, l2: float) -> TfIdfModel:
    """Fit the margin classifier on labeled documents.

    Deterministic full-batch subgradient descent on
    mean(max(0, 1 - y (w.x + b))) + l2 ||w||^2 with y in {-1, +1}
    (+1 = controversial).

    The feature matrix is held as CSR arrays, and ``np.bincount`` computes
    ``x @ w`` and ``x.T @ coeff``. It adds the products to each output in
    the order it reads them, and both products read each output's terms in
    CSR storage order, as scipy's CSR and CSC matrix-vector kernels do; so
    the fit is bit-identical to one on a ``scipy.sparse`` matrix.
    """
    labels = np.array([1.0 if d.label == CONTROVERSIAL else -1.0 for d in docs])
    if not ((labels > 0).any() and (labels < 0).any()):
        raise UsageError("tf-idf training needs both classes in the corpus")

    terms, indptr, ids, counts = count_terms(tokenize(d.text) for d in docs)
    n_docs = len(docs)
    n_terms = len(terms)
    model = TfIdfModel(terms=terms, doc_freq=np.bincount(ids, minlength=n_terms),
                       n_docs=n_docs, w=np.zeros(n_terms, dtype=np.float32), b=0.0)

    rows, cols, data = _feature_matrix(indptr, ids, counts, model)
    del counts
    w = np.zeros(n_terms, dtype=np.float64)
    b = 0.0
    hinge_violating = hinge_grad_w = None
    for _ in range(epochs):
        margins = labels * (np.bincount(rows, data * w[cols], minlength=n_docs) + b)
        violating = margins < 1.0
        if violating.any():
            coeff = -labels * violating / n_docs
            # x.T @ coeff depends only on the violating set, which often
            # stays the same from one epoch to the next.
            if not np.array_equal(violating, hinge_violating):
                hinge_violating = violating
                hinge_grad_w = np.bincount(cols, data * coeff[rows], minlength=n_terms)
            grad_w = hinge_grad_w + 2.0 * l2 * w
            grad_b = float(coeff.sum())
        else:
            grad_w = 2.0 * l2 * w
            grad_b = 0.0
        w -= lr * grad_w
        b -= lr * grad_b
    model.w = w.astype(np.float32)
    model.b = float(np.float32(b))
    return model
