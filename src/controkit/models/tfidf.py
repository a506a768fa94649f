"""Tf-idf features with a linear max-margin classifier.

Features: raw term frequency times idf(t) = ln((1+N)/(1+df(t))) + 1, the
vector l2-normalized. Weights come from full-batch subgradient descent on
mean hinge loss plus an l2 penalty; the score is the raw margin w.x + b.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

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

    def score(self, tokens) -> float:
        """Margin w.x + b; positive favors controversial."""
        vec = tfidf_vector(tokens, self)
        return float(vec @ self.w.astype(np.float64) + self.b)

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


def _feature_matrix(doc_counts, model: TfIdfModel):
    """CSR arrays ``(rows, cols, data)`` of the training documents' feature
    vectors: columns ascend within each row, and each row is normalized on
    its own as :func:`tfidf_vector` does."""
    cols, data = [], []
    for ids, counts in doc_counts:
        order = np.argsort(ids)
        row_cols = ids[order]
        row = counts[order] * model.idf[row_cols]
        norm = np.linalg.norm(row)
        if norm > 0:
            row /= norm
        cols.append(row_cols)
        data.append(row)
    rows = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    return rows, np.concatenate(cols), np.concatenate(data)


def tfidf_train(docs, epochs: int = 200, lr: float = 0.5, l2: float = 1e-4) -> TfIdfModel:
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

    # Each document is counted as it is tokenized; a token gets the next id
    # when first looked up, and ids are remapped to sorted-term order below.
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    doc_counts = []
    for d in docs:
        counts = Counter(tokenize(d.text))
        ids = np.fromiter(map(first_seen.__getitem__, counts), dtype=np.int64,
                          count=len(counts))
        doc_counts.append((ids, np.fromiter(counts.values(), dtype=np.float64,
                                            count=len(counts))))
    terms = sorted(first_seen)
    rank = np.argsort([first_seen[t] for t in terms])  # first-seen id -> sorted position
    doc_counts = [(rank[ids], counts) for ids, counts in doc_counts]
    n_docs = len(docs)
    n_terms = len(terms)
    model = tfidf_from_counts(
        terms=terms,
        doc_freq=np.bincount(np.concatenate([ids for ids, _ in doc_counts]),
                             minlength=n_terms),
        n_docs=n_docs,
        w=np.zeros(n_terms, dtype=np.float32),
        b=0.0,
    )

    rows, cols, data = _feature_matrix(doc_counts, model)
    del doc_counts
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
