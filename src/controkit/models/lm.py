"""Unigram language-model scoring with Dirichlet smoothing.

One unigram distribution per class, both smoothed toward the collection
distribution with mass mu:

    p(t | class) = (count_class(t) + mu * p(t | collection)) / (|class| + mu)

A document's score is the mean per-token log-likelihood ratio
ln p(t | controversial) - ln p(t | non-controversial); positive favors
controversial. Tokens outside the shared vocabulary are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..corpus import CONTROVERSIAL
from ..errors import DataFormatError, UsageError
from ..textprep import tokenize
from .base import LexicalModel, count_terms

@dataclass
class LmModel(LexicalModel):
    """Per-class term counts; ``p_pos``, ``p_neg`` and ``log_ratio`` derive from them."""
    terms: list[str]
    pos_counts: np.ndarray  # int64
    neg_counts: np.ndarray  # int64
    mu: float

    def __post_init__(self):
        super().__post_init__()
        pos, neg = self.pos_counts.astype(np.float64), self.neg_counts.astype(np.float64)
        if pos.shape != neg.shape or len(self.terms) != len(pos):
            raise UsageError("terms and count tables must align")
        background = pos + neg
        total = background.sum()
        if total <= 0:
            raise UsageError("language model needs a non-empty training corpus")
        p_bg = background / total
        self.p_pos = (pos + self.mu * p_bg) / (pos.sum() + self.mu)
        self.p_neg = (neg + self.mu * p_bg) / (neg.sum() + self.mu)
        self.log_ratio = np.log(self.p_pos) - np.log(self.p_neg)

    def score(self, tokens) -> float:
        """Mean log-likelihood ratio over in-vocabulary tokens; 0 when none. The
        ratios add in token order (``np.sum`` would add them pairwise)."""
        ratios = self.log_ratio[self.token_ids(tokens)]
        return float(np.cumsum(ratios)[-1] / len(ratios)) if len(ratios) else 0.0

    def checkpoint_parts(self):
        extra = {"pos_counts": [int(v) for v in self.pos_counts],
                 "neg_counts": [int(v) for v in self.neg_counts], "mu": self.mu}
        return {}, {}, self.terms, extra

    @classmethod
    def train(cls, docs, config) -> "LmModel":
        """Fit with ``config.lm_mu``, filtered by the lexicon file at
        ``config.lm_lexicon_path`` when one is set."""
        lexicon = read_lexicon(config.lm_lexicon_path) if config.lm_lexicon_path else None
        return lm_train(docs, mu=config.lm_mu, lexicon=lexicon)

    @classmethod
    def from_checkpoint(cls, ckpt) -> "LmModel":
        terms = ckpt.vocabulary
        mu = ckpt.require("extra", "mu")
        if type(mu) not in (int, float) or not 0 < mu < math.inf:
            raise DataFormatError(f"checkpoint mu {mu!r} is not a finite number > 0")
        pos_counts = ckpt.counts("pos_counts", len(terms))
        neg_counts = ckpt.counts("neg_counts", len(terms))
        if pos_counts.sum() + neg_counts.sum() == 0:
            raise DataFormatError("checkpoint pos_counts and neg_counts are all zero")
        return cls(terms=terms, pos_counts=pos_counts, neg_counts=neg_counts, mu=float(mu))


def read_lexicon(path) -> set[str]:
    """The lowercased terms of a lexicon file, one per line; blank lines are
    skipped. A file without terms is refused, not read as "no lexicon"."""
    with open(path, "r", encoding="utf-8") as f:
        lexicon = {line.strip().lower() for line in f if line.strip()}
    if not lexicon:
        raise DataFormatError(f"lexicon file {path} has no terms")
    return lexicon


def lm_train(docs, mu: float, lexicon=None) -> LmModel:
    """Count-based fit of the two class distributions.

    ``lexicon`` optionally restricts training to documents containing at
    least one lexicon term (the document-selection step of the lexicon
    based variant); both classes must survive the filter. ``None`` means
    no filter; an empty lexicon is refused.
    """
    lexicon = None if lexicon is None else set(lexicon)
    if lexicon == set():
        raise UsageError("lexicon has no terms; pass None to train without one")
    positive = []  # per kept document, whether it is controversial

    def kept_tokens():
        for doc in docs:
            tokens = tokenize(doc.text)
            if lexicon is None or not lexicon.isdisjoint(tokens):
                positive.append(doc.label == CONTROVERSIAL)
                yield tokens

    terms, indptr, ids, counts = count_terms(kept_tokens())
    if all(positive) or not any(positive):
        raise UsageError("language model training needs documents of both classes"
                         + (" after lexicon filtering" if lexicon else ""))
    # one bincount: the negative class's counts, then the positive class's
    is_pos = np.repeat(positive, np.diff(indptr))
    class_counts = np.bincount(ids + len(terms) * is_pos, counts,
                               minlength=2 * len(terms)).astype(np.int64)
    return LmModel(terms=terms, pos_counts=class_counts[len(terms):],
                   neg_counts=class_counts[:len(terms)], mu=float(mu))
