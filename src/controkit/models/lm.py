"""Unigram language-model scoring with Dirichlet smoothing.

One unigram distribution per class, both smoothed toward the collection
distribution with mass mu:

    p(t | class) = (count_class(t) + mu * p(t | collection)) / (|class| + mu)

A document's score is the mean per-token log-likelihood ratio
ln p(t | controversial) - ln p(t | non-controversial); positive favors
controversial. Tokens outside the shared vocabulary are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import CONTROVERSIAL
from ..errors import DataFormatError, UsageError
from ..textprep import tokenize
from .base import LexicalModel

DEFAULT_MU = 2000.0


@dataclass
class LmModel(LexicalModel):
    terms: list[str]
    term_index: dict[str, int]
    pos_counts: np.ndarray
    neg_counts: np.ndarray
    mu: float
    p_pos: np.ndarray
    p_neg: np.ndarray
    log_ratio: np.ndarray

    def score(self, tokens) -> float:
        """Mean log-likelihood ratio over in-vocabulary tokens; 0 when none."""
        total = 0.0
        n = 0
        for tok in tokens:
            idx = self.term_index.get(tok)
            if idx is not None:
                total += self.log_ratio[idx]
                n += 1
        return total / n if n else 0.0

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
        return lm_from_counts(terms=terms,
                              pos_counts=ckpt.require("extra", "pos_counts", len(terms)),
                              neg_counts=ckpt.require("extra", "neg_counts", len(terms)),
                              mu=ckpt.require("extra", "mu"))


def lm_from_counts(terms, pos_counts, neg_counts, mu: float = DEFAULT_MU) -> LmModel:
    pos = np.asarray(pos_counts, dtype=np.float64)
    neg = np.asarray(neg_counts, dtype=np.float64)
    if pos.shape != neg.shape or len(terms) != pos.shape[0]:
        raise UsageError("terms and count tables must align")
    background = pos + neg
    total = background.sum()
    if total <= 0:
        raise UsageError("language model needs a non-empty training corpus")
    p_bg = background / total
    p_pos = (pos + mu * p_bg) / (pos.sum() + mu)
    p_neg = (neg + mu * p_bg) / (neg.sum() + mu)
    return LmModel(
        terms=list(terms),
        term_index={t: i for i, t in enumerate(terms)},
        pos_counts=pos.astype(np.int64),
        neg_counts=neg.astype(np.int64),
        mu=float(mu),
        p_pos=p_pos,
        p_neg=p_neg,
        log_ratio=np.log(p_pos) - np.log(p_neg),
    )


def read_lexicon(path) -> set[str]:
    """The lowercased terms of a lexicon file, one per line; blank lines are
    skipped. A file without terms is refused, not read as "no lexicon"."""
    with open(path, "r", encoding="utf-8") as f:
        lexicon = {line.strip().lower() for line in f if line.strip()}
    if not lexicon:
        raise DataFormatError(f"lexicon file {path} has no terms")
    return lexicon


def lm_train(docs, mu: float = DEFAULT_MU, lexicon=None) -> LmModel:
    """Count-based fit of the two class distributions.

    ``lexicon`` optionally restricts training to documents containing at
    least one lexicon term (the document-selection step of the lexicon
    based variant); both classes must survive the filter. ``None`` means
    no filter; an empty lexicon is refused.
    """
    lexicon = None if lexicon is None else set(lexicon)
    if lexicon == set():
        raise UsageError("lexicon has no terms; pass None to train without one")
    pos: dict[str, int] = {}
    neg: dict[str, int] = {}
    has_pos = has_neg = False
    for doc in docs:
        tokens = tokenize(doc.text)
        if lexicon is not None and not any(t in lexicon for t in tokens):
            continue
        table = pos if doc.label == CONTROVERSIAL else neg
        if doc.label == CONTROVERSIAL:
            has_pos = True
        else:
            has_neg = True
        for tok in tokens:
            table[tok] = table.get(tok, 0) + 1
    if not (has_pos and has_neg):
        raise UsageError("language model training needs documents of both classes"
                         + (" after lexicon filtering" if lexicon else ""))
    terms = sorted(set(pos) | set(neg))
    return lm_from_counts(
        terms=terms,
        pos_counts=[pos.get(t, 0) for t in terms],
        neg_counts=[neg.get(t, 0) for t in terms],
        mu=mu,
    )
