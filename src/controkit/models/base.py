"""Shared classifier interface: scoring, thresholding, checkpoints.

A model kind is one ``MODEL_CLASSES`` entry: a ``NeuralModel`` or a
``LexicalModel`` with ``network_input(doc)``, which encodes a
document once into the one form the kind reads, ``score`` of that input,
``checkpoint_parts`` and ``from_checkpoint``. A neural kind adds only its
input (``network_input``, ``input_ids``) and its forward pass (``logits``);
binding, the loss and eval scoring are shared. A lexical kind adds ``train``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from ..corpus import CONTROVERSIAL
from ..embeddings import EmbeddingTable
from ..errors import ControkitError, DataFormatError, UsageError
from ..metrics import counts_by_score, prf_from_counts
from ..textprep import Vocabulary, tokenize

EMPTY_DOC_SCORE = 0.5


class EmptyDocumentError(ControkitError):
    """Raised by forward passes on documents with no usable tokens; callers
    score such documents 0.5 and label them negative, flagged."""


def glorot_uniform(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Scaled uniform init for dense and convolutional weights."""
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class NeuralModel:
    """Parameters of a two-class network over an ``embedding`` table.

    A subclass holds an ``embedding`` table and ``arrays``, its other
    parameters keyed by their checkpoint names in checkpoint order
    (``dense.w`` are the prediction weights). It defines
    ``random(embedding, rng, **shape)``, which builds that map,
    ``SHAPE``, which maps each shape keyword (stored with checkpoints) to
    its type (``int`` for a positive integer, ``list`` for a non-empty list
    of them), and three methods:

    * ``network_input(doc)``: the network's input, encoded from a
      ``Document`` (or a text) under the caps in ``SHAPE``; raises
      ``EmptyDocumentError`` when there is nothing to read. ``loss``,
      ``probabilities`` and ``score`` take it.
    * ``input_ids(net_input)``: the table rows that input looks up.
    * ``logits(bound, net_input, mode, rng, dropout_rate)``: the (1, 2)
      logits node over ``bind``'s nodes.
    """

    SHAPE: dict = {}

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter under its checkpoint name, the table first."""
        return {"embedding": self.embedding.vectors, **self.arrays}

    def bind(self, graph: ad.Graph) -> dict[str, ad.Tensor]:
        """``named_arrays`` as nodes of ``graph``: parameters, except a
        frozen embedding table, which is a constant."""
        trainable = self.trainable_arrays()
        return {name: graph.parameter(name, arr) if name in trainable
                else graph.constant(arr, name=name)
                for name, arr in self.named_arrays().items()}

    def loss(self, graph: ad.Graph, net_input, target: int, mode: str = "train",
             rng=None, dropout_rate: float = 0.5, l2: float = 1e-3) -> ad.Tensor:
        """Cross-entropy plus the l2 penalty on the dense prediction weights."""
        bound = self.bind(graph)
        nll = ad.cross_entropy(self.logits(bound, net_input, mode, rng, dropout_rate), target)
        return ad.l2_penalty(nll, bound["dense.w"], l2) if l2 > 0 else nll

    def probabilities(self, net_input) -> np.ndarray:
        """Eval-mode class probabilities [non-controversial, controversial]."""
        graph = ad.Graph(np.float32)  # held here: nodes refer to their graph weakly
        return ad.stable_softmax(self.logits(self.bind(graph), net_input).data)[0]

    def score(self, net_input) -> float:
        return float(self.probabilities(net_input)[1])

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        arrays = self.named_arrays()
        if not self.embedding.trainable:
            del arrays["embedding"]
        return arrays

    def checkpoint_parts(self):
        vocab = self.embedding.vocab
        extra = {
            "vocab_counts": vocab.counts[2:],
            "embedding_trainable": self.embedding.trainable,
        }
        shape = {name: getattr(self, name) for name in self.SHAPE}
        return shape, self.named_arrays(), vocab.index_to_token, extra

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint):
        """A model of the checkpoint's shape, built by ``random``, with every
        array replaced by the stored one of the same name and shape."""
        words = ckpt.vocabulary[2:]
        vocab = Vocabulary.from_tokens(words)
        vocab.counts[2:] = ckpt.counts("vocab_counts", len(words)).tolist()
        vectors = ckpt.require("arrays", "embedding")
        if vectors.ndim != 2 or len(vectors) != len(vocab):
            raise DataFormatError(f"checkpoint embedding has shape {vectors.shape}, "
                                  f"expected {len(vocab)} rows")
        table = EmbeddingTable(vocab=vocab, vectors=vectors,
                               trainable=ckpt.extra.get("embedding_trainable", True))
        shape = {name: _shape_value(ckpt, name, kind) for name, kind in cls.SHAPE.items()}
        model = cls.random(table, np.random.default_rng(0), **shape)
        arrays = model.named_arrays()
        unexpected = sorted(set(ckpt.arrays) - set(arrays))
        if unexpected:
            raise DataFormatError(f"checkpoint parameters {unexpected} do not belong to a "
                                  f"{ckpt.kind} model of shape {shape}")
        for name, target in arrays.items():
            target[...] = ckpt.array(name, target.shape)
        return model


def _shape_value(ckpt: Checkpoint, name: str, kind: type):
    value = ckpt.require("hyperparameters", name)
    items = value if kind is list else [value]
    if not isinstance(value, kind) or not items or not all(
            type(v) is int and v > 0 for v in items):
        expected = "a list of positive integers" if kind is list else "a positive integer"
        raise DataFormatError(f"checkpoint hyperparameter {name!r} is {value!r}, "
                              f"expected {expected}")
    return value


class LexicalModel:
    """A model scoring a document's tokens; its sorted ``terms`` are the
    hash-checked checkpoint vocabulary. A subclass fits in one deterministic
    pass of :func:`count_terms` through the classmethod ``train(docs, config)``,
    reading its settings off a ``TrainConfig``."""

    def __post_init__(self):
        self.term_index = {t: i for i, t in enumerate(self.terms)}

    def network_input(self, doc) -> list[str]:
        """The tokens of a document (or a text)."""
        tokens = tokenize(doc.text if hasattr(doc, "text") else doc)
        if not tokens:
            raise EmptyDocumentError("document has no tokens")
        return tokens


def count_terms(token_lists):
    """The sorted terms of some token lists, and CSR arrays ``(indptr, ids,
    counts)`` of each list's distinct terms: list k holds the ascending ids
    ``ids[indptr[k]:indptr[k + 1]]`` with their float64 ``counts``.

    A list's tokens become term ids as it is read, so a generator holds one
    list at a time; a term gets the next id when first looked up. One sort
    of the (list, term) keys in sorted-term order then counts every list;
    it sorts in place, where ``np.unique`` would copy the keys.
    """
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    # a list extends from map faster than an array, and holds 8-byte
    # references to the dict's own ints
    token_ids, lengths = [], []
    for tokens in token_lists:
        token_ids += map(first_seen.__getitem__, tokens)
        lengths.append(len(tokens))
    terms = sorted(first_seen)
    rank = np.empty(len(terms), dtype=np.int64)  # first-seen id -> sorted position
    rank[[first_seen[t] for t in terms]] = np.arange(len(terms))
    keys = np.fromiter(token_ids, dtype=np.int64, count=len(token_ids))
    del token_ids
    keys = rank[keys]
    width = max(len(terms), 1)
    keys += np.repeat(np.arange(len(lengths)) * width, lengths)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)  # where a new (list, term) key starts
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.r_[starts, len(keys)]).astype(np.float64)
    keys = keys[starts]
    lists, ids = np.divmod(keys, width)
    indptr = np.r_[0, np.cumsum(np.bincount(lists, minlength=len(lengths)))]
    return terms, indptr, ids, counts


@dataclass
class Classifier:
    """Uniform facade over the four model kinds.

    ``score_document`` returns the positive-class score: a probability for
    cnn/han, an unbounded margin for tfidf, a mean log-likelihood ratio
    for lm. ``threshold`` turns scores into hard labels.
    """

    kind: str
    model: NeuralModel | LexicalModel
    threshold: float
    hyperparameters: dict = field(default_factory=dict)

    def score_document(self, doc) -> float:
        return self.model.score(self.model.network_input(doc))


@dataclass
class Prediction:
    doc_id: str
    score: float
    hard_label: int
    empty: bool


def predict(classifier: Classifier, docs) -> list[Prediction]:
    """Deterministic eval-mode scores and hard labels for a document batch.

    Empty documents get the 0.5 sentinel score, a negative hard label and
    the ``empty`` flag; batch scoring equals one-by-one scoring because
    each document is scored independently.
    """
    out = []
    for doc in docs:
        doc_id = getattr(doc, "id", "")
        try:
            score = classifier.score_document(doc)
            hard = int(score >= classifier.threshold)
            out.append(Prediction(doc_id=doc_id, score=score, hard_label=hard, empty=False))
        except EmptyDocumentError:
            out.append(Prediction(doc_id=doc_id, score=EMPTY_DOC_SCORE, hard_label=0,
                                  empty=True))
    return out


def calibrate_threshold(scores, labels) -> float:
    """Threshold maximizing F1 on validation scores; ties pick the lowest.

    Candidates are the observed score values plus one value above the
    maximum (predict-nothing). With all-equal scores this degenerates to
    either everything positive or everything negative, whichever F1
    prefers under the lowest-threshold tie break.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be equal-length vectors")
    candidates, counts = counts_by_score(scores, labels,
                                         "threshold calibration needs both classes in validation")
    # candidate k predicts the score groups k and up, so its false and true
    # positives are class counts summed from the top
    fp, tp = np.cumsum(counts[::-1], axis=0)[::-1].T
    f1 = np.r_[prf_from_counts(tp, fp, tp[0] - tp)[2], 0.0]  # 0.0: the predict-nothing one
    candidates = np.r_[candidates, candidates[-1] + max(1e-9, abs(candidates[-1]) * 1e-9)]
    return float(candidates[np.argmax(f1)])  # the first best: ties pick the lowest


# ---------------------------------------------------------------------------
# Checkpoint glue
# ---------------------------------------------------------------------------

def save_classifier(path, classifier: Classifier) -> None:
    shape, arrays, vocabulary, extra = classifier.model.checkpoint_parts()
    hp = dict(classifier.hyperparameters)
    hp["threshold"] = classifier.threshold
    hp.update(shape)
    save_checkpoint(path, classifier.kind, hp, arrays, vocabulary=vocabulary, extra=extra)


def load_classifier(path) -> Classifier:
    ckpt = load_checkpoint(path)
    model_class = MODEL_CLASSES.get(ckpt.kind)
    if model_class is None:
        raise DataFormatError(f"unknown checkpoint model kind {ckpt.kind!r}")
    if ckpt.vocabulary is None:
        raise DataFormatError(f"{ckpt.kind} checkpoint has no vocabulary")
    hp = dict(ckpt.hyperparameters)
    threshold = hp.pop("threshold", 0.5)
    return Classifier(kind=ckpt.kind, model=model_class.from_checkpoint(ckpt),
                      threshold=threshold, hyperparameters=hp)


def label_to_int(label: str) -> int:
    return 1 if label == CONTROVERSIAL else 0


# The kinds derive from this module's classes, so they are imported last.
from .cnn import CnnParams  # noqa: E402
from .han import HanParams  # noqa: E402
from .lm import LmModel  # noqa: E402
from .tfidf import TfIdfModel  # noqa: E402

MODEL_CLASSES = {"cnn": CnnParams, "han": HanParams, "tfidf": TfIdfModel, "lm": LmModel}
MODEL_KINDS = tuple(MODEL_CLASSES)
