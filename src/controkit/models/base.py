"""Shared classifier interface: scoring, thresholding, checkpoints.

A model kind is one ``MODEL_CLASSES`` entry: a ``NeuralModel`` (scores an
encoded document) or ``LexicalModel`` (scores tokens) with ``score``,
``checkpoint_parts`` and ``from_checkpoint``. A neural kind adds only its
input check (``network_input``) and its forward pass (``logits``); binding,
the loss and eval scoring are shared. A lexical kind adds ``train``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .. import autodiff as ad
from ..checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from ..corpus import CONTROVERSIAL
from ..embeddings import EmbeddingTable
from ..errors import ControkitError, DataFormatError, UsageError
from ..metrics import prf_from_counts
from ..textprep import EncodeLimits, Vocabulary, encode_document, tokenize

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

    A subclass defines ``named_arrays`` (which includes ``embedding`` and
    the ``dense.w`` prediction weights), ``random(embedding, rng, **shape)``,
    ``SHAPE``, which maps each shape keyword (stored with checkpoints) to
    its type (``int`` for a positive integer, ``list`` for a non-empty list
    of them), and two methods:

    * ``network_input(doc)``: the network's input from an
      ``EncodedDocument`` (or that input itself); raises
      ``EmptyDocumentError`` when there is nothing to read.
    * ``logits(bound, net_input, mode, rng, dropout_rate)``: the (1, 2)
      logits node over ``bind``'s nodes.
    """

    SHAPE: dict = {}

    def document_input(self, doc, limits: EncodeLimits | None):
        return encode_document(doc, self.embedding.vocab, limits)

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
        if l2 > 0:
            w = bound["dense.w"]
            return ad.add(nll, ad.scale(ad.sum_all(ad.mul(w, w)), l2))
        return nll

    def probabilities(self, doc) -> np.ndarray:
        """Eval-mode class probabilities [non-controversial, controversial]."""
        net_input = self.network_input(doc)
        graph = ad.Graph(np.float32)  # held here: nodes refer to their graph weakly
        return ad.stable_softmax(self.logits(self.bind(graph), net_input).data)[0]

    def score(self, doc) -> float:
        return float(self.probabilities(doc)[1])

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        arrays = self.named_arrays()
        if not self.embedding.trainable:
            del arrays["embedding"]
        return arrays

    def checkpoint_parts(self):
        vocab = self.embedding.vocab
        extra = {
            "vocab_counts": [vocab.counts.get(t, 0) for t in vocab.words()],
            "embedding_trainable": self.embedding.trainable,
        }
        shape = {name: getattr(self, name) for name in self.SHAPE}
        return shape, self.named_arrays(), vocab.index_to_token, extra

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint):
        """A model of the checkpoint's shape, built by ``random``, with every
        array replaced by the stored one of the same name and shape."""
        words = ckpt.vocabulary[2:]
        vocab = Vocabulary.from_tokens(words, dict(zip(words, ckpt.extra.get("vocab_counts", []))))
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
    """A model scoring a document's tokens. Loading reads its terms from the
    hash-checked checkpoint vocabulary; the stored ``terms`` extra repeats it.
    A subclass fits in one deterministic pass through the classmethod
    ``train(docs, config)``, reading its settings off a ``TrainConfig``."""

    def document_input(self, doc, limits: EncodeLimits | None):
        tokens = tokenize(doc.text if hasattr(doc, "text") else doc)
        if not tokens:
            raise EmptyDocumentError("document has no tokens")
        return tokens


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
    limits: EncodeLimits | None = None
    hyperparameters: dict = field(default_factory=dict)

    def score_document(self, doc) -> float:
        return self.model.score(self.model.document_input(doc, self.limits))


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
    classes = np.unique(labels)
    if len(classes) < 2:
        raise UsageError("threshold calibration needs both classes in validation")
    candidates, group = np.unique(scores, return_inverse=True)
    # candidate k predicts the score groups k and up, so its true and false
    # positives are class counts summed from the top
    tp = np.cumsum(np.bincount(group, weights=labels == 1)[::-1])[::-1]
    fp = np.cumsum(np.bincount(group, weights=labels == 0)[::-1])[::-1]
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
    if classifier.limits is not None:
        hp["limits"] = asdict(classifier.limits)
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
                      threshold=threshold, limits=_stored_limits(hp.get("limits")),
                      hyperparameters=hp)


def _stored_limits(stored) -> EncodeLimits | None:
    try:
        return EncodeLimits(**stored).validated() if stored else None
    except (TypeError, UsageError) as exc:
        raise DataFormatError(f"checkpoint limits {stored!r} are not encode limits: "
                              f"{exc}") from exc


def label_to_int(label: str) -> int:
    return 1 if label == CONTROVERSIAL else 0


# The kinds derive from this module's classes, so they are imported last.
from .cnn import CnnParams  # noqa: E402
from .han import HanParams  # noqa: E402
from .lm import LmModel  # noqa: E402
from .tfidf import TfIdfModel  # noqa: E402

MODEL_CLASSES = {"cnn": CnnParams, "han": HanParams, "tfidf": TfIdfModel, "lm": LmModel}
MODEL_KINDS = tuple(MODEL_CLASSES)
