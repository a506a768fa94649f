"""Seed-deterministic training for all four classifier kinds.

The neural loop builds one document's graph of the model's loss (cross-entropy
plus an l2 penalty on the dense prediction weights) at a time and frees it
once its gradient is added to the mini-batch's sum; then a single Adam apply,
epoch-wise seeded shuffling, and early stopping on validation F1
(best-validation parameters are restored at the end). A fit allocates Adam's
moments, the best-epoch snapshot and the gradient accumulator once; for the
table they hold only the rows ``U`` the training inputs look up (a gradient
row outside ``U`` is an error). Exact, not lazy Adam: any other row keeps a
zero gradient and zero moments, so its update ``p -= 0 / (0 + eps)`` would
not change it. Lexical models fit in one deterministic pass of ``train``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable, read_w2v, table_from_vectors
from ..errors import NumericError, UsageError, build_from_json, require_int, require_number
from ..metrics import precision_recall_f1
from ..optim import AdamState, adam_step
from ..textprep import PAD_INDEX, Vocabulary, build_vocabulary
from .base import (
    EMPTY_DOC_SCORE,
    MODEL_CLASSES,
    Classifier,
    EmptyDocumentError,
    NeuralModel,
    calibrate_threshold,
    label_to_int,
    predict,
)

logger = logging.getLogger(__name__)

# TrainConfig fields that must be positive integers, and those that may be 0
_SIZE_FIELDS = ("batch_size", "embed_dim", "hidden_dim", "n_filters", "vocab_max_size",
                "max_sentences", "max_words_per_sentence", "max_tokens")
_COUNT_FIELDS = ("epochs", "patience", "vocab_min_freq", "tfidf_epochs", "seed")
# TrainConfig fields that must be finite numbers >= 0
_RATE_FIELDS = ("learning_rate", "l2", "tfidf_lr", "tfidf_l2")


@dataclass
class TrainConfig:
    epochs: int = 5
    patience: int = 3
    batch_size: int = 64
    learning_rate: float = 1e-3
    dropout: float = 0.5
    l2: float = 1e-3
    seed: int = 0
    embed_dim: int = 300
    hidden_dim: int = 50
    window_sizes: tuple = (2, 3, 4)
    n_filters: int = 128
    vocab_max_size: int = 50_000
    vocab_min_freq: int = 2
    max_sentences: int = 30
    max_words_per_sentence: int = 50
    max_tokens: int = 400
    fine_tune_embeddings: bool = True
    embeddings_path: str | None = None
    calibrate: bool = False
    lm_mu: float = 2000.0
    lm_lexicon_path: str | None = None
    tfidf_epochs: int = 200
    tfidf_lr: float = 0.5
    tfidf_l2: float = 1e-4

    def __post_init__(self):
        """Refuse a config that no fit can run (or whose checkpoint could not
        be loaded), before anything is built; ``window_sizes`` becomes a tuple."""
        for name in _SIZE_FIELDS + _COUNT_FIELDS:
            require_int(f"training config {name}", getattr(self, name), int(name in _SIZE_FIELDS))
        sizes = self.window_sizes
        if not isinstance(sizes, (list, tuple)) or not sizes or not all(
                type(h) is int and h > 0 for h in sizes):
            raise UsageError(f"training config window_sizes must be a non-empty list of "
                             f"positive integers, got {sizes!r}")
        self.window_sizes = tuple(sizes)
        for name in _RATE_FIELDS:
            require_number(f"training config {name}", getattr(self, name))
        require_number("training config lm_mu", self.lm_mu, positive=True)
        rate = self.dropout
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate < 1:
            raise UsageError(f"training config dropout must lie in [0, 1), got {rate!r}")

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        return build_from_json(cls, data, "training config")

    def to_json(self) -> dict:
        data = asdict(self)
        data["window_sizes"] = list(self.window_sizes)
        return data


@dataclass
class TrainResult:
    classifier: Classifier
    log: list = field(default_factory=list)
    diverged: bool = False
    diagnostic: str | None = None


def _extend_vocab(vocab: Vocabulary, extra_words) -> Vocabulary:
    new = [w for w in extra_words if w not in vocab.token_to_index]
    if not new:
        return vocab
    extended = Vocabulary.from_tokens(vocab.words() + new)
    extended.counts[: len(vocab)] = vocab.counts
    return extended


def _build_embedding(train_docs, config: TrainConfig, rng,
                     pretrained: EmbeddingTable | None) -> EmbeddingTable:
    if pretrained is not None:
        return pretrained
    vocab = build_vocabulary(train_docs, config.vocab_max_size, config.vocab_min_freq)
    if config.embeddings_path:
        records = read_w2v(config.embeddings_path)
        vocab = _extend_vocab(vocab, records[0])
        table = table_from_vectors(*records, vocab, config.embed_dim, rng=rng,
                                   trainable=config.fine_tune_embeddings)
        logger.info("loaded embeddings, coverage %.3f", table.coverage)
        return table
    return EmbeddingTable.random(vocab, config.embed_dim, rng,
                                 trainable=config.fine_tune_embeddings)


def train_neural(kind: str, train_docs, validation_docs, config: TrainConfig,
                 pretrained: EmbeddingTable | None = None):
    """Train the CNN or HAN; returns the best-validation checkpoint and a
    function giving its validation scores, as :func:`predict` gives them,
    from the inputs the fit encoded once.

    Single-threaded and bit-deterministic for a fixed seed: initialization,
    shuffling and dropout all draw from one seeded generator in a fixed
    order.
    """
    model_class = MODEL_CLASSES.get(kind, object)
    if not issubclass(model_class, NeuralModel):
        raise UsageError(f"train_neural handles neural model kinds, not {kind!r}")
    rng = np.random.default_rng(config.seed)
    embedding = _build_embedding(train_docs, config, rng, pretrained)
    # TrainConfig names its shape fields as the model's SHAPE does
    params = model_class.random(embedding, rng,
                                **{name: getattr(config, name) for name in model_class.SHAPE})

    def encode(doc):
        """A document's network input, or None for an empty document."""
        try:
            return params.network_input(doc)
        except EmptyDocumentError:
            return None

    encoded_train = [(x, label_to_int(d.label)) for d in train_docs
                     if (x := encode(d)) is not None]
    if not encoded_train:
        raise UsageError("no usable training documents after encoding")
    encoded_val = [encode(d) for d in validation_docs]
    val_labels = [label_to_int(d.label) for d in validation_docs]
    ids = set().union(*(params.input_ids(x) for x, _ in encoded_train))  # every id looked up

    def validation_scores() -> list[float]:
        return [EMPTY_DOC_SCORE if x is None else params.score(x) for x in encoded_val]

    trainable = params.trainable_arrays()
    table_rows = np.array(sorted(ids - {PAD_INDEX}), dtype=np.int64)  # all a fit can change
    total = {name: ad.RowSparseGrad(table_rows, np.zeros_like(arr[: len(table_rows)]), arr.shape)
             if name == "embedding" else np.zeros_like(arr) for name, arr in trainable.items()}
    reach = {name: getattr(acc, "indices", np.arange(acc.shape[0])) for name, acc in total.items()}
    best_snapshot = {name: arr[reach[name]] for name, arr in trainable.items()}
    adam = AdamState(lr=config.learning_rate)
    log: list[dict] = []
    best_f1 = -1.0
    epochs_since_best = 0
    diverged = False
    diagnostic = None

    def add_gradient(net_input, target) -> float:
        """Add a document's gradient to ``total``; returns its loss. Its tape dies here."""
        graph = ad.Graph(np.float32)
        loss = params.loss(graph, net_input, target, rng=rng,
                           dropout_rate=config.dropout, l2=config.l2)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"training loss became {value}")
        grads = graph.backward(loss)
        for name, acc in total.items():
            g = grads[name]
            if isinstance(g, ad.RowSparseGrad):
                g.add_to(acc)
            else:
                acc += g
        return value

    def batch_gradients(batch) -> float:
        """Refill ``total`` with the batch's mean gradient; returns the mean loss."""
        for acc in total.values():
            getattr(acc, "values", acc).fill(0)
        loss_sum = 0.0
        for net_input, target in batch:
            loss_sum += add_gradient(net_input, target)
        scale = 1.0 / len(batch)
        for acc in total.values():
            getattr(acc, "values", acc)[...] *= scale
        return loss_sum / len(batch)

    for epoch in range(config.epochs):
        order = rng.permutation(len(encoded_train))
        epoch_loss = 0.0
        n_batches = 0
        try:
            for start in range(0, len(order), config.batch_size):
                batch = [encoded_train[i] for i in order[start : start + config.batch_size]]
                batch_loss = batch_gradients(batch)
                adam_step(trainable, total, adam)
                epoch_loss += batch_loss
                n_batches += 1
        except NumericError as exc:
            diverged = True
            diagnostic = f"epoch {epoch}: {exc}"
            logger.error("training diverged, keeping last good checkpoint: %s", diagnostic)
            break

        val_scores = validation_scores()
        precision, recall, f1 = precision_recall_f1(np.asarray(val_scores) >= 0.5, val_labels)
        log.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(1, n_batches),
            "val_precision": precision,
            "val_recall": recall,
            "val_f1": f1,
        })
        if f1 > best_f1:
            best_f1 = f1
            for name, arr in trainable.items():  # "raise" would buffer; every row is valid
                np.take(arr, reach[name], axis=0, out=best_snapshot[name], mode="clip")
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > config.patience:
                logger.info("early stop at epoch %d (no F1 gain for %d epochs)",
                            epoch, config.patience)
                break

    for name, arr in trainable.items():
        arr[reach[name]] = best_snapshot[name]

    clf = Classifier(kind=kind, model=params, threshold=0.5,
                     hyperparameters={"config": config.to_json()})
    result = TrainResult(classifier=clf, log=log, diverged=diverged, diagnostic=diagnostic)
    return result, validation_scores


def _train_lexical(kind: str, train_docs, validation_docs, config: TrainConfig):
    """A tf-idf or LM fit, and a function giving its validation scores."""
    clf = Classifier(kind=kind, model=MODEL_CLASSES[kind].train(train_docs, config),
                     threshold=0.0, hyperparameters={"config": config.to_json()})
    return TrainResult(classifier=clf, log=[]), lambda: [
        p.score for p in predict(clf, validation_docs)]


def fit(kind: str, train_docs, validation_docs, config: TrainConfig | None = None,
        pretrained: EmbeddingTable | None = None) -> TrainResult:
    """Train any of the four model kinds on labeled documents; with
    ``config.calibrate`` the threshold maximizes validation F1 over the
    scores :func:`predict` gives (0.5 for an empty document)."""
    config = config or TrainConfig()
    model_class = MODEL_CLASSES.get(kind)
    if model_class is None:
        raise UsageError(f"unknown model kind {kind!r}; expected {'|'.join(MODEL_CLASSES)}")
    if config.calibrate and len({label_to_int(d.label) for d in validation_docs}) < 2:
        # the same refusal calibrate_threshold makes, before any training
        raise UsageError("threshold calibration needs both classes in validation")
    if issubclass(model_class, NeuralModel):
        result, validation_scores = train_neural(kind, train_docs, validation_docs, config,
                                                 pretrained)
    else:
        result, validation_scores = _train_lexical(kind, train_docs, validation_docs, config)
    if config.calibrate:
        result.classifier.threshold = calibrate_threshold(
            validation_scores(), [label_to_int(d.label) for d in validation_docs])
    return result
