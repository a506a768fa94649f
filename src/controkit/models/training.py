"""Seed-deterministic training for all four classifier kinds.

The neural loop trains per-document graphs with gradient accumulation over
each mini-batch followed by a single Adam apply, cross-entropy plus an l2
penalty on the dense prediction weights, epoch-wise seeded shuffling, and
early stopping on validation F1 (best-validation parameters are restored
at the end). A document's row-sparse table gradient is scatter-added into
the batch's one dense accumulator, so the table is densified once per
mini-batch. Lexical models fit in one deterministic pass.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .. import autodiff as ad
from ..embeddings import EmbeddingTable, load_embeddings
from ..errors import NumericError, UsageError
from ..optim import AdamState, adam_step, clip_gradients
from ..textprep import EncodeLimits, Vocabulary, build_vocabulary, encode_document
from .base import Classifier, EmptyDocumentError, calibrate_threshold, label_to_int
from .cnn import BoundCnn, CnnParams, cnn_forward, cnn_loss
from .han import BoundHan, HanParams, han_forward, han_loss
from .lm import lm_train
from .tfidf import tfidf_train

logger = logging.getLogger(__name__)


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
    embeddings_binary: bool | None = None
    calibrate: bool = False
    grad_clip: float | None = None
    lm_mu: float = 2000.0
    lm_lexicon_path: str | None = None
    tfidf_epochs: int = 200
    tfidf_lr: float = 0.5
    tfidf_l2: float = 1e-4

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise UsageError(f"unknown training config keys: {sorted(unknown)}")
        merged = dict(data)
        if "window_sizes" in merged:
            merged["window_sizes"] = tuple(merged["window_sizes"])
        return cls(**merged)

    def to_json(self) -> dict:
        data = asdict(self)
        data["window_sizes"] = list(self.window_sizes)
        return data

    def limits(self) -> EncodeLimits:
        return EncodeLimits(
            max_sentences=self.max_sentences,
            max_words_per_sentence=self.max_words_per_sentence,
            max_tokens=self.max_tokens,
        )


@dataclass
class TrainResult:
    classifier: Classifier
    log: list = field(default_factory=list)
    diverged: bool = False
    diagnostic: str | None = None


def _f1_from_scores(scores, labels, threshold):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    hard = scores >= threshold
    tp = int(np.sum(hard & (labels == 1)))
    fp = int(np.sum(hard & (labels == 0)))
    fn = int(np.sum(~hard & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _extend_vocab(vocab: Vocabulary, extra_words) -> Vocabulary:
    new = [w for w in extra_words if w not in vocab.token_to_index]
    if not new:
        return vocab
    return Vocabulary.from_tokens(vocab.words() + new, vocab.counts)


def _build_embedding(train_docs, config: TrainConfig, rng,
                     pretrained: EmbeddingTable | None) -> EmbeddingTable:
    if pretrained is not None:
        return pretrained
    vocab = build_vocabulary(train_docs, config.vocab_max_size, config.vocab_min_freq)
    if config.embeddings_path:
        from ..embeddings import read_w2v

        file_words, _ = read_w2v(config.embeddings_path, binary=config.embeddings_binary)
        vocab = _extend_vocab(vocab, file_words)
        table = load_embeddings(config.embeddings_path, vocab, config.embed_dim,
                                rng=rng, binary=config.embeddings_binary,
                                trainable=config.fine_tune_embeddings)
        logger.info("loaded embeddings, coverage %.3f", table.coverage)
        return table
    return EmbeddingTable.random(vocab, config.embed_dim, rng,
                                 trainable=config.fine_tune_embeddings)


def _snapshot(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in arrays.items()}


def _restore(arrays: dict[str, np.ndarray], snapshot: dict[str, np.ndarray]) -> None:
    for k, v in arrays.items():
        v[...] = snapshot[k]


def _neural_score(kind, params, encoded) -> float:
    try:
        if kind == "cnn":
            return float(cnn_forward(encoded, params, mode="eval")[1])
        probs, _, _ = han_forward(encoded, params, mode="eval")
        return float(probs[1])
    except EmptyDocumentError:
        return 0.5


def _usable(kind, encoded) -> bool:
    if kind == "cnn":
        return not encoded.empty
    return bool(encoded.sentences)


def train_neural(kind: str, train_docs, validation_docs, config: TrainConfig,
                 pretrained: EmbeddingTable | None = None) -> TrainResult:
    """Train the CNN or HAN; returns the best-validation checkpoint.

    Single-threaded and bit-deterministic for a fixed seed: initialization,
    shuffling and dropout all draw from one seeded generator in a fixed
    order.
    """
    if kind not in ("cnn", "han"):
        raise UsageError(f"train_neural handles cnn/han, not {kind!r}")
    rng = np.random.default_rng(config.seed)
    embedding = _build_embedding(train_docs, config, rng, pretrained)
    if kind == "cnn":
        params = CnnParams.random(embedding, rng, config.window_sizes, config.n_filters)
    else:
        params = HanParams.random(embedding, rng, config.hidden_dim)

    limits = config.limits()
    encoded_train = []
    for doc in train_docs:
        enc = encode_document(doc, embedding.vocab, limits)
        if _usable(kind, enc):
            encoded_train.append((enc, label_to_int(doc.label)))
    encoded_val = [(encode_document(d, embedding.vocab, limits), label_to_int(d.label))
                   for d in validation_docs]
    if not encoded_train:
        raise UsageError("no usable training documents after encoding")

    trainable = params.trainable_arrays()
    adam = AdamState(lr=config.learning_rate)
    log: list[dict] = []
    best_f1 = -1.0
    best_snapshot = _snapshot(params.named_arrays())
    epochs_since_best = 0
    diverged = False
    diagnostic = None

    def batch_gradients(batch):
        total = {name: np.zeros_like(arr) for name, arr in trainable.items()}
        loss_sum = 0.0
        for enc, target in batch:
            graph = ad.Graph(np.float32)
            if kind == "cnn":
                bound = BoundCnn(graph, params)
                loss = cnn_loss(graph, bound, enc.tokens, target, mode="train",
                                rng=rng, dropout_rate=config.dropout, l2=config.l2)
            else:
                bound = BoundHan(graph, params)
                loss = han_loss(graph, bound, enc.sentences, target, mode="train",
                                rng=rng, dropout_rate=config.dropout, l2=config.l2)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(f"training loss became {value}")
            loss_sum += value
            grads = graph.backward(loss)
            for name, acc in total.items():
                g = grads[name]
                if isinstance(g, ad.RowSparseGrad):
                    g.add_to(acc)
                else:
                    acc += g
        scale = 1.0 / len(batch)
        for name in total:
            total[name] *= scale
        return total, loss_sum / len(batch)

    for epoch in range(config.epochs):
        order = rng.permutation(len(encoded_train))
        epoch_loss = 0.0
        n_batches = 0
        try:
            for start in range(0, len(order), config.batch_size):
                batch = [encoded_train[i] for i in order[start : start + config.batch_size]]
                grads, batch_loss = batch_gradients(batch)
                if config.grad_clip is not None:
                    clip_gradients(grads, config.grad_clip)
                adam_step(trainable, grads, adam)
                epoch_loss += batch_loss
                n_batches += 1
        except NumericError as exc:
            diverged = True
            diagnostic = f"epoch {epoch}: {exc}"
            logger.error("training diverged, keeping last good checkpoint: %s", diagnostic)
            break

        val_scores = [_neural_score(kind, params, enc) for enc, _ in encoded_val]
        val_labels = [t for _, t in encoded_val]
        precision, recall, f1 = _f1_from_scores(val_scores, val_labels, 0.5)
        log.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(1, n_batches),
            "val_precision": precision,
            "val_recall": recall,
            "val_f1": f1,
        })
        if f1 > best_f1:
            best_f1 = f1
            best_snapshot = _snapshot(params.named_arrays())
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > config.patience:
                logger.info("early stop at epoch %d (no F1 gain for %d epochs)",
                            epoch, config.patience)
                break

    _restore(params.named_arrays(), best_snapshot)

    threshold = 0.5
    if config.calibrate and encoded_val:
        val_scores = [_neural_score(kind, params, enc) for enc, _ in encoded_val]
        val_labels = [t for _, t in encoded_val]
        threshold = calibrate_threshold(val_scores, val_labels)

    clf = Classifier(kind=kind, model=params, threshold=threshold, limits=limits,
                     hyperparameters={"config": config.to_json()})
    return TrainResult(classifier=clf, log=log, diverged=diverged, diagnostic=diagnostic)


def _train_lexical(kind: str, train_docs, validation_docs, config: TrainConfig) -> TrainResult:
    if kind == "tfidf":
        model = tfidf_train(train_docs, epochs=config.tfidf_epochs,
                            lr=config.tfidf_lr, l2=config.tfidf_l2)
        from .tfidf import tfidf_score as scorer
    else:
        lexicon = None
        if config.lm_lexicon_path:
            with open(config.lm_lexicon_path, "r", encoding="utf-8") as f:
                lexicon = {line.strip().lower() for line in f if line.strip()}
        model = lm_train(train_docs, mu=config.lm_mu, lexicon=lexicon)
        from .lm import lm_score as scorer

    threshold = 0.0
    if config.calibrate and validation_docs:
        from ..textprep import tokenize

        scores = [scorer(tokenize(d.text), model) for d in validation_docs]
        labels = [label_to_int(d.label) for d in validation_docs]
        threshold = calibrate_threshold(scores, labels)
    clf = Classifier(kind=kind, model=model, threshold=threshold,
                     hyperparameters={"config": config.to_json()})
    return TrainResult(classifier=clf, log=[])


def fit(kind: str, train_docs, validation_docs, config: TrainConfig | None = None,
        pretrained: EmbeddingTable | None = None) -> TrainResult:
    """Train any of the four model kinds on labeled documents."""
    config = config or TrainConfig()
    if kind in ("cnn", "han"):
        return train_neural(kind, train_docs, validation_docs, config, pretrained)
    if kind in ("tfidf", "lm"):
        return _train_lexical(kind, train_docs, validation_docs, config)
    raise UsageError(f"unknown model kind {kind!r}; expected cnn|han|tfidf|lm")
