"""Orchestration of the five evaluation protocols.

Every runner trains on train/validation documents only and touches test
documents strictly after training, through the prediction step. Reports
embed the package version, master seed, a canonical config hash and
dataset fingerprints, and rerunning with identical inputs writes
byte-identical JSON (single worker).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .corpus import (
    CONTROVERSIAL,
    GENERAL_WEB,
    WIKIPEDIA,
    read_annotations,
    read_documents,
)
from .errors import UsageError, require_int
from .metrics import (
    METRIC_NAMES,
    agreement_report,
    evaluate_predictions,
    prediction_set,
    prf,
    auc,
    roc_points,
)
from .models import MODEL_KINDS, TrainConfig, fit, predict
from .reports import dump_json, format_delta, render_report, render_roc_csv
from .seeding import derive_seed

@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run.

    A spec that no run could use is refused with ``UsageError`` when it is
    built, before any dataset is read or ``out_dir`` is made.
    """

    kind: str  # a key of EXPERIMENTS
    datasets: dict = field(default_factory=dict)  # role -> path
    models: tuple = ("tfidf", "lm", "cnn", "han")
    config: dict = field(default_factory=dict)    # TrainConfig overrides
    seed: int = 0
    out_dir: str = "."
    n_resamples: int = 1000
    k_topics: int = 10
    scale_midpoint: float = 2.5

    def __post_init__(self):
        experiment = EXPERIMENTS.get(self.kind) if isinstance(self.kind, str) else None
        if experiment is None:
            raise UsageError(f"unknown experiment kind {self.kind!r}; "
                             f"expected {'|'.join(EXPERIMENTS)}")
        datasets = self.datasets
        if not isinstance(datasets, dict) or not all(
                isinstance(s, str) for item in datasets.items() for s in item):
            raise UsageError(f"experiment spec datasets must map roles to paths, got {datasets!r}")
        for role in experiment.roles:
            if role not in datasets:
                raise UsageError(f"{self.kind} experiment needs datasets[{role!r}]")
        models = self.models
        if (not isinstance(models, (list, tuple)) or not models
                or not all(m in MODEL_KINDS for m in models) or len(set(models)) < len(models)):
            raise UsageError(f"experiment spec models must be a non-empty list of distinct "
                             f"model kinds ({'|'.join(MODEL_KINDS)}), got {models!r}")
        self.models = tuple(models)
        if not isinstance(self.config, dict):
            raise UsageError(f"experiment spec config must map training config keys to "
                             f"values, got {self.config!r}")
        TrainConfig.from_json(self.config)
        for name, least in (("seed", 0), ("n_resamples", 1), ("k_topics", 2)):
            require_int(f"experiment spec {name}", getattr(self, name), least)
        midpoint = self.scale_midpoint
        if type(midpoint) not in (int, float) or not math.isfinite(midpoint):
            raise UsageError(f"experiment spec scale_midpoint must be finite, got {midpoint!r}")

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown experiment spec keys: {sorted(unknown)}")
        return cls(**data)


def _config_for(spec_config: dict, kind: str, master_seed: int) -> TrainConfig:
    config = TrainConfig.from_json(spec_config) if spec_config else TrainConfig()
    config.seed = derive_seed(master_seed, f"train:{kind}")
    return config


def _train_and_predict(model_kinds, train_docs, validation_docs, test_docs,
                       spec_config: dict, master_seed: int):
    """The shared train-then-score step: one prediction set per model kind;
    test docs are only dereferenced after each model finishes training."""
    pred_sets = []
    for kind in model_kinds:
        config = _config_for(spec_config, kind, master_seed)
        result = fit(kind, train_docs, validation_docs, config)
        predictions = predict(result.classifier, test_docs)
        pred_sets.append(prediction_set(predictions, test_docs, model_name=kind))
    return pred_sets


def dataset_fingerprint(path) -> str:
    """sha256 of a dataset file, or of a split directory's files by name."""
    h = hashlib.sha256()
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, name) for name in sorted(os.listdir(path))
                 if name.endswith(".jsonl")]
    for file_path in paths:
        h.update(os.path.basename(file_path).encode("utf-8"))
        with open(file_path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def _provenance(spec: ExperimentSpec) -> dict:
    config_blob = json.dumps(spec.config, sort_keys=True).encode("utf-8")
    return {
        "version": __version__,
        "master_seed": spec.seed,
        "config": spec.config,
        "config_hash": hashlib.sha256(config_blob).hexdigest(),
        "dataset_fingerprints": {
            role: dataset_fingerprint(path) for role, path in sorted(spec.datasets.items())
        },
        "kind": spec.kind,
    }


def _split_dir(path: str) -> dict:
    """Load the train/validation/test JSONL files of a split directory."""
    out = {}
    for name in ("train", "validation", "test"):
        file_path = os.path.join(path, f"{name}.jsonl")
        if not os.path.exists(file_path):
            raise UsageError(f"split directory {path} is missing {name}.jsonl")
        out[name] = read_documents(file_path)
    return out


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_baseline_comparison(train_splits: dict, external_test_docs, model_kinds,
                            spec_config: dict, seed: int, n_resamples: int = 1000):
    """Train every model once and evaluate on an external test set with
    bootstrap intervals and pairwise significance."""
    pred_sets = _train_and_predict(
        model_kinds, train_splits["train"], train_splits["validation"],
        external_test_docs, spec_config, seed)
    report = evaluate_predictions(pred_sets, n_resamples, derive_seed(seed, "eval:comparison"))
    return report, pred_sets


def run_temporal(train_year_splits: dict, test_year_splits: dict, model_kinds,
                 spec_config: dict, seed: int, n_resamples: int = 1000):
    """Within-year vs between-year evaluation on the test year's test split.

    Within trains on the test year's own train/validation; between trains
    on the other year's train/validation; the test documents are identical,
    so the percentage deltas isolate the training-time shift.
    """
    test_docs = test_year_splits["test"]
    within_preds = _train_and_predict(
        model_kinds, test_year_splits["train"], test_year_splits["validation"],
        test_docs, spec_config, derive_seed(seed, "within"))
    between_preds = _train_and_predict(
        model_kinds, train_year_splits["train"], train_year_splits["validation"],
        test_docs, spec_config, derive_seed(seed, "between"))
    within_report = evaluate_predictions(within_preds, n_resamples,
                                         derive_seed(seed, "eval:within"))
    between_report = evaluate_predictions(between_preds, n_resamples,
                                          derive_seed(seed, "eval:between"))
    delta = {}
    for w_row, b_row in zip(within_report.rows, between_report.rows):
        delta[w_row.model] = {
            m: {
                "within": w_row.metrics[m]["value"],
                "between": b_row.metrics[m]["value"],
                "delta": format_delta(w_row.metrics[m]["value"], b_row.metrics[m]["value"]),
            }
            for m in w_row.metrics
        }
    return within_report, between_report, delta


def topic_folds(docs, k: int, seed: int):
    """Leave-one-topic-out folds over the top-k topics by positive count.

    Topics rank by controversial-document count (ties alphabetical);
    negatives spread over folds by seeded round-robin so fold class ratios
    stay near the global ratio. Returns a list of (topic, test_docs,
    train_docs) with the fold's topic absent from its training side.
    """
    positives = [d for d in docs if d.label == CONTROVERSIAL]
    negatives = [d for d in docs if d.label != CONTROVERSIAL]
    by_topic: dict[str, list] = {}
    for d in positives:
        if d.topic is not None:
            by_topic.setdefault(d.topic, []).append(d)
    if len(by_topic) < k:
        raise UsageError(
            f"topic cross-validation needs at least k={k} topics among positives, "
            f"found {len(by_topic)}; try a smaller k"
        )
    ranked = sorted(by_topic, key=lambda t: (-len(by_topic[t]), t))[:k]

    rng = np.random.default_rng(derive_seed(seed, "topic:negatives"))
    neg_order = [negatives[i] for i in rng.permutation(len(negatives))]
    neg_folds: list[list] = [[] for _ in range(k)]
    for i, doc in enumerate(neg_order):
        neg_folds[i % k].append(doc)

    folds = []
    for i, topic in enumerate(ranked):
        test_docs = by_topic[topic] + neg_folds[i]
        train_pos = [d for d in positives if d.topic != topic]
        train_neg = [d for j in range(k) if j != i for d in neg_folds[j]]
        folds.append((topic, test_docs, train_pos + train_neg))
    return folds


def run_topic_cv(docs, model_kinds, spec_config: dict, seed: int, k: int = 10):
    """Leave-one-topic-out cross validation; metrics averaged across folds.
    Each fold holds out a seeded tenth of its training documents (at least
    one) for validation."""
    folds = topic_folds(docs, k, seed)
    per_fold = []
    sums: dict[str, dict[str, float]] = {m: dict.fromkeys(METRIC_NAMES, 0.0) for m in model_kinds}
    for fold_index, (topic, test_docs, train_docs) in enumerate(folds):
        rng = np.random.default_rng(derive_seed(seed, f"topic:val:{fold_index}"))
        order = rng.permutation(len(train_docs))
        n_val = max(1, int(len(train_docs) * 0.1))
        val_idx = set(order[:n_val].tolist())
        fold_train = [d for i, d in enumerate(train_docs) if i not in val_idx]
        fold_val = [d for i, d in enumerate(train_docs) if i in val_idx]
        pred_sets = _train_and_predict(
            model_kinds, fold_train, fold_val, test_docs, spec_config,
            derive_seed(seed, f"fold:{fold_index}"))
        fold_metrics = {}
        for preds in pred_sets:
            res = prf(preds)
            try:
                auc_val = auc(preds.scores, preds.true_labels)
            except UsageError:
                auc_val = float("nan")
            fold_metrics[preds.model_name] = {
                "precision": res.precision, "recall": res.recall,
                "f1": res.f1, "auc": auc_val,
            }
            for name, value in fold_metrics[preds.model_name].items():
                sums[preds.model_name][name] += value
        per_fold.append({"topic": topic, "n_test": len(test_docs),
                         "metrics": fold_metrics})
    averaged = {
        model: {name: value / len(folds) for name, value in model_sums.items()}
        for model, model_sums in sums.items()
    }
    return per_fold, averaged


def run_domain(splits: dict, model_kinds, spec_config: dict, seed: int,
               n_resamples: int = 1000):
    """Train on the wikipedia side only, evaluate on general-web pages only."""
    train_docs = [d for d in splits["train"] if d.source == WIKIPEDIA]
    validation_docs = [d for d in splits["validation"] if d.source == WIKIPEDIA]
    test_docs = [d for d in splits["test"] if d.source == GENERAL_WEB]
    if not train_docs:
        raise UsageError("domain experiment: no wikipedia documents in the train split")
    if not test_docs:
        raise UsageError("domain experiment: no general-web documents in the test split")
    pred_sets = _train_and_predict(model_kinds, train_docs, validation_docs,
                                   test_docs, spec_config, seed)
    report = evaluate_predictions(pred_sets, n_resamples, derive_seed(seed, "eval:domain"))
    sizes = {"train_wikipedia": len(train_docs),
             "validation_wikipedia": len(validation_docs),
             "test_general_web": len(test_docs)}
    return report, sizes, pred_sets


def run_agreement(pred_sets, annotations, scale_midpoint: float = 2.5,
                  min_scores: int = 3):
    """Per-model Spearman correlations against the annotation statistics."""
    rows = []
    for preds in pred_sets:
        rows.append((preds.model_name,
                     agreement_report(preds, annotations, scale_midpoint, min_scores)))
    return rows


# ---------------------------------------------------------------------------
# Spec-driven dispatch (the `experiment` CLI subcommand)
# ---------------------------------------------------------------------------

def _comparison(spec: ExperimentSpec):
    report, pred_sets = run_baseline_comparison(
        _split_dir(spec.datasets["train_dir"]), read_documents(spec.datasets["external_test"]),
        spec.models, spec.config, spec.seed, spec.n_resamples)
    files = []
    for preds in pred_sets:
        try:
            points = roc_points(preds.scores, preds.true_labels)
        except UsageError:
            continue
        files.append((f"roc_{preds.model_name}.csv", render_roc_csv(points)))
    return {"report": report.to_json()}, files


def _temporal(spec: ExperimentSpec):
    train_year_splits = _split_dir(spec.datasets["train_year_dir"])
    test_year_splits = _split_dir(spec.datasets["test_year_dir"])
    within, between, delta = run_temporal(train_year_splits, test_year_splits, spec.models,
                                          spec.config, spec.seed, spec.n_resamples)
    test_tag, train_tag = (f"'{docs[0].snapshot_year % 100:02d}" if docs else "'?"
                           for docs in (test_year_splits["test"], train_year_splits["train"]))
    report = {"within": within.to_json(), "between": between.to_json(), "delta": delta,
              "column_labels": [f"{test_tag}/{test_tag}", f"{train_tag}/{test_tag}"]}
    return {"report": report}, []


def _topic(spec: ExperimentSpec):
    per_fold, averaged = run_topic_cv(read_documents(spec.datasets["dataset"]), spec.models,
                                      spec.config, spec.seed, spec.k_topics)
    report = {"folds": per_fold, "averaged": averaged, "model_names": list(spec.models)}
    return {"report": report}, []


def _domain(spec: ExperimentSpec):
    report, sizes, _ = run_domain(_split_dir(spec.datasets["train_dir"]), spec.models,
                                  spec.config, spec.seed, spec.n_resamples)
    return {"report": report.to_json(), "filtered_sizes": sizes}, []


def _agreement(spec: ExperimentSpec):
    splits = _split_dir(spec.datasets["train_dir"])
    test_docs = read_documents(spec.datasets["test"])
    annotations = read_annotations(spec.datasets["annotations"])
    pred_sets = _train_and_predict(spec.models, splits["train"], splits["validation"],
                                   test_docs, spec.config, spec.seed)
    rows = run_agreement(pred_sets, annotations, spec.scale_midpoint)
    report = {model: {"n": rep.n, "mean_annotation": _nan_to_none(rep.mean_annotation),
                      "certainty": _nan_to_none(rep.certainty),
                      "disagreement": _nan_to_none(rep.disagreement), "flags": rep.flags}
              for model, rep in rows}
    return {"report": report, "model_names": [model for model, _ in rows]}, []


def _nan_to_none(value: float):
    return None if value != value else value


class ExperimentKind(NamedTuple):
    """The dataset roles a kind's spec must name, and its runner: spec ->
    (report.json fields, [(file name in out_dir, text)] of what the payload
    cannot give, which is the comparison's ROC curves)."""

    roles: tuple
    run: Callable


# The only list of experiment kinds; the spec check and `experiment --kind` read it.
EXPERIMENTS = {
    "comparison": ExperimentKind(("train_dir", "external_test"), _comparison),
    "temporal": ExperimentKind(("train_year_dir", "test_year_dir"), _temporal),
    "topic": ExperimentKind(("dataset",), _topic),
    "domain": ExperimentKind(("train_dir",), _domain),
    "agreement": ExperimentKind(("train_dir", "test", "annotations"), _agreement),
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a spec end to end and write report artifacts to out_dir:
    report.json, ``<kind>.txt`` rendered from it, and the runner's files.

    Returns the report payload that was written to report.json.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    payload = _provenance(spec)
    fields, files = EXPERIMENTS[spec.kind].run(spec)
    payload.update(fields)
    dump_json(os.path.join(spec.out_dir, "report.json"), payload)
    for name, text in [(f"{spec.kind}.txt", render_report(payload)), *files]:
        with open(os.path.join(spec.out_dir, name), "w", encoding="utf-8") as f:
            f.write(text)
    return payload
