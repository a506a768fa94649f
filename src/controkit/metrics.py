"""Metrics, bootstrap significance, and human-agreement correlations.

The bootstrap draw contract, shared by every resampling routine here (and
by any independent reimplementation that wants identical numbers): with
``rng = numpy.random.default_rng(seed)``, resample ``i`` uses the index
vector ``rng.integers(0, n, size=n)``, drawn in resample order; a block of r
resamples is one ``rng.integers(0, n, size=(r, n))``, whose rows are those r
draws. Intervals are empirical percentiles with linear interpolation between
order statistics, pinned to the formula

    h = (n - 1) * q / 100;  value = v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)])

over the ascending-sorted resample values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

METRIC_NAMES = ("precision", "recall", "f1", "auc")
LEVEL = 0.95  # the confidence level of every interval and significance test

_BLOCK_CELLS = 1 << 16  # draw cells per block of resamples: (r, n) int64 arrays of 512 KiB


@dataclass
class PredictionSet:
    """Aligned score/label arrays for one model on one document set."""

    doc_ids: list[str]
    scores: np.ndarray
    hard_labels: np.ndarray
    true_labels: np.ndarray
    model_name: str = ""

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.hard_labels = np.asarray(self.hard_labels, dtype=np.int64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        n = len(self.doc_ids)
        if not (len(self.scores) == len(self.hard_labels) == len(self.true_labels) == n):
            raise UsageError("prediction arrays must have equal lengths")
        if n and not np.all(np.isfinite(self.scores)):
            raise UsageError("prediction scores must be finite")
        if not np.all(np.isin(np.r_[self.hard_labels, self.true_labels], (0, 1))):
            raise UsageError("prediction labels must be 0 or 1")

    def __len__(self):
        return len(self.doc_ids)


def prediction_set(predictions, docs, model_name: str = "") -> PredictionSet:
    """Build a PredictionSet from model predictions and labeled documents."""
    from .models.base import label_to_int

    return PredictionSet(
        doc_ids=[p.doc_id for p in predictions],
        scores=np.array([p.score for p in predictions]),
        hard_labels=np.array([p.hard_label for p in predictions]),
        true_labels=np.array([label_to_int(d.label) for d in docs]),
        model_name=model_name,
    )


@dataclass
class PrfResult:
    precision: float
    recall: float
    f1: float
    flags: list = field(default_factory=list)

    def __iter__(self):
        return iter((self.precision, self.recall, self.f1))


def class_counts(keys, n_groups: int, cells) -> np.ndarray:
    """(r, n_groups, 2) counts: [i, g, y] counts the documents keyed
    ``2 * g + y`` among those row i of the (r, n) index draw ``cells`` picks,
    from one bincount of row-offset keys. ``np.arange(n)[None]`` is the full
    sample as one row."""
    r, width = len(cells), 2 * n_groups
    offset_keys = keys[cells]
    offset_keys += width * np.arange(r)[:, None]
    return np.bincount(offset_keys.ravel(), minlength=r * width).reshape(r, n_groups, 2)


def _confusion_keys(predicted, labels):
    """Keys grouped by hard prediction: each document's confusion cell."""
    return 2 * np.asarray(predicted, dtype=bool) + (np.asarray(labels) == 1)


def _score_keys(scores, labels):
    """The ascending distinct scores, and keys grouped by their rank."""
    distinct, rank = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True)
    return distinct, 2 * rank + (np.asarray(labels) == 1)


def precision_recall_f1(predicted, labels) -> tuple[float, float, float]:
    """Precision, recall and their harmonic mean of boolean predictions
    against 0/1 labels, from one set of confusion counts.

    Degenerate conventions: precision 0 with no predicted positives, recall
    0 with no actual positives, F1 = 0 when P + R = 0.
    """
    keys = _confusion_keys(predicted, labels)
    counts = class_counts(keys, 2, np.arange(len(keys))[None])
    return tuple(float(v[0]) for v in _prf_rows(counts))


def _prf_rows(counts):
    """Precision, recall and F1 under each row of (r, 2, 2) confusion counts."""
    return prf_from_counts(tp=counts[:, 1, 1], fp=counts[:, 1, 0], fn=counts[:, 0, 1])


def prf_from_counts(tp, fp, fn):
    """Precision, recall and F1 elementwise over arrays of confusion counts."""
    def ratio(num, den):  # 0 where den is 0: the degenerate conventions
        return np.divide(num, den, out=np.zeros(len(den)), where=den != 0)
    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    return precision, recall, ratio(2 * precision * recall, precision + recall)


def prf(preds: PredictionSet) -> PrfResult:
    """``precision_recall_f1`` of the hard labels, with each degenerate
    convention flagged (never raised)."""
    if len(preds) < 1:
        raise UsageError("prf needs at least one prediction")
    predicted = preds.hard_labels == 1
    precision, recall, f1 = precision_recall_f1(predicted, preds.true_labels)
    flags = []
    if not predicted.any():
        flags.append("no-predicted-positives")
    if not np.any(preds.true_labels == 1):
        flags.append("no-actual-positives")
    if precision + recall == 0:
        flags.append("f1-undefined")
    return PrfResult(precision, recall, f1, flags)


def counts_by_score(scores, labels, refusal: str):
    """The ascending distinct scores and the (g, 2) negative and positive
    counts at each, the kernel's one-row case. Raises UsageError(``refusal``,
    its ``{missing}`` naming the absent class) unless both classes occur."""
    distinct, keys = _score_keys(scores, labels)
    counts = class_counts(keys, len(distinct), np.arange(len(keys))[None])[0]
    n_neg, n_pos = counts.sum(axis=0)
    if n_pos == 0 or n_neg == 0:
        raise UsageError(refusal.format(missing="positive" if n_pos == 0 else "negative"))
    return distinct, counts


def auc(scores, labels) -> float:
    """Rank-based AUC: the fraction of (positive, negative) pairs ranked
    correctly, ties counting one half; equals the trapezoidal ROC area."""
    _, counts = counts_by_score(scores, labels,
                                "auc needs both classes; no {missing} examples present")
    return float(_auc_rows(counts[None])[0])


def _auc_rows(counts):
    """AUC under each row of (r, g, 2) class counts per ascending distinct
    score, NaN on a row that lacks a class.

    U = sum of positives * (negatives below + half the negatives tied) over
    distinct scores is a half-integer, exact in float64, so U / (n_pos *
    n_neg) equals the tie-averaged rank-sum formula bit for bit."""
    neg, pos = counts[..., 0], counts[..., 1]
    twice_u = np.sum(pos * (2 * np.cumsum(neg, axis=1) - neg), axis=1)
    with np.errstate(invalid="ignore"):  # a single-class row is 0 / 0
        return 0.5 * twice_u / (pos.sum(axis=1) * neg.sum(axis=1))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, ties = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(ties) - (ties - 1) / 2.0)[inverse]


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) points of the ROC curve, for CSV export."""
    _, counts = counts_by_score(scores, labels, "roc needs both classes")
    fpr, tpr = (np.cumsum(counts[::-1], axis=0) / counts.sum(axis=0)).T
    return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))


def percentile_linear(values, q: float) -> float:
    """The pinned percentile rule (see the module docstring)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    h = (len(v) - 1) * q / 100.0
    lo = int(np.floor(h))
    hi = min(lo + 1, len(v) - 1)
    g = h - lo
    return float(v[lo] + g * (v[hi] - v[lo]))


def _metric_rows(preds: PredictionSet, metric: str):
    """``metric`` under each row of an (r, n) index draw, as a function of
    the draw, NaN where undefined. The documents are keyed once, here."""
    if metric not in METRIC_NAMES:
        raise UsageError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
    if metric == "auc":
        distinct, keys = _score_keys(preds.scores, preds.true_labels)
        return lambda cells: _auc_rows(class_counts(keys, len(distinct), cells))
    keys = _confusion_keys(preds.hard_labels == 1, preds.true_labels)
    return lambda cells: _prf_rows(class_counts(keys, 2, cells))[METRIC_NAMES.index(metric)]


def _resample_values(n: int, n_resamples: int, seed: int, metric_rows):
    """``metric_rows`` of the full sample (computed before any draw), its
    defined values over the resamples in resample order, and the number of
    NaN ones."""
    point = float(metric_rows(np.arange(n)[None])[0])
    rng = np.random.default_rng(seed)
    per_block = max(1, _BLOCK_CELLS // n)
    values = [np.empty(0)]
    for start in range(0, n_resamples, per_block):
        r = min(per_block, n_resamples - start)
        values.append(metric_rows(rng.integers(0, n, size=(r, n))))
    values = np.concatenate(values)
    return point, values[~np.isnan(values)], int(np.sum(np.isnan(values)))


@dataclass
class BootstrapResult:
    point: float
    lower: float
    upper: float
    values: np.ndarray
    n_resamples: int
    n_skipped: int
    seed: int


def bootstrap_ci(preds: PredictionSet, metric, n_resamples: int = 1000,
                 seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap of a metric over with-replacement resamples, at
    confidence ``LEVEL``.

    Each resample draws n documents with replacement (see the module
    docstring for the exact generator contract); resamples on which the
    metric is undefined (e.g. a single-class draw for AUC) are recorded
    and skipped. Deterministic for a given seed.
    """
    n = len(preds)
    if n < 2:
        raise UsageError("bootstrap needs at least 2 predictions")
    point, values, skipped = _resample_values(n, n_resamples, seed, _metric_rows(preds, metric))
    if not len(values):
        raise UsageError("metric undefined on every bootstrap resample")
    alpha = (1.0 - LEVEL) / 2.0
    lower = percentile_linear(values, 100 * alpha)
    upper = percentile_linear(values, 100 * (1 - alpha))
    return BootstrapResult(
        point=point,
        lower=lower,
        upper=upper,
        values=values,
        n_resamples=n_resamples,
        n_skipped=skipped,
        seed=seed,
    )


@dataclass
class CompareResult:
    significant: bool
    lower: float
    upper: float
    point_difference: float
    differences: np.ndarray
    n_skipped: int


def compare(a: PredictionSet, b: PredictionSet, metric, n_resamples: int = 1000,
            seed: int = 0) -> CompareResult:
    """Paired bootstrap significance of metric(a) - metric(b).

    Both prediction sets must cover the identical documents; each resample
    is drawn once and evaluated for both models, and the difference is
    significant (p < 1 - ``LEVEL``) when its percentile interval excludes 0.
    """
    if a.doc_ids != b.doc_ids:
        raise UsageError("compare needs predictions over the identical document set")
    n = len(a)
    if n < 2:
        raise UsageError("compare needs at least 2 predictions")
    rows_a, rows_b = _metric_rows(a, metric), _metric_rows(b, metric)
    point_difference, diffs, skipped = _resample_values(
        n, n_resamples, seed, lambda cells: rows_a(cells) - rows_b(cells))
    if not len(diffs):
        raise UsageError("metric undefined on every paired resample")
    alpha = (1.0 - LEVEL) / 2.0
    lower = percentile_linear(diffs, 100 * alpha)
    upper = percentile_linear(diffs, 100 * (1 - alpha))
    significant = bool(lower > 0.0 or upper < 0.0)
    return CompareResult(
        significant=significant,
        lower=lower,
        upper=upper,
        point_difference=point_difference,
        differences=diffs,
        n_skipped=skipped,
    )


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties.

    Returns NaN (flagged as undefined by callers) when either variable has
    zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError("spearman needs two equal-length vectors")
    if len(x) < 3:
        raise UsageError("spearman needs at least 3 observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(rx * ry) / denom)


@dataclass
class AgreementReport:
    """Correlations of model error with three annotation statistics."""

    n: int
    mean_annotation: float
    certainty: float
    disagreement: float
    flags: list = field(default_factory=list)


def agreement_report(preds: PredictionSet, annotations, scale_midpoint: float = 2.5,
                     min_scores: int = 3) -> AgreementReport:
    """Spearman correlations of per-document model error against mean
    annotation, certainty (|mean - midpoint|) and disagreement
    (population standard deviation).

    Only annotation records with at least ``min_scores`` scores join;
    model error is |positive score - numeric true label|. Columns whose
    statistic has zero variance are NaN and flagged.
    """
    by_id = {a.id: a for a in annotations if len(a.scores) >= min_scores}
    errors, means, certainties, disagreements = [], [], [], []
    for i, doc_id in enumerate(preds.doc_ids):
        record = by_id.get(doc_id)
        if record is None:
            continue
        scores = np.asarray(record.scores, dtype=np.float64)
        errors.append(abs(preds.scores[i] - preds.true_labels[i]))
        means.append(float(scores.mean()))
        certainties.append(abs(float(scores.mean()) - scale_midpoint))
        disagreements.append(float(scores.std(ddof=0)))
    if len(errors) < 3:
        raise UsageError(
            f"agreement needs at least 3 joined documents with >= {min_scores} scores, "
            f"got {len(errors)}"
        )
    flags = []
    rho_mean = spearman(errors, means)
    rho_cert = spearman(errors, certainties)
    rho_dis = spearman(errors, disagreements)
    for name, value in (("mean_annotation", rho_mean), ("certainty", rho_cert),
                        ("disagreement", rho_dis)):
        if np.isnan(value):
            flags.append(f"{name}-undefined")
    return AgreementReport(
        n=len(errors),
        mean_annotation=rho_mean,
        certainty=rho_cert,
        disagreement=rho_dis,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Aggregate evaluation reports
# ---------------------------------------------------------------------------

@dataclass
class ModelEvalRow:
    model: str
    n: int
    metrics: dict  # metric name -> {"value", "lower", "upper", "n_skipped"}


@dataclass
class EvalReport:
    """Per-model metrics with percentile intervals and a symmetric pairwise
    significance matrix per metric."""

    rows: list
    significance: dict  # metric -> list of list of bool
    model_names: list
    n_resamples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "rows": [
                {"model": r.model, "n": r.n, "metrics": r.metrics} for r in self.rows
            ],
            "significance": self.significance,
            "model_names": self.model_names,
            "n_resamples": self.n_resamples,
            "seed": self.seed,
            "level": LEVEL,
        }


def evaluate_predictions(pred_sets, n_resamples: int = 1000, seed: int = 0) -> EvalReport:
    """Bootstrap every metric for every model and test pairwise differences.

    Each (model, metric) bootstrap and each pairwise comparison draws from
    its own seed derived from the master seed by name, so adding a model
    never perturbs another model's interval. Interval bounds are widened
    (rarely needed) to contain the full-sample point estimate.
    """
    from .seeding import derive_seed

    rows = []
    for preds in pred_sets:
        row_metrics = {}
        for metric in METRIC_NAMES:
            sub_seed = derive_seed(seed, f"ci:{preds.model_name}:{metric}")
            try:
                result = bootstrap_ci(preds, metric, n_resamples, sub_seed)
                row_metrics[metric] = {
                    "value": result.point,
                    "lower": min(result.lower, result.point),
                    "upper": max(result.upper, result.point),
                    "n_skipped": result.n_skipped,
                }
            except UsageError as exc:
                row_metrics[metric] = {"value": None, "lower": None, "upper": None,
                                       "error": str(exc)}
        rows.append(ModelEvalRow(model=preds.model_name, n=len(preds), metrics=row_metrics))

    names = [p.model_name for p in pred_sets]
    significance = {}
    for metric in METRIC_NAMES:
        matrix = [[False] * len(pred_sets) for _ in pred_sets]
        for i in range(len(pred_sets)):
            for j in range(i + 1, len(pred_sets)):
                sub_seed = derive_seed(seed, f"cmp:{names[i]}:{names[j]}:{metric}")
                try:
                    cmp_result = compare(pred_sets[i], pred_sets[j], metric,
                                         n_resamples, sub_seed)
                    matrix[i][j] = matrix[j][i] = cmp_result.significant
                except UsageError:
                    pass
        significance[metric] = matrix
    return EvalReport(rows=rows, significance=significance, model_names=names,
                      n_resamples=n_resamples, seed=seed)

