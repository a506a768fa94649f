"""Plain-text tables and JSON/CSV writers for evaluation results.

The text layouts mirror the reporting conventions used throughout:
four-column metric tables (Precision, Recall, F1, AUC), a temporal table
with within/between columns plus signed percentage deltas, dataset split
statistics, and the three-column agreement table.
"""

from __future__ import annotations

import json

import numpy as np

from .metrics import METRIC_NAMES, EvalReport

UP = "▲"    # increase
DOWN = "▼"  # decrease

METRIC_HEADERS = {"precision": "Precision", "recall": "Recall", "f1": "F1", "auc": "AUC"}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_delta(within, between) -> str:
    """Signed percentage change (between - within) / within."""
    if within is None or between is None or within == 0:
        return "-"
    pct = 100.0 * (between - within) / abs(within)
    arrow = UP if pct >= 0 else DOWN
    return f"{arrow}{abs(pct):.0f}%"


def _table(headers, rows) -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def render_metrics_table(report: EvalReport, title: str = "") -> str:
    headers = ["Model"] + [METRIC_HEADERS[m] for m in METRIC_NAMES]
    rows = []
    for row in report.rows:
        rows.append([row.model] + [_fmt(row.metrics[m]["value"]) for m in METRIC_NAMES])
    prefix = f"{title}\n" if title else ""
    return prefix + _table(headers, rows)


def render_interval_table(report: EvalReport, title: str = "") -> str:
    """Metrics with their bootstrap percentile intervals."""
    headers = ["Model"] + [METRIC_HEADERS[m] for m in METRIC_NAMES]
    rows = []
    for row in report.rows:
        cells = [row.model]
        for m in METRIC_NAMES:
            cell = row.metrics[m]
            if cell["value"] is None:
                cells.append("-")
            else:
                cells.append(f"{cell['value']:.3f} [{cell['lower']:.3f}, {cell['upper']:.3f}]")
        rows.append(cells)
    prefix = f"{title}\n" if title else ""
    return prefix + _table(headers, rows)


def render_temporal_table(within: EvalReport, between: EvalReport,
                          within_tag: str = "within", between_tag: str = "between",
                          title: str = "") -> str:
    headers = ["Model"]
    for m in METRIC_NAMES:
        name = METRIC_HEADERS[m]
        headers += [f"{name} {within_tag}", f"{name} {between_tag}", f"{name} Δ"]
    rows = []
    for w_row, b_row in zip(within.rows, between.rows):
        cells = [w_row.model]
        for m in METRIC_NAMES:
            w_val = w_row.metrics[m]["value"]
            b_val = b_row.metrics[m]["value"]
            cells += [_fmt(w_val), _fmt(b_val), format_delta(w_val, b_val)]
        rows.append(cells)
    prefix = f"{title}\n" if title else ""
    return prefix + _table(headers, rows)


def render_averaged_metrics_table(averaged: dict, title: str = "") -> str:
    """Table for fold-averaged metrics: {model: {metric: value}}."""
    headers = ["Model"] + [METRIC_HEADERS[m] for m in METRIC_NAMES]
    rows = [[model] + [_fmt(vals.get(m)) for m in METRIC_NAMES]
            for model, vals in averaged.items()]
    prefix = f"{title}\n" if title else ""
    return prefix + _table(headers, rows)


def render_split_stats_table(splits, title: str = "Dataset statistics") -> str:
    """Split statistics in the shape: Set, Seeds, Total, Controversial (%),
    General Web (%)."""
    headers = ["Set", "Seeds", "Total", "Controversial", "General Web"]
    rows = []
    for name in ("train", "validation", "test"):
        if name not in splits:
            continue
        st = splits[name].stats
        rows.append([
            name.capitalize(),
            st.seeds,
            st.total,
            f"{st.controversial} ({st.controversial_pct:.0f}%)",
            f"{st.general_web} ({st.general_web_pct:.0f}%)",
        ])
    for name, split in splits.items():
        if name not in ("train", "validation", "test"):
            st = split.stats
            rows.append([name, st.seeds, st.total,
                         f"{st.controversial} ({st.controversial_pct:.0f}%)",
                         f"{st.general_web} ({st.general_web_pct:.0f}%)"])
    return f"{title}\n" + _table(headers, rows)


def render_agreement_table(rows, title: str = "Human agreement") -> str:
    """rows: list of (model, AgreementReport)."""
    headers = ["Model", "mean annotation", "certainty", "disagreement", "n"]
    body = []
    for model, rep in rows:
        def cell(v):
            return "-" if v is None or (isinstance(v, float) and np.isnan(v)) else f"{v:.3f}"
        body.append([model, cell(rep.mean_annotation), cell(rep.certainty),
                     cell(rep.disagreement), rep.n])
    return f"{title}\n" + _table(headers, body)


def render_roc_csv(points) -> str:
    return "fpr,tpr\n" + "".join(f"{fpr:.6f},{tpr:.6f}\n" for fpr, tpr in points)


def dump_json(path, payload: dict) -> None:
    """Canonical JSON writer: sorted keys, stable float repr, trailing
    newline; reruns with identical inputs produce identical bytes."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
        f.write("\n")
