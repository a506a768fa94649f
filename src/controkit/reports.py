"""Plain-text tables of stored reports, and the JSON/CSV writers.

Every table is a function of the JSON payload written beside it:
:func:`render_report` picks the renderer of the payload's ``kind`` (an
experiment kind, ``eval`` or ``split``), so ``controkit report`` prints
the text a run wrote. The layouts mirror the reporting conventions used
throughout: four-column metric tables (Precision, Recall, F1, AUC), a
temporal table with two labelled columns plus a signed percentage delta
per metric, dataset split statistics, and the three-column agreement
table.
"""

from __future__ import annotations

import json

from .errors import DataFormatError
from .metrics import METRIC_NAMES

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


def _table(headers, rows, title: str = "") -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    prefix = f"{title}\n" if title else ""
    return prefix + "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def _metric_table(rows, title: str) -> str:
    """``rows``: [model, cell per metric] lists."""
    return _table(["Model"] + [METRIC_HEADERS[m] for m in METRIC_NAMES], rows, title)


def _interval(cell: dict) -> str:
    if cell["value"] is None:
        return "-"
    return f"{cell['value']:.3f} [{cell['lower']:.3f}, {cell['upper']:.3f}]"


def render_metrics_table(report: dict, title: str = "") -> str:
    """Point values of an ``EvalReport.to_json()`` report."""
    return _metric_table([[row["model"]] + [_fmt(row["metrics"][m]["value"])
                                            for m in METRIC_NAMES]
                          for row in report["rows"]], title)


def render_interval_table(report: dict, title: str = "") -> str:
    """Metrics with their bootstrap percentile intervals."""
    return _metric_table([[row["model"]] + [_interval(row["metrics"][m]) for m in METRIC_NAMES]
                          for row in report["rows"]], title)


def render_temporal_table(within: dict, between: dict, within_tag: str, between_tag: str,
                          title: str = "") -> str:
    headers = ["Model"]
    for m in METRIC_NAMES:
        name = METRIC_HEADERS[m]
        headers += [f"{name} {within_tag}", f"{name} {between_tag}", f"{name} Δ"]
    rows = []
    for w_row, b_row in zip(within["rows"], between["rows"]):
        cells = [w_row["model"]]
        for m in METRIC_NAMES:
            w_val = w_row["metrics"][m]["value"]
            b_val = b_row["metrics"][m]["value"]
            cells += [_fmt(w_val), _fmt(b_val), format_delta(w_val, b_val)]
        rows.append(cells)
    return _table(headers, rows, title)


def render_split_stats_table(splits: dict, title: str = "Dataset statistics") -> str:
    """``splits``: train, validation and test, each ``{seeds, total,
    controversial, general_web}``, in the shape: Set, Seeds, Total,
    Controversial (%), General Web (%)."""
    rows = []
    for name in ("train", "validation", "test"):
        st = splits[name]
        def share(count):
            return f"{count} ({100.0 * count / st['total'] if st['total'] else 0.0:.0f}%)"
        rows.append([name.capitalize(), st["seeds"], st["total"],
                     share(st["controversial"]), share(st["general_web"])])
    return _table(["Set", "Seeds", "Total", "Controversial", "General Web"], rows, title)


def render_agreement_table(rows, title: str = "Human agreement") -> str:
    """``rows``: (model, {n, mean_annotation, certainty, disagreement}) pairs;
    an undefined correlation is None."""
    body = [[model] + [_fmt(rep[name]) for name in ("mean_annotation", "certainty",
                                                    "disagreement")] + [rep["n"]]
            for model, rep in rows]
    return _table(["Model", "mean annotation", "certainty", "disagreement", "n"], body, title)


def render_roc_csv(points) -> str:
    return "fpr,tpr\n" + "".join(f"{fpr:.6f},{tpr:.6f}\n" for fpr, tpr in points)


def _comparison(payload: dict) -> str:
    report = payload["report"]
    return (render_metrics_table(report, "Model comparison") + "\n"
            + render_interval_table(report, "Bootstrap intervals"))


def _temporal(payload: dict) -> str:
    report = payload["report"]
    return render_temporal_table(report["within"], report["between"],
                                 *report["column_labels"], "Temporal stability")


def _topic(payload: dict) -> str:
    averaged = payload["report"]["averaged"]  # {model: {metric: fold mean}}
    return _metric_table([[model] + [_fmt(averaged[model].get(m)) for m in METRIC_NAMES]
                          for model in payload["report"]["model_names"]],
                         "Cross-topic stability (averaged over folds)")


def _domain(payload: dict) -> str:
    sizes = payload["filtered_sizes"]
    return (render_metrics_table(payload["report"], "Cross-domain stability")
            + f"\n(train wikipedia: {sizes['train_wikipedia']}, "
            f"test general-web: {sizes['test_general_web']})\n")


def _agreement(payload: dict) -> str:
    return render_agreement_table([(m, payload["report"][m]) for m in payload["model_names"]])


# One renderer per report kind: the five experiment kinds, `eval` and `split`.
RENDERERS = {
    "comparison": _comparison,
    "temporal": _temporal,
    "topic": _topic,
    "domain": _domain,
    "agreement": _agreement,
    "eval": lambda p: render_interval_table(p["report"], f"Evaluation of {p['checkpoint']}"),
    "split": lambda p: render_split_stats_table(p["splits"]),
}


def render_report(payload: dict) -> str:
    """The table of a stored report, by its ``kind``. A payload of no known
    kind, or without a field its table reads, is a ``DataFormatError``."""
    kind = payload.get("kind")
    render = RENDERERS.get(kind) if isinstance(kind, str) else None
    if render is None:
        raise DataFormatError(f"report kind {kind!r} has no table; "
                              f"expected {'|'.join(RENDERERS)}")
    try:
        return render(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{kind} report does not hold its table's fields "
                              f"({type(exc).__name__}: {exc})") from exc


def dump_json(path, payload: dict) -> None:
    """Canonical JSON writer: sorted keys, stable float repr, trailing
    newline; reruns with identical inputs produce identical bytes."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
        f.write("\n")
