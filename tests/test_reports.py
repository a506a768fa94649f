from controkit.corpus import DatasetSplit, SplitStats
from controkit.metrics import EvalReport, ModelEvalRow, eval_report_from_json
from controkit.reports import (
    format_delta,
    render_agreement_table,
    render_interval_table,
    render_metrics_table,
    render_roc_csv,
    render_split_stats_table,
    render_temporal_table,
)


def report_with(values_by_model):
    rows = []
    for model, vals in values_by_model.items():
        rows.append(ModelEvalRow(model=model, n=100, metrics={
            m: {"value": v, "lower": v - 0.05, "upper": v + 0.05, "n_skipped": 0}
            for m, v in vals.items()
        }))
    names = list(values_by_model)
    return EvalReport(rows=rows, significance={m: [[False] * len(rows)] * len(rows)
                                               for m in ("precision", "recall", "f1", "auc")},
                      model_names=names, n_resamples=100, seed=0)


METRICS = {"precision": 0.627, "recall": 0.840, "f1": 0.718, "auc": 0.835}


def test_metrics_table_columns():
    table = render_metrics_table(report_with({"cnn": METRICS}), "Model comparison")
    lines = table.splitlines()
    assert lines[0] == "Model comparison"
    assert lines[1].split() == ["Model", "Precision", "Recall", "F1", "AUC"]
    assert "cnn" in lines[3]
    assert "0.627" in lines[3] and "0.718" in lines[3]


def test_interval_table_contains_brackets():
    table = render_interval_table(report_with({"han": METRICS}))
    assert "[" in table and "]" in table


def test_format_delta_arrows():
    assert format_delta(0.663, 0.564) == "▼15%"
    assert format_delta(0.910, 0.941) == "▲3%"
    assert format_delta(0.5, 0.5) == "▲0%"
    assert format_delta(None, 0.5) == "-"
    assert format_delta(0.0, 0.5) == "-"


def test_temporal_table_triplet_columns():
    within = report_with({"cnn": {"precision": 0.930, "recall": 0.663,
                                  "f1": 0.775, "auc": 0.888}})
    between = report_with({"cnn": {"precision": 0.913, "recall": 0.564,
                                   "f1": 0.696, "auc": 0.846}})
    table = render_temporal_table(within, between, "'18/'18", "'09/'18")
    header = table.splitlines()[0]
    for metric in ("Precision", "Recall", "F1", "AUC"):
        assert f"{metric} '18/'18" in header
        assert f"{metric} '09/'18" in header
        assert f"{metric} Δ" in header
    row = table.splitlines()[2]
    # deltas recomputed from the rounded metric values themselves
    assert "▼15%" in row and "▼10%" in row and "▼5%" in row and "▼2%" in row


def test_split_stats_table_shape():
    splits = {
        name: DatasetSplit(name=name, doc_ids=[],
                           stats=SplitStats(seeds=s, total=t, controversial=c,
                                            general_web=g))
        for name, (s, t, c, g) in {
            "train": (5600, 23703, 7233, 15449),
            "validation": (200, 988, 651, 688),
            "test": (200, 1024, 654, 723),
        }.items()
    }
    table = render_split_stats_table(splits)
    lines = table.splitlines()
    assert lines[1].split() == ["Set", "Seeds", "Total", "Controversial", "General", "Web"]
    assert "Train" in lines[3] and "5600" in lines[3]
    assert "31%" in lines[3] and "65%" in lines[3]
    assert lines[4].startswith("Validation") and lines[5].startswith("Test")


def test_agreement_table_columns():
    from controkit.metrics import AgreementReport

    rows = [("han", AgreementReport(n=128, mean_annotation=0.277,
                                    certainty=-0.390, disagreement=0.207))]
    table = render_agreement_table(rows)
    header = table.splitlines()[1]
    assert header.split("  ")[0] == "Model"
    assert "mean annotation" in header and "certainty" in header and "disagreement" in header
    assert "0.277" in table and "-0.390" in table and "128" in table


def test_roc_csv():
    lines = render_roc_csv([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]).splitlines()
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0.000000,0.000000"
    assert len(lines) == 4


def test_eval_report_json_round_trip():
    report = report_with({"cnn": METRICS, "lm": METRICS})
    back = eval_report_from_json(report.to_json())
    assert back.to_json() == report.to_json()
