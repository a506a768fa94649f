from controkit.experiments import EXPERIMENTS
from controkit.metrics import EvalReport, ModelEvalRow
from controkit.reports import (
    RENDERERS,
    format_delta,
    render_agreement_table,
    render_interval_table,
    render_metrics_table,
    render_roc_csv,
    render_split_stats_table,
    render_temporal_table,
)


def report_with(values_by_model):
    """The JSON of an EvalReport with these point values."""
    rows = []
    for model, vals in values_by_model.items():
        rows.append(ModelEvalRow(model=model, n=100, metrics={
            m: {"value": v, "lower": v - 0.05, "upper": v + 0.05, "n_skipped": 0}
            for m, v in vals.items()
        }))
    names = list(values_by_model)
    return EvalReport(rows=rows, significance={m: [[False] * len(rows)] * len(rows)
                                               for m in ("precision", "recall", "f1", "auc")},
                      model_names=names, n_resamples=100, seed=0).to_json()


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
        name: {"seeds": s, "total": t, "controversial": c, "general_web": g}
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
    rows = [("han", {"n": 128, "mean_annotation": 0.277, "certainty": -0.390,
                     "disagreement": 0.207})]
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



def test_one_renderer_per_report_kind():
    assert sorted(RENDERERS) == sorted([*EXPERIMENTS, "eval", "split"])


def test_golden_world_diff_report_shows_a_shifted_table(monkeypatch, capsys):
    import golden_world

    outputs = [(path.name, f"run/{path.name}", path.read_text())
               for path in sorted(golden_world.GOLDEN_DIR.glob("*.txt"))]
    monkeypatch.setattr(golden_world, "build_golden_tables", lambda tmp: outputs)
    assert golden_world.diff_report()
    name, source, text = outputs[0]
    first, rest = text.split("\n", 1)
    outputs[0] = (name, source, f" {first}\n{rest}")
    assert not golden_world.diff_report()
    n = len(outputs)
    assert capsys.readouterr().out.splitlines() == [
        f"0 of {n} outputs differ from their goldens",
        f"--- golden/{name}", f"+++ {source}", "@@ -1,4 +1,4 @@",
        f"-{first}", f"+ {first}", *[f" {line}" for line in rest.splitlines()[:3]],
        f"1 of {n} outputs differ from their goldens",
    ]
