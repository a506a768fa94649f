import argparse
import json
import os
import re

import numpy as np
import pytest

import controkit.models.training as training_module
from controkit.corpus import (
    CONTROVERSIAL,
    GENERAL_WEB,
    WIKIPEDIA,
    write_annotations,
    write_documents,
)
from controkit.cli import build_parser
from controkit.errors import UsageError
from controkit.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    run_agreement,
    run_baseline_comparison,
    run_domain,
    run_experiment,
    run_temporal,
    run_topic_cv,
    topic_folds,
)
from controkit.reports import render_report
from controkit.synthetic import make_annotated_predictions, make_separable_corpus, split_simple

from boilerplate import make_boilerplate_corpus

LEXICAL = ("tfidf", "lm")
FAST_CFG = {"epochs": 1, "vocab_min_freq": 1, "calibrate": True}


@pytest.fixture(scope="module")
def splits():
    return split_simple(make_separable_corpus(n_docs=240, seed=51), seed=52)


class TestTemporal:
    def test_identical_years_give_zero_delta(self, splits):
        within, between, delta = run_temporal(splits, splits, LEXICAL, FAST_CFG,
                                              seed=1, n_resamples=50)
        for model, metrics in delta.items():
            for metric, cell in metrics.items():
                assert cell["delta"] in ("▲0%", "▼0%")
                assert cell["within"] == cell["between"]

    def test_between_trains_on_other_year(self, splits):
        # shrink the old year to a single repeated negative-vocabulary doc:
        # between-year recall must collapse while within-year recall stays high
        collapsed = {
            "train": splits["train"][:40],
            "validation": splits["validation"][:20],
            "test": splits["test"][:20],
        }
        old_year = {
            name: [d for d in docs if d.label != CONTROVERSIAL] +
                  [d for d in docs if d.label == CONTROVERSIAL][:1]
            for name, docs in collapsed.items()
        }
        within, between, delta = run_temporal(old_year, collapsed, ("tfidf",),
                                              FAST_CFG, seed=2, n_resamples=50)
        assert within.rows[0].metrics["recall"]["value"] >= \
            between.rows[0].metrics["recall"]["value"]


class TestTopicCv:
    def test_fold_partition_property(self, splits):
        docs = splits["train"]
        folds = topic_folds(docs, k=5, seed=3)
        test_ids_seen = set()
        for topic, test_docs, train_docs in folds:
            train_ids = {d.id for d in train_docs}
            for d in test_docs:
                assert d.id not in train_ids
                if d.label == CONTROVERSIAL:
                    assert d.topic == topic
            test_ids_seen |= {d.id for d in test_docs if d.label == CONTROVERSIAL}
        top_topics = {t for t, _, _ in folds}
        expected = {d.id for d in docs if d.label == CONTROVERSIAL and d.topic in top_topics}
        assert test_ids_seen == expected

    def test_negatives_round_robin_cover_all(self, splits):
        docs = splits["train"]
        folds = topic_folds(docs, k=4, seed=5)
        neg_ids = [d.id for d in docs if d.label != CONTROVERSIAL]
        seen = set()
        for _, test_docs, _ in folds:
            seen |= {d.id for d in test_docs if d.label != CONTROVERSIAL}
        assert seen == set(neg_ids)

    def test_too_few_topics_suggests_smaller_k(self, splits):
        with pytest.raises(UsageError, match="smaller k"):
            topic_folds(splits["train"], k=50, seed=0)

    def test_averaged_equals_hand_average(self, splits):
        docs = splits["train"][:150]
        per_fold, averaged = run_topic_cv(docs, ("tfidf",), FAST_CFG, seed=7, k=3)
        assert len(per_fold) == 3
        hand = np.mean([f["metrics"]["tfidf"]["f1"] for f in per_fold])
        assert averaged["tfidf"]["f1"] == pytest.approx(hand, abs=1e-12)

    def test_symmetric_topics_give_equal_fold_metrics(self):
        # three topics with identical content up to naming
        docs = []
        base = make_separable_corpus(n_docs=120, seed=60)
        for i, d in enumerate(base):
            if d.label == CONTROVERSIAL:
                d.topic = f"T{i % 3}"
        per_fold, _ = run_topic_cv(base, ("lm",), FAST_CFG, seed=8, k=3)
        f1s = [f["metrics"]["lm"]["f1"] for f in per_fold]
        assert max(f1s) - min(f1s) < 0.15


class TestDomain:
    def test_filters_and_sizes(self):
        splits = make_boilerplate_corpus(n_docs=160, seed=70)
        report, sizes, pred_sets = run_domain(splits, ("tfidf",), FAST_CFG,
                                              seed=9, n_resamples=30)
        assert sizes["train_wikipedia"] > 0
        assert sizes["test_general_web"] == len(splits["test"])
        assert all(d.source == GENERAL_WEB for d in splits["test"])

    def test_no_general_web_rejected(self, splits):
        with pytest.raises(UsageError, match="general-web"):
            run_domain(splits, ("tfidf",), FAST_CFG, seed=0, n_resamples=10)

    def test_no_wikipedia_rejected(self):
        splits = make_boilerplate_corpus(n_docs=80, seed=71)
        splits["train"] = [d for d in splits["train"] if d.source != WIKIPEDIA]
        with pytest.raises(UsageError, match="wikipedia"):
            run_domain(splits, ("tfidf",), FAST_CFG, seed=0, n_resamples=10)


class TestAgreement:
    def test_agreement_rows(self):
        preds, annotations = make_annotated_predictions(n_docs=40, seed=80)
        rows = run_agreement([preds], annotations, scale_midpoint=2.5)
        assert rows[0][0] == "synthetic"
        assert rows[0][1].n > 3

    def test_single_annotated_doc_rejected(self):
        preds, annotations = make_annotated_predictions(n_docs=10, seed=81)
        with pytest.raises(UsageError):
            run_agreement([preds], annotations[:1], scale_midpoint=2.5)

    def test_independent_annotations_correlate_near_zero(self):
        # null case: annotator behavior unrelated to model difficulty, so
        # all three correlations should sit inside the ~2-sigma band at n=100
        preds, annotations = make_annotated_predictions(n_docs=100, seed=82,
                                                        informative=False)
        rows = run_agreement([preds], annotations, scale_midpoint=2.5)
        rep = rows[0][1]
        for value in (rep.mean_annotation, rep.certainty, rep.disagreement):
            if not np.isnan(value):
                assert abs(value) < 0.2


class TestDomainOrdering:
    def test_boilerplate_shift_favors_neural_f1(self):
        # general-web pages wrap the same content in navigation chrome that
        # leans negative in training; max-pooled features shrug it off while
        # bag-of-token models drown in it
        splits = make_boilerplate_corpus(n_docs=400, seed=72)
        config = {
            "epochs": 3, "patience": 3, "embed_dim": 16, "hidden_dim": 8,
            "n_filters": 16, "window_sizes": [2, 3], "max_tokens": 80,
            "max_sentences": 10, "max_words_per_sentence": 10,
            "vocab_min_freq": 1, "calibrate": True,
        }
        report, _, _ = run_domain(splits, ("tfidf", "lm", "cnn"), config,
                                  seed=73, n_resamples=30)
        f1 = {row.model: row.metrics["f1"]["value"] for row in report.rows}
        assert f1["cnn"] > f1["tfidf"]
        assert f1["cnn"] > f1["lm"]


class TestComparison:
    def test_identical_model_twice_identical_rows_no_self_significance(self, splits):
        external = splits["test"]
        report, pred_sets = run_baseline_comparison(
            splits, external, ("tfidf", "tfidf"), FAST_CFG, seed=11, n_resamples=60)
        a, b = report.rows
        assert a.metrics == b.metrics
        for matrix in report.significance.values():
            assert matrix[0][1] is False

    def test_separable_corpus_all_models_ci_reach_perfect_f1(self):
        splits = split_simple(make_separable_corpus(n_docs=400, seed=53), seed=54)
        config = {
            "epochs": 8, "patience": 8, "batch_size": 32,
            "embed_dim": 16, "hidden_dim": 8,
            "n_filters": 16, "window_sizes": [2, 3], "max_tokens": 40,
            "max_sentences": 5, "max_words_per_sentence": 10,
            "vocab_min_freq": 1, "calibrate": True,
        }
        report, _ = run_baseline_comparison(
            splits, splits["test"], ("tfidf", "lm", "cnn", "han"),
            config, seed=55, n_resamples=100)
        for row in report.rows:
            cell = row.metrics["f1"]
            assert cell["upper"] >= 0.999, (row.model, cell)
            assert cell["value"] >= 0.9, (row.model, cell)

    def test_training_never_touches_test_documents(self, splits, monkeypatch):
        seen_ids = set()
        original = training_module.fit

        def spy(kind, train_docs, validation_docs, config=None, pretrained=None):
            seen_ids.update(d.id for d in train_docs)
            seen_ids.update(d.id for d in validation_docs)
            return original(kind, train_docs, validation_docs, config, pretrained)

        import controkit.experiments as experiments_module

        monkeypatch.setattr(experiments_module, "fit", spy)
        external = splits["test"]
        run_baseline_comparison(splits, external, ("tfidf",), FAST_CFG,
                                seed=12, n_resamples=20)
        assert seen_ids
        assert not seen_ids & {d.id for d in external}


class TestRunExperiment:
    def _write_split_dir(self, path, splits):
        os.makedirs(path, exist_ok=True)
        for name in ("train", "validation", "test"):
            write_documents(os.path.join(path, f"{name}.jsonl"), splits[name])

    def test_comparison_end_to_end_and_determinism(self, splits, tmp_path):
        data_dir = tmp_path / "data"
        self._write_split_dir(data_dir, splits)
        external = tmp_path / "external.jsonl"
        write_documents(external, splits["test"])
        out_a = tmp_path / "out_a"
        out_b = tmp_path / "out_b"
        spec = {
            "kind": "comparison",
            "datasets": {"train_dir": str(data_dir), "external_test": str(external)},
            "models": ["tfidf", "lm"],
            "config": FAST_CFG,
            "seed": 5,
            "n_resamples": 40,
        }
        run_experiment(ExperimentSpec.from_json({**spec, "out_dir": str(out_a)}))
        run_experiment(ExperimentSpec.from_json({**spec, "out_dir": str(out_b)}))
        report_a = (out_a / "report.json").read_bytes()
        report_b = (out_b / "report.json").read_bytes()
        assert report_a == report_b  # byte-identical rerun
        payload = json.loads(report_a)
        assert payload["kind"] == "comparison"
        assert payload["master_seed"] == 5
        assert set(payload["dataset_fingerprints"]) == {"train_dir", "external_test"}
        table = (out_a / "comparison.txt").read_text()
        assert table.startswith("Model comparison\n") and "\nBootstrap intervals\n" in table
        assert render_report(payload) == table
        assert (out_a / "roc_tfidf.csv").read_text().startswith("fpr,tpr")

    def test_temporal_spec_layout(self, splits, tmp_path):
        for year_dir in ("y2009", "y2018"):
            self._write_split_dir(tmp_path / year_dir, splits)
        out = tmp_path / "out"
        spec = ExperimentSpec.from_json({
            "kind": "temporal",
            "datasets": {"train_year_dir": str(tmp_path / "y2009"),
                         "test_year_dir": str(tmp_path / "y2018")},
            "models": ["tfidf"],
            "config": FAST_CFG,
            "seed": 1,
            "n_resamples": 20,
            "out_dir": str(out),
        })
        payload = run_experiment(spec)
        assert "delta" in payload["report"]
        table = (out / "temporal.txt").read_text()
        assert "'18/'18" in table and "Δ" in table

    def test_agreement_spec(self, splits, tmp_path):
        self._write_split_dir(tmp_path / "data", splits)
        write_documents(tmp_path / "annotated.jsonl", splits["test"][:20])
        rng = np.random.default_rng(3)
        from controkit.corpus import AnnotationRecord

        annotations = [
            AnnotationRecord(d.id, [float(v) for v in rng.integers(1, 5, size=4)])
            for d in splits["test"][:20]
        ]
        write_annotations(tmp_path / "ann.jsonl", annotations)
        out = tmp_path / "out"
        payload = run_experiment(ExperimentSpec.from_json({
            "kind": "agreement",
            "datasets": {"train_dir": str(tmp_path / "data"),
                         "test": str(tmp_path / "annotated.jsonl"),
                         "annotations": str(tmp_path / "ann.jsonl")},
            "models": ["tfidf"],
            "config": FAST_CFG,
            "seed": 2,
            "out_dir": str(out),
        }))
        assert payload["report"]["tfidf"]["n"] == 20
        assert (out / "agreement.txt").read_text().splitlines()[1].startswith("Model")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown experiment kind"):
            run_experiment(ExperimentSpec(kind="nope", out_dir=str(tmp_path)))

    def test_missing_dataset_role_rejected(self, tmp_path, monkeypatch):
        # refused when the spec is built: no dataset is read and out_dir is not made
        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("controkit.experiments.read_documents", no_read)
        out = tmp_path / "out"
        for kind, experiment in EXPERIMENTS.items():
            for role in experiment.roles:
                datasets = {r: str(tmp_path / r) for r in experiment.roles if r != role}
                with pytest.raises(UsageError, match=re.escape(f"datasets[{role!r}]")):
                    run_experiment(ExperimentSpec(kind=kind, datasets=datasets,
                                                  out_dir=str(out)))
        assert not out.exists()

    def test_cli_kind_choices_are_the_registry(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        (kind,) = [a for a in commands.choices["experiment"]._actions if a.dest == "kind"]
        assert tuple(kind.choices) == tuple(EXPERIMENTS)

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(UsageError, match="unknown experiment spec"):
            ExperimentSpec.from_json({"kind": "comparison", "bogus": 1})
