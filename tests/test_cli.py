import hashlib
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from controkit.checkpoint import load_checkpoint, save_checkpoint
from controkit.cli import main
from controkit.corpus import (
    CONTROVERSIAL,
    Seed,
    read_documents,
    read_edges,
    write_documents,
    write_seeds,
)
from controkit.fixture_wiki import FixturePage, FixtureWiki, random_wiki
from controkit.models import TrainConfig
from controkit.synthetic import make_separable_corpus, split_simple


def wiki_spec_json(wiki):
    return {
        "pages": [
            {
                "url": p.url, "title": p.title, "paragraphs": p.paragraphs,
                "see_also": p.see_also, "references": p.references,
                "external_links": p.external_links, "body_links": p.body_links,
            }
            for p in wiki.pages.values()
        ],
        "random_pool": wiki.random_pool,
        "robots": wiki.robots,
        "random_endpoint": wiki.random_endpoint,
    }


@pytest.fixture(scope="module")
def crawl_artifacts(tmp_path_factory):
    """Run `crawl` then `split` once against a fixture wiki."""
    tmp = tmp_path_factory.mktemp("cli_crawl")
    wiki, seeds = random_wiki(13, n_seed_pages=4)
    with open(tmp / "wiki.json", "w") as f:
        json.dump(wiki_spec_json(wiki), f)
    write_seeds(tmp / "seeds.jsonl", seeds)
    code = main([
        "crawl", "--seeds", str(tmp / "seeds.jsonl"),
        "--fixture-server", str(tmp / "wiki.json"),
        "--out", str(tmp / "dataset.jsonl"),
        "--seeds-out", str(tmp / "all_seeds.jsonl"),
        "--negatives", "2", "--snapshot-year", "2018",
    ])
    assert code == 0
    code = main([
        "split", "--data", str(tmp / "dataset.jsonl"),
        "--edges", str(tmp / "dataset.jsonl.edges.jsonl"),
        "--seeds", str(tmp / "all_seeds.jsonl"),
        "--out-dir", str(tmp / "splits"),
        "--train", "4", "--validation", "1", "--test", "1", "--seed", "3",
    ])
    assert code == 0
    return tmp


class TestCrawlAndSplit:
    def test_dataset_and_edges_written(self, crawl_artifacts):
        tmp = crawl_artifacts
        docs = read_documents(tmp / "dataset.jsonl")
        edges = read_edges(tmp / "dataset.jsonl.edges.jsonl")
        assert docs and edges
        assert all(d.hop <= 2 for d in docs)
        assert all(d.label in ("controversial", "non-controversial") for d in docs)

    def test_split_outputs(self, crawl_artifacts):
        tmp = crawl_artifacts
        for name in ("train", "validation", "test"):
            assert (tmp / "splits" / f"{name}.jsonl").exists()
        stats = json.loads((tmp / "splits" / "stats.json").read_text())
        assert set(stats["splits"]) == {"train", "validation", "test"}
        table = (tmp / "splits" / "stats.txt").read_text()
        for column in ("Set", "Seeds", "Total", "Controversial", "General Web"):
            assert column in table

    def test_failure_file_lists_dead_and_disallowed_urls(self, tmp_path, capsys):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/seed", title="seed",
                             paragraphs=["A disputed seed page."],
                             see_also=["http://wiki.test/gone", "http://wiki.test/private/x"]))
        wiki.add(FixturePage(url="http://wiki.test/private/x", title="x"))
        wiki.add(FixturePage(url="http://wiki.test/r0", title="r0",
                             paragraphs=["A quiet random page."],
                             references=["http://wiki.test/r0-gone"]))
        wiki.robots["wiki.test"] = "User-agent: *\nDisallow: /private\n"
        # The server hands out the pool in order: the first draw redirects
        # to a page that does not exist, the second to r0.
        wiki.random_pool = ["http://wiki.test/vanished", "http://wiki.test/r0"]
        (tmp_path / "wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
        write_seeds(tmp_path / "seeds.jsonl",
                    [Seed("http://wiki.test/seed", "t", CONTROVERSIAL)])
        out = tmp_path / "dataset.jsonl"
        code = main(["crawl", "--seeds", str(tmp_path / "seeds.jsonl"),
                     "--fixture-server", str(tmp_path / "wiki.json"),
                     "--out", str(out), "--negatives", "1"])
        assert code == 0
        lines = (tmp_path / "dataset.jsonl.failures.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"url": "http://wiki.test/gone", "reason": "HTTP 404"},
            {"url": "http://wiki.test/private/x", "reason": "disallowed by robots.txt"},
            {"url": "http://wiki.test/vanished", "reason": "HTTP 404"},
            {"url": "http://wiki.test/r0-gone", "reason": "HTTP 404"},
        ]
        assert {d.url for d in read_documents(out)} == {"http://wiki.test/seed",
                                                         "http://wiki.test/r0"}
        assert ("4 failures (HTTP 404: 3, disallowed by robots.txt: 1)"
                in capsys.readouterr().out)

    def test_environment_proxy_is_ignored(self, tmp_path, monkeypatch):
        # the environment names a proxy on a closed local port; a fixture
        # crawl talks to the fixture server alone and stores every page
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            proxy = f"http://127.0.0.1:{closed.getsockname()[1]}"
        for name in ("HTTP_PROXY", "HTTPS_PROXY"):
            monkeypatch.setenv(name, proxy)
        for name in ("NO_PROXY", "no_proxy", "http_proxy", "https_proxy"):
            monkeypatch.delenv(name, raising=False)
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/seed", title="seed",
                             paragraphs=["A disputed seed page."],
                             see_also=["http://wiki.test/a"],
                             references=["http://ext.example/b", "http://wiki.test/gone"]))
        wiki.add(FixturePage(url="http://wiki.test/a", title="a", paragraphs=["Linked."]))
        wiki.add(FixturePage(url="http://ext.example/b", title="b", paragraphs=["Web."]))
        wiki.add(FixturePage(url="http://wiki.test/r0", title="r0", paragraphs=["Quiet."]))
        wiki.random_pool = ["http://wiki.test/r0"]
        (tmp_path / "wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
        write_seeds(tmp_path / "seeds.jsonl",
                    [Seed("http://wiki.test/seed", "t", CONTROVERSIAL)])
        out = tmp_path / "dataset.jsonl"
        code = main(["crawl", "--seeds", str(tmp_path / "seeds.jsonl"),
                     "--fixture-server", str(tmp_path / "wiki.json"),
                     "--out", str(out), "--negatives", "1"])
        assert code == 0
        assert {d.url for d in read_documents(out)} == {
            "http://wiki.test/seed", "http://wiki.test/a", "http://ext.example/b",
            "http://wiki.test/r0"}
        lines = (tmp_path / "dataset.jsonl.failures.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"url": "http://wiki.test/gone", "reason": "HTTP 404"}]

    def test_dead_link_of_seed_and_negative_is_one_failure(self, tmp_path, capsys):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/seed", title="seed",
                             paragraphs=["A disputed seed page."],
                             see_also=["http://wiki.test/gone"]))
        wiki.add(FixturePage(url="http://wiki.test/r0", title="r0", paragraphs=["Quiet."],
                             see_also=["http://wiki.test/gone"]))
        wiki.random_pool = ["http://wiki.test/r0"]
        (tmp_path / "wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
        write_seeds(tmp_path / "seeds.jsonl",
                    [Seed("http://wiki.test/seed", "t", CONTROVERSIAL)])
        out = tmp_path / "dataset.jsonl"
        assert main(["crawl", "--seeds", str(tmp_path / "seeds.jsonl"),
                     "--fixture-server", str(tmp_path / "wiki.json"),
                     "--out", str(out), "--negatives", "1"]) == 0
        assert {d.url for d in read_documents(out)} == {"http://wiki.test/seed",
                                                         "http://wiki.test/r0"}
        lines = (tmp_path / "dataset.jsonl.failures.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"url": "http://wiki.test/gone", "reason": "HTTP 404"}]
        assert "1 failures (HTTP 404: 1)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    splits = split_simple(make_separable_corpus(n_docs=160, seed=91), seed=92)
    data_dir = tmp / "data"
    os.makedirs(data_dir)
    for name in ("train", "validation", "test"):
        write_documents(data_dir / f"{name}.jsonl", splits[name])
    config = {"epochs": 1, "vocab_min_freq": 1, "calibrate": True}
    with open(tmp / "config.json", "w") as f:
        json.dump(config, f)
    for kind in ("tfidf", "lm"):
        code = main([
            "train", "--model", kind, "--config", str(tmp / "config.json"),
            "--data", str(data_dir), "--out", str(tmp / f"{kind}.ctrv"), "--seed", "4",
        ])
        assert code == 0
    return tmp, data_dir


class TestTrainEvalReport:
    def test_checkpoint_and_log_written(self, trained):
        tmp, _ = trained
        assert (tmp / "tfidf.ctrv").exists()
        log = json.loads((tmp / "tfidf.ctrv.log.json").read_text())
        assert log["model"] == "tfidf"
        assert log["diverged"] is False

    def test_eval_writes_report(self, trained, capsys):
        tmp, data_dir = trained
        code = main([
            "eval", "--checkpoint", str(tmp / "tfidf.ctrv"),
            "--data", str(data_dir / "test.jsonl"),
            "--out", str(tmp / "report.json"), "--n-resamples", "50", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Precision" in out and "AUC" in out
        payload = json.loads((tmp / "report.json").read_text())
        assert payload["report"]["rows"][0]["model"] == "tfidf"

    def test_report_rerenders_table(self, trained, capsys):
        tmp, _ = trained
        code = main(["report", "--in", str(tmp / "report.json"), "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tfidf" in out and "Precision" in out

    def test_report_prints_what_eval_printed(self, trained, tmp_path, capsys):
        tmp, data_dir = trained
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(tmp / "lm.ctrv"),
                     "--data", str(data_dir / "test.jsonl"), "--out", str(out),
                     "--n-resamples", "20", "--seed", "2"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(out.read_text())["kind"] == "eval"
        assert main(["report", "--in", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.startswith(f"Evaluation of {tmp / 'lm.ctrv'}\nModel  Precision")
        assert printed == table + f"report -> {out}\n"

    def test_report_json_format(self, trained, capsys):
        tmp, _ = trained
        code = main(["report", "--in", str(tmp / "report.json"), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"]["n_resamples"] == 50


class TestLogLevel:
    def test_info_shows_early_stop(self, trained, tmp_path, caplog):
        _, data_dir = trained
        # learning rate 0 keeps validation F1 flat, so patience 0 stops at epoch 1
        config = {"epochs": 3, "patience": 0, "learning_rate": 0.0, "vocab_min_freq": 1,
                  "embed_dim": 8, "n_filters": 4, "window_sizes": [2], "max_tokens": 40}
        (tmp_path / "config.json").write_text(json.dumps(config))

        def train(*level):
            return main([*level, "train", "--model", "cnn", "--config",
                         str(tmp_path / "config.json"), "--data", str(data_dir),
                         "--out", str(tmp_path / "cnn.ctrv"), "--seed", "2"])

        try:
            assert train() == 0
            assert "early stop" not in caplog.text
            assert train("--log-level", "info") == 0
        finally:
            logging.getLogger().setLevel(logging.WARNING)
        assert "early stop at epoch 1" in caplog.text


class TestExperimentCommand:
    def test_temporal_via_cli(self, trained, capsys):
        tmp, data_dir = trained
        spec = {
            "kind": "temporal",
            "datasets": {"train_year_dir": str(data_dir), "test_year_dir": str(data_dir)},
            "models": ["tfidf", "lm"],
            "config": {"epochs": 1, "vocab_min_freq": 1},
            "n_resamples": 20,
        }
        with open(tmp / "spec.json", "w") as f:
            json.dump(spec, f)
        code = main([
            "experiment", "--kind", "temporal", "--spec", str(tmp / "spec.json"),
            "--out-dir", str(tmp / "exp"), "--seed", "6",
        ])
        assert code == 0
        payload = json.loads((tmp / "exp" / "report.json").read_text())
        assert payload["master_seed"] == 6

    def test_topic_report_rerenders_averaged_table(self, tmp_path, capsys):
        write_documents(tmp_path / "topics.jsonl", make_separable_corpus(n_docs=150, seed=44))
        spec = {
            "kind": "topic",
            "datasets": {"dataset": str(tmp_path / "topics.jsonl")},
            "models": ["tfidf", "lm"],
            "config": {"epochs": 1, "vocab_min_freq": 1},
            "k_topics": 3,
            "n_resamples": 20,
        }
        with open(tmp_path / "spec.json", "w") as f:
            json.dump(spec, f)
        assert main(["experiment", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(tmp_path / "exp"), "--seed", "10"]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(tmp_path / "exp" / "report.json")]) == 0
        table = (tmp_path / "exp" / "topic.txt").read_text()
        assert table.startswith("Cross-topic")
        assert capsys.readouterr().out == table


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ctrv"),
                     "--data", str(tmp_path / "nope.jsonl")])
        assert code == 3

    def test_bad_dataset_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n')
        (tmp_path / "train.jsonl").write_text('{"id": "x"}\n')
        code = main(["split", "--data", str(bad), "--edges", str(bad),
                     "--seeds", str(bad), "--out-dir", str(tmp_path / "o"),
                     "--train", "1", "--validation", "0", "--test", "0"])
        assert code == 3

    @pytest.mark.parametrize("role, line, message", [
        ("seeds", {"url": 5, "topic": None, "polarity": CONTROVERSIAL}, "bad url 5"),
        ("edges", {"src": 1, "dst": "http://wiki.test/p1", "link_class": "see-also"},
         "bad src 1"),
        ("seeds", "http://wiki.test/p1", "expected a JSON object, got str"),
    ], ids=["seed-url-5", "edge-src-1", "string-line"])
    def test_malformed_split_input_is_data_error(self, crawl_artifacts, tmp_path, capsys,
                                                 role, line, message):
        inputs = {"data": crawl_artifacts / "dataset.jsonl",
                  "edges": crawl_artifacts / "dataset.jsonl.edges.jsonl",
                  "seeds": crawl_artifacts / "all_seeds.jsonl"}
        lines = inputs[role].read_text().splitlines() + [json.dumps(line)]
        inputs[role] = tmp_path / f"{role}.jsonl"
        inputs[role].write_text("\n".join(lines) + "\n")
        code = main(["split", "--data", str(inputs["data"]), "--edges", str(inputs["edges"]),
                     "--seeds", str(inputs["seeds"]), "--out-dir", str(tmp_path / "o"),
                     "--train", "1", "--validation", "0", "--test", "0"])
        assert code == 3
        assert f"{message} (line {len(lines)})" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_document_text_not_a_string_is_data_error(self, trained, tmp_path, capsys):
        _, data_dir = trained
        shutil.copytree(data_dir, tmp_path / "data")
        lines = (tmp_path / "data" / "train.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "text": 5})
        (tmp_path / "data" / "train.jsonl").write_text("\n".join(lines) + "\n")
        code = main(["train", "--model", "tfidf", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "m.ctrv")])
        assert code == 3
        assert "bad text 5 (line 2)" in capsys.readouterr().err
        assert not (tmp_path / "m.ctrv").exists()

    def test_annotation_scores_not_numbers_is_data_error(self, trained, tmp_path, capsys):
        _, data_dir = trained
        (tmp_path / "ann.jsonl").write_text('{"id": "d0", "scores": [1, 2, 3]}\n'
                                            '{"id": "d1", "scores": ["x"]}\n')
        spec = {"kind": "agreement", "models": ["tfidf"],
                "datasets": {"train_dir": str(data_dir), "test": str(data_dir / "test.jsonl"),
                             "annotations": str(tmp_path / "ann.jsonl")}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = main(["experiment", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(tmp_path / "exp")])
        assert code == 3
        assert "bad scores ['x'] (line 2)" in capsys.readouterr().err

    def test_usage_error_is_exit_2(self, tmp_path):
        # single-class corpus cannot train the margin model
        docs = [d for d in make_separable_corpus(n_docs=20, seed=1)
                if d.label == "controversial"]
        data_dir = tmp_path / "data"
        os.makedirs(data_dir)
        write_documents(data_dir / "train.jsonl", docs)
        write_documents(data_dir / "validation.jsonl", docs)
        code = main(["train", "--model", "tfidf", "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ctrv")])
        assert code == 2

    def test_one_class_validation_with_calibration_is_exit_2(self, tmp_path, capsys):
        splits = split_simple(make_separable_corpus(n_docs=60, seed=93), seed=94)
        data_dir = tmp_path / "data"
        os.makedirs(data_dir)
        write_documents(data_dir / "train.jsonl", splits["train"])
        write_documents(data_dir / "validation.jsonl",
                        [d for d in splits["validation"] if d.label == CONTROVERSIAL])
        (tmp_path / "config.json").write_text(json.dumps({"epochs": 1, "calibrate": True}))
        out = tmp_path / "han.ctrv"
        code = main(["train", "--model", "han", "--config", str(tmp_path / "config.json"),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 2
        assert "needs both classes in validation" in capsys.readouterr().err
        assert not out.exists() and not os.path.exists(f"{out}.log.json")

    def test_empty_validation_with_calibration_is_exit_2(self, trained, tmp_path, capsys):
        _, data_dir = trained
        split_dir = tmp_path / "data"
        os.makedirs(split_dir)
        shutil.copy(data_dir / "train.jsonl", split_dir / "train.jsonl")
        (split_dir / "validation.jsonl").write_text("")
        (tmp_path / "config.json").write_text(json.dumps({"calibrate": True}))
        out = tmp_path / "tfidf.ctrv"
        code = main(["train", "--model", "tfidf", "--config", str(tmp_path / "config.json"),
                     "--data", str(split_dir), "--out", str(out)])
        assert code == 2
        assert "needs both classes in validation" in capsys.readouterr().err
        assert not out.exists() and not os.path.exists(f"{out}.log.json")

    @pytest.mark.parametrize("model, config", [
        ("cnn", {"batch_size": 0}),
        ("cnn", {"batch_size": "8"}),
        ("han", {"batch_size": True}),
        ("cnn", {"window_sizes": []}),
        ("cnn", {"window_sizes": [2, 0]}),
        ("han", {"embed_dim": 0}),
        ("han", {"hidden_dim": 0}),
        ("cnn", {"n_filters": 0}),
        ("cnn", {"max_tokens": 2.5}),
        ("han", {"max_sentences": 0}),
        ("han", {"max_words_per_sentence": 2.0}),
        ("tfidf", {"vocab_max_size": -5}),
        ("cnn", {"epochs": -1}),
        ("han", {"patience": -1}),
        ("lm", {"vocab_min_freq": -1}),
        ("cnn", {"dropout": 1.0}),
        ("han", {"dropout": -0.1}),
        ("cnn", {"learning_rate": "0.01"}),
        ("cnn", {"learning_rate": -1.0}),
        ("cnn", {"l2": float("nan")}),
        ("cnn", {"l2": "0.001"}),
        ("tfidf", {"tfidf_lr": float("inf")}),
        ("tfidf", {"tfidf_l2": -1e-4}),
        ("tfidf", {"tfidf_epochs": -3}),
        ("lm", {"lm_mu": -1}),
        ("lm", {"lm_mu": 0}),
        ("cnn", {"grad_clip": -1.0}),  # a removed option is an unknown key
        ("cnn", {"grad_clip": 0}),
        ("cnn", {"embeddings_binary": True}),
        ("han", {"seed": "3"}),
        ("han", {"seed": -1}),
        ("cnn", {"seed": 1.5}),
    ], ids=lambda v: v if isinstance(v, str) else "{}={!r}".format(*next(iter(v.items()))))
    def test_config_no_fit_can_run_is_exit_2(self, trained, tmp_path, capsys, model, config):
        _, data_dir = trained
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "m.ctrv"
        code = main(["train", "--model", model, "--config", str(tmp_path / "config.json"),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 2
        key = next(iter(config))
        message = (f"training config {key}" if key in TrainConfig.__dataclass_fields__
                   else f"unknown training config keys: [{key!r}]")
        assert message in capsys.readouterr().err
        assert not out.exists() and not os.path.exists(f"{out}.log.json")

    def test_negative_seed_flag_is_exit_2(self, trained, tmp_path, capsys):
        _, data_dir = trained
        out = tmp_path / "m.ctrv"
        code = main(["train", "--model", "tfidf", "--data", str(data_dir), "--out", str(out),
                     "--seed", "-1"])
        assert code == 2
        assert "training config seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"kind": "nope"},
        {"kind": ["topic"]},
        {"datasets": {}},
        {"datasets": ["topics.jsonl"]},
        {"datasets": {"dataset": 3}},
        {"models": []},
        {"models": "tfidf"},
        {"models": ["tfidf", "tfidf"]},
        {"models": ["bert"]},
        {"n_resamples": 0},
        {"n_resamples": -3},
        {"n_resamples": "20"},
        {"k_topics": 0},
        {"k_topics": 1},
        {"k_topics": -2},
        {"k_topics": "3"},
        {"scale_midpoint": float("nan")},
        {"scale_midpoint": float("inf")},
        {"scale_midpoint": "2.5"},
        {"seed": "1"},
        {"seed": -1},
        {"seed": True},
        {"config": {"epochs": -1}},
        {"config": [["a"]]},
        {"config": {"learning_rates": 0.1}},
    ], ids=lambda v: "{}={!r}".format(*next(iter(v.items()))))
    def test_spec_no_run_can_use_is_exit_2(self, tmp_path, capsys, monkeypatch, override):
        # the base spec runs (TestExperimentCommand); each override alone is refused
        # before any dataset is read or the output directory is made
        from controkit import experiments

        write_documents(tmp_path / "topics.jsonl", make_separable_corpus(n_docs=150, seed=44))
        read = []
        for name in ("read_documents", "dataset_fingerprint"):
            monkeypatch.setattr(experiments, name, read.append)
        spec = {"kind": "topic", "datasets": {"dataset": str(tmp_path / "topics.jsonl")},
                "models": ["tfidf", "lm"], "config": {"epochs": 1, "vocab_min_freq": 1},
                "k_topics": 3, "n_resamples": 20, **override}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out_dir = tmp_path / "exp"
        code = main(["experiment", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert next(iter(override)) in capsys.readouterr().err
        assert not out_dir.exists()
        assert read == []

    @pytest.mark.parametrize("command, content", [
        ("experiment --spec", ["kind"]),
        ("experiment --out-dir exp --spec", ["kind"]),
        ("report --in", []),
        ("train --model tfidf --data data --out m.ctrv --config", [1]),
        ("crawl --seeds seeds.jsonl --out out.jsonl --policy", [1]),
    ], ids=["experiment", "experiment-out-dir", "report", "train", "crawl"])
    def test_json_file_without_an_object_is_data_error(self, tmp_path, capsys, monkeypatch,
                                                       command, content):
        monkeypatch.chdir(tmp_path)
        write_seeds("seeds.jsonl", [Seed(url="http://wiki.test/wiki/A", topic="a",
                                         polarity=CONTROVERSIAL)])
        (tmp_path / "file.json").write_text(json.dumps(content))
        code = main(command.split() + ["file.json"])
        assert code == 3
        assert "file.json: expected a JSON object, got list" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["file.json", "seeds.jsonl"]

    @pytest.mark.parametrize("payload", [
        {"report": {"rows": []}},
        {"kind": "nope", "report": {"rows": []}},
        {"kind": ["eval"]},
        {"kind": "temporal", "report": {"within": {"rows": []}, "between": {"rows": []}}},
        {"kind": "split", "splits": {"train": {"seeds": 1}}},
    ], ids=["no-kind", "unknown-kind", "kind-not-a-string", "temporal-without-labels",
            "split-without-counts"])
    def test_report_without_a_table_is_data_error(self, tmp_path, capsys, payload):
        (tmp_path / "report.json").write_text(json.dumps(payload))
        assert main(["report", "--in", str(tmp_path / "report.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("data error: ")
        assert main(["report", "--in", str(tmp_path / "report.json"), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    @pytest.mark.parametrize("policy", [
        {"max_hops": 3},
        {"max_hops": -1},
        {"max_hops": 1.0},
        {"retry_count": -2},
        {"per_host_delay": -1.0},
        {"per_host_delay": float("nan")},
        {"fetch_timeout": 0},
        {"fetch_timeout": -5.0},
        {"max_pages": 0},
        {"link_classes": ["see-also", "body"]},
        {"link_classes": "see-also"},
        {"wikipedia_hosts": "wiki.test"},
        {"wikipedia_hosts": ["wiki.test", ""]},
        {"obey_robots": "no"},
    ], ids=lambda v: "{}={!r}".format(*next(iter(v.items()))))
    def test_policy_no_crawl_can_honour_is_exit_2(self, tmp_path, capsys, monkeypatch, policy):
        # the default policy crawls this wiki (crawl_artifacts); each value
        # alone is refused before the fixture server starts or a file is written
        monkeypatch.chdir(tmp_path)
        wiki, seeds = random_wiki(3, depth=5)
        Path("wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
        write_seeds("seeds.jsonl", seeds)
        Path("policy.json").write_text(json.dumps(policy))
        code = main(["crawl", "--seeds", "seeds.jsonl", "--fixture-server", "wiki.json",
                     "--policy", "policy.json", "--out", "dataset.jsonl"])
        assert code == 2
        assert f"crawl policy {next(iter(policy))}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["policy.json", "seeds.jsonl", "wiki.json"]

    def test_negative_negatives_flag_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        wiki, seeds = random_wiki(3, depth=5)
        Path("wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
        write_seeds("seeds.jsonl", seeds)
        code = main(["crawl", "--seeds", "seeds.jsonl", "--fixture-server", "wiki.json",
                     "--out", "dataset.jsonl", "--negatives", "-3"])
        assert code == 2
        assert "--negatives" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["seeds.jsonl", "wiki.json"]

    @pytest.mark.parametrize("name", ["train", "validation", "test"])
    def test_negative_split_count_is_exit_2(self, crawl_artifacts, tmp_path, capsys, name):
        # the other two counts fit the seeds with room to spare
        tmp = crawl_artifacts
        counts = {"train": "2", "validation": "2", "test": "1", name: "-1"}
        out_dir = tmp_path / "splits"
        code = main(["split", "--data", str(tmp / "dataset.jsonl"),
                     "--edges", str(tmp / "dataset.jsonl.edges.jsonl"),
                     "--seeds", str(tmp / "all_seeds.jsonl"), "--out-dir", str(out_dir),
                     *(arg for n, c in counts.items() for arg in (f"--{n}", c))])
        assert code == 2
        assert f"{name} seed count" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("n_resamples", ["0", "-5"])
    def test_eval_without_resamples_is_exit_2(self, trained, tmp_path, capsys, n_resamples):
        tmp, data_dir = trained
        out = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(tmp / "tfidf.ctrv"),
                     "--data", str(data_dir / "test.jsonl"), "--out", str(out),
                     "--n-resamples", n_resamples])
        assert code == 2
        assert "--n-resamples" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_lexicon_file_is_data_error(self, trained, tmp_path):
        _, data_dir = trained
        (tmp_path / "lexicon.txt").write_text("\n")
        config = {"lm_lexicon_path": str(tmp_path / "lexicon.txt")}
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = main(["train", "--model", "lm", "--config", str(tmp_path / "config.json"),
                     "--data", str(data_dir), "--out", str(tmp_path / "lm.ctrv")])
        assert code == 3

    def test_impossible_embeddings_header_is_data_error(self, trained, tmp_path, capsys):
        _, data_dir = trained
        (tmp_path / "vectors.bin").write_bytes(b"1000000000 300\nabcde")
        config = {"embeddings_path": str(tmp_path / "vectors.bin"), "embed_dim": 300}
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = main(["train", "--model", "cnn", "--config", str(tmp_path / "config.json"),
                     "--data", str(data_dir), "--out", str(tmp_path / "cnn.ctrv")])
        assert code == 3
        assert "header promises 1000000000 records" in capsys.readouterr().err

    def test_malformed_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        tmp, data_dir = trained
        raw = (tmp / "tfidf.ctrv").read_bytes()
        bad = tmp_path / "bad.ctrv"
        bad.write_bytes(raw.replace(b'"n_docs"', b'"n_dacs"', 1))
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir / "test.jsonl")])
        assert code == 3
        assert "n_docs" in capsys.readouterr().err

    def test_malformed_checkpoint_header_is_data_error(self, trained, tmp_path, capsys):
        tmp, data_dir = trained
        raw = (tmp / "tfidf.ctrv").read_bytes()
        bad = tmp_path / "bad.ctrv"
        # the first parameter entry loses its name; the header keeps its length
        bad.write_bytes(raw.replace(b'{"name": ', b'{"nome": ', 1))
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir / "test.jsonl")])
        assert code == 3
        assert "needs a name" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,tamper", [
        pytest.param("lm", "pos_counts", lambda v: ["x", *v[1:]], id="pos_counts-string"),
        pytest.param("lm", "mu", str, id="mu-string"),
        pytest.param("tfidf", "doc_freq", lambda v: ["x", *v[1:]], id="doc_freq-string"),
        pytest.param("tfidf", "n_docs", str, id="n_docs-string"),
        pytest.param("lm", "pos_counts", lambda v: [-1, *v[1:]], id="pos_counts-negative"),
        pytest.param("lm", "mu", lambda v: -5.0, id="mu-negative"),
        pytest.param("tfidf", "doc_freq", lambda v: [-7, *v[1:]], id="doc_freq-negative"),
        pytest.param("tfidf", "n_docs", lambda v: 0, id="n_docs-below-doc_freq"),
    ])
    def test_tampered_count_tables_are_data_errors(self, trained, tmp_path, capsys, kind, key,
                                                  tamper):
        tmp, data_dir = trained
        ckpt = load_checkpoint(tmp / f"{kind}.ctrv")
        ckpt.extra[key] = tamper(ckpt.extra[key])
        bad = tmp_path / "bad.ctrv"
        save_checkpoint(bad, ckpt.kind, ckpt.hyperparameters, ckpt.arrays,
                        vocabulary=ckpt.vocabulary, extra=ckpt.extra)
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir / "test.jsonl"),
                     "--n-resamples", "10"])
        assert code == 3
        assert key in capsys.readouterr().err

    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "transformer"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "controkit" in capsys.readouterr().out


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cnn_checkpoint_does_not_depend_on_the_blas_environment(tmp_path):
    """The package pins BLAS to one thread unless the caller sets a count. A
    CNN fit at embed 300 with 128 filters, whose products a multi-threaded
    OpenBLAS splits between threads, writes the same checkpoint with the
    variables unset as with ``OPENBLAS_NUM_THREADS=1``. One training
    document is enough for the unpinned bits to differ on two cores."""
    docs = make_separable_corpus(n_docs=2, seed=21)
    data_dir = tmp_path / "data"
    os.makedirs(data_dir)
    write_documents(data_dir / "train.jsonl", docs[:1])
    write_documents(data_dir / "validation.jsonl", docs[1:])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "embed_dim": 300, "n_filters": 128, "seed": 21}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for pin in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env.update(pin, PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p))
        out = tmp_path / f"cnn{len(digests)}.ctrv"
        result = subprocess.run([sys.executable, "-m", "controkit.cli", "train", "--model", "cnn",
                                 "--config", str(config), "--data", str(data_dir),
                                 "--out", str(out)], env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
