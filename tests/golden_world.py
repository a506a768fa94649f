"""Deterministic mini-world driving the table-layout golden tests.

Builds fixture datasets with pinned seeds, runs the real CLI commands on
them, and collects every emitted table together with what ``controkit
report --in`` prints for the JSON written beside it. Print a unified diff
for each output that differs from its golden (exit status 1 if any does)
with:

    PYTHONPATH=src python tests/golden_world.py

and regenerate the committed goldens after an intentional layout change
with:

    PYTHONPATH=src python tests/golden_world.py --write
"""

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def wiki_spec_json(wiki):
    return {
        "pages": [
            {"url": p.url, "title": p.title, "paragraphs": p.paragraphs,
             "see_also": p.see_also, "references": p.references,
             "external_links": p.external_links, "body_links": p.body_links}
            for p in wiki.pages.values()
        ],
        "random_pool": wiki.random_pool,
        "robots": wiki.robots,
        "random_endpoint": wiki.random_endpoint,
    }


def build_golden_tables(tmp: Path) -> list[tuple[str, str, str]]:
    """(golden file name, what printed it, text) for each table a run wrote
    and for each ``report --in`` of the JSON it wrote beside the table."""
    from controkit.cli import main
    from controkit.corpus import AnnotationRecord, write_annotations, write_documents, write_seeds
    from controkit.embeddings import write_w2v
    from controkit.fixture_wiki import random_wiki
    from controkit.synthetic import make_drift_corpus, make_separable_corpus, split_simple

    from boilerplate import make_boilerplate_corpus

    tmp = Path(tmp)
    outputs: list[tuple[str, str, str]] = []
    lexical_cfg = {"epochs": 1, "vocab_min_freq": 1, "calibrate": True}

    def write_split_dir(path, splits):
        os.makedirs(path, exist_ok=True)
        for name in ("train", "validation", "test"):
            write_documents(os.path.join(path, f"{name}.jsonl"), splits[name])

    def collect(golden, out_dir, table, payload="report.json"):
        outputs.append((golden, f"{out_dir}/{table}", (tmp / out_dir / table).read_text()))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["report", "--in", str(tmp / out_dir / payload)]) == 0
        outputs.append((golden, f"report --in {out_dir}/{payload}", printed.getvalue()))

    # --- dataset statistics table (crawl + split) ---
    wiki, seeds = random_wiki(13, n_seed_pages=4)
    (tmp / "wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
    write_seeds(tmp / "seeds.jsonl", seeds)
    assert main([
        "crawl", "--seeds", str(tmp / "seeds.jsonl"),
        "--fixture-server", str(tmp / "wiki.json"),
        "--out", str(tmp / "dataset.jsonl"),
        "--seeds-out", str(tmp / "all_seeds.jsonl"),
        "--negatives", "2", "--snapshot-year", "2018",
    ]) == 0
    assert main([
        "split", "--data", str(tmp / "dataset.jsonl"),
        "--edges", str(tmp / "dataset.jsonl.edges.jsonl"),
        "--seeds", str(tmp / "all_seeds.jsonl"),
        "--out-dir", str(tmp / "splits"),
        "--train", "4", "--validation", "1", "--test", "1", "--seed", "3",
    ]) == 0
    collect("split_stats.txt", "splits", "stats.txt", "stats.json")

    # --- temporal table on the drift corpus (lexical models) ---
    old_docs, new_docs, (words, vectors) = make_drift_corpus(
        n_docs_per_year=160, seed=41, embed_dim=8)
    write_w2v(tmp / "drift.w2v", words, vectors, binary=True)
    write_split_dir(tmp / "y2009", split_simple(old_docs, seed=42))
    write_split_dir(tmp / "y2018", split_simple(new_docs, seed=43))
    (tmp / "temporal_spec.json").write_text(json.dumps({
        "kind": "temporal",
        "datasets": {"train_year_dir": str(tmp / "y2009"),
                     "test_year_dir": str(tmp / "y2018")},
        "models": ["tfidf", "lm"],
        "config": lexical_cfg,
        "n_resamples": 30,
    }))
    assert main(["experiment", "--spec", str(tmp / "temporal_spec.json"),
                 "--out-dir", str(tmp / "exp_temporal"), "--seed", "9"]) == 0
    collect("temporal.txt", "exp_temporal", "temporal.txt")

    # --- topic cross-validation table ---
    sep = make_separable_corpus(n_docs=150, seed=44)
    write_documents(tmp / "topics.jsonl", sep)
    (tmp / "topic_spec.json").write_text(json.dumps({
        "kind": "topic",
        "datasets": {"dataset": str(tmp / "topics.jsonl")},
        "models": ["tfidf", "lm"],
        "config": lexical_cfg,
        "k_topics": 3,
        "n_resamples": 20,
    }))
    assert main(["experiment", "--spec", str(tmp / "topic_spec.json"),
                 "--out-dir", str(tmp / "exp_topic"), "--seed", "10"]) == 0
    collect("topic.txt", "exp_topic", "topic.txt")

    # --- domain table ---
    write_split_dir(tmp / "domain_data", make_boilerplate_corpus(n_docs=160, seed=45))
    (tmp / "domain_spec.json").write_text(json.dumps({
        "kind": "domain",
        "datasets": {"train_dir": str(tmp / "domain_data")},
        "models": ["tfidf", "lm"],
        "config": lexical_cfg,
        "n_resamples": 30,
    }))
    assert main(["experiment", "--spec", str(tmp / "domain_spec.json"),
                 "--out-dir", str(tmp / "exp_domain"), "--seed", "11"]) == 0
    collect("domain.txt", "exp_domain", "domain.txt")

    # --- agreement table ---
    splits = split_simple(make_separable_corpus(n_docs=160, seed=46), seed=47)
    write_split_dir(tmp / "agree_data", splits)
    annotated = splits["test"][:24]
    write_documents(tmp / "annotated.jsonl", annotated)
    rng = np.random.default_rng(48)
    write_annotations(tmp / "ann.jsonl", [
        AnnotationRecord(d.id, [float(v) for v in rng.integers(1, 5, size=4)])
        for d in annotated
    ])
    (tmp / "agree_spec.json").write_text(json.dumps({
        "kind": "agreement",
        "datasets": {"train_dir": str(tmp / "agree_data"),
                     "test": str(tmp / "annotated.jsonl"),
                     "annotations": str(tmp / "ann.jsonl")},
        "models": ["tfidf", "lm"],
        "config": lexical_cfg,
        "scale_midpoint": 2.5,
    }))
    assert main(["experiment", "--spec", str(tmp / "agree_spec.json"),
                 "--out-dir", str(tmp / "exp_agree"), "--seed", "12"]) == 0
    collect("agreement.txt", "exp_agree", "agreement.txt")

    return outputs


def diff_report() -> bool:
    """Print a unified diff for each output of a fresh world that differs
    from its golden and a count line; returns whether none differs."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        outputs = build_golden_tables(Path(tmp))
    differing = 0
    for name, source, text in outputs:
        golden = (GOLDEN_DIR / name).read_text()
        if text != golden:
            differing += 1
            print("".join(difflib.unified_diff(golden.splitlines(True), text.splitlines(True),
                                               f"golden/{name}", source)), end="")
    print(f"{differing} of {len(outputs)} outputs differ from their goldens")
    return differing == 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = build_golden_tables(Path(tmp))
        tables: dict[str, str] = {}
        for name, _, text in outputs:
            tables.setdefault(name, text)  # the table file comes before its report --in
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            (GOLDEN_DIR / name).write_text(text)
            print(f"wrote {GOLDEN_DIR / name}")
    elif sys.argv[1:]:
        print("usage: python tests/golden_world.py [--write]", file=sys.stderr)
        sys.exit(2)
    else:
        sys.exit(0 if diff_report() else 1)
