"""Deterministic mini-world driving the table-layout golden tests.

Builds fixture datasets with pinned seeds, runs the real CLI commands on
them, and collects every emitted table. Regenerate the committed goldens
after an intentional layout change with:

    python tests/golden_world.py --write
"""

import json
import os
import sys
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


def build_golden_tables(tmp: Path) -> dict[str, str]:
    from controkit.cli import main
    from controkit.corpus import AnnotationRecord, write_annotations, write_documents, write_seeds
    from controkit.embeddings import write_w2v
    from controkit.fixture_wiki import random_wiki
    from controkit.synthetic import make_drift_corpus, make_separable_corpus, split_simple

    from boilerplate import make_boilerplate_corpus

    tmp = Path(tmp)
    tables: dict[str, str] = {}
    lexical_cfg = {"epochs": 1, "vocab_min_freq": 1, "calibrate": True}

    def write_split_dir(path, splits):
        os.makedirs(path, exist_ok=True)
        for name in ("train", "validation", "test"):
            write_documents(os.path.join(path, f"{name}.jsonl"), splits[name])

    # --- dataset statistics table (crawl + split) ---
    wiki, seeds = random_wiki(13, n_seed_pages=4)
    (tmp / "wiki.json").write_text(json.dumps(wiki_spec_json(wiki)))
    write_seeds(tmp / "seeds.jsonl", seeds)
    assert main([
        "crawl", "--seeds", str(tmp / "seeds.jsonl"),
        "--fixture-server", str(tmp / "wiki.json"),
        "--out", str(tmp / "dataset.jsonl"),
        "--seeds-out", str(tmp / "all_seeds.jsonl"),
        "--negatives", "2", "--snapshot-year", "2018", "--seed", "0",
    ]) == 0
    assert main([
        "split", "--data", str(tmp / "dataset.jsonl"),
        "--edges", str(tmp / "dataset.jsonl.edges.jsonl"),
        "--seeds", str(tmp / "all_seeds.jsonl"),
        "--out-dir", str(tmp / "splits"),
        "--train", "4", "--validation", "1", "--test", "1", "--seed", "3",
    ]) == 0
    tables["split_stats.txt"] = (tmp / "splits" / "stats.txt").read_text()

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
    tables["temporal.txt"] = (tmp / "exp_temporal" / "temporal.txt").read_text()

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
    tables["topic.txt"] = (tmp / "exp_topic" / "topic.txt").read_text()

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
    tables["domain.txt"] = (tmp / "exp_domain" / "domain.txt").read_text()

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
    tables["agreement.txt"] = (tmp / "exp_agree" / "agreement.txt").read_text()

    return tables


if __name__ == "__main__":
    import tempfile

    if "--write" not in sys.argv:
        print("usage: python tests/golden_world.py --write", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        tables = build_golden_tables(Path(tmp))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}")
