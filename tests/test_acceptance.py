"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:

    pytest tests/test_acceptance.py -v -s

The suite is self-contained (synthetic corpora, local fixture server) and
deterministic; the heaviest test is the end-to-end learnability run, which
trains the CNN and the hierarchical attention model at full reference
hyperparameters on 2,000 documents.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.cli import main as cli_main
from controkit.corpus import write_documents
from controkit.embeddings import EmbeddingTable, read_w2v, write_w2v
from controkit.metrics import (
    PredictionSet,
    auc,
    bootstrap_ci,
    prf,
    spearman,
)
from controkit.models import TrainConfig, fit, load_classifier, predict, save_classifier
from controkit.models.cnn import CnnParams
from controkit.models.han import HanParams, han_forward
from controkit.metrics import prediction_set
from controkit.synthetic import (
    make_drift_corpus,
    make_separable_corpus,
    split_simple,
)
from controkit.textprep import Vocabulary

from golden_world import GOLDEN_DIR, build_golden_tables
from oracles import (
    auc_pairs,
    bootstrap_second,
    prf_confusion,
    ranks_with_ties,
)
from test_crawl import crawl_oracle_check


def record(criterion: int, description: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion:2d}: PASS - {description}")


def pset(scores, hard, true, name="m"):
    return PredictionSet(
        doc_ids=[f"d{i}" for i in range(len(scores))],
        scores=np.asarray(scores, dtype=float),
        hard_labels=np.asarray(hard, dtype=int),
        true_labels=np.asarray(true, dtype=int),
        model_name=name,
    )


# ---------------------------------------------------------------------------
# 1. Metric formula cross-check
# ---------------------------------------------------------------------------

def test_criterion_1_metric_formula_cross_check():
    # integer confusion tables reconstructing P=0.627, R=0.840 and
    # P=0.632, R=0.745 exactly
    cases = [
        (4389, 2611, 836, 0.627, 0.840, 0.718),
        (94168, 54832, 32232, 0.632, 0.745, 0.684),
    ]
    for tp, fp, fn, p_ref, r_ref, f1_ref in cases:
        hard = np.array([1] * (tp + fp) + [0] * fn)
        true = np.array([1] * tp + [0] * fp + [1] * fn)
        result = prf(pset(np.full(len(hard), 0.5), hard, true))
        assert result.precision == pytest.approx(p_ref, abs=1e-12)
        assert result.recall == pytest.approx(r_ref, abs=1e-12)
        assert result.f1 == pytest.approx(f1_ref, abs=1e-3)
    record(1, "harmonic-mean formula reproduces F1 0.718 and 0.684 within 0.001")


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------

def _toy_cnn(seed: int) -> CnnParams:
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(["a", "b", "c", "d", "e"], {})
    emb = EmbeddingTable.random(vocab, 3, rng)
    return CnnParams.random(emb, rng, window_sizes=(2, 3), n_filters=4, max_tokens=400)


def _toy_han(seed: int) -> HanParams:
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(["a", "b", "c", "d", "e"], {})
    emb = EmbeddingTable.random(vocab, 3, rng)
    return HanParams.random(emb, rng, hidden_dim=1, scale=0.5, max_sentences=30,
                            max_words_per_sentence=50)


def test_criterion_2_gradient_suite():
    t0 = time.time()
    two_sentence_doc = [[2, 3, 4], [5, 6, 2]]
    flat_doc = [t for sent in two_sentence_doc for t in sent]
    worst = 0.0
    for seed in range(5):
        cnn = _toy_cnn(seed)
        n_cnn = sum(a.size for a in cnn.named_arrays().values())
        assert n_cnn <= 200
        graph = ad.Graph(np.float64)
        loss = cnn.loss(graph, flat_doc, target=1, mode="train",
                        rng=np.random.default_rng(seed + 100), dropout_rate=0.5, l2=1e-3)
        report = ad.grad_check(graph, loss, step=1e-4, tolerance=1e-4)
        assert report.passed, f"cnn seed {seed}: {report}"
        worst = max(worst, report.max_error)

        han = _toy_han(seed)
        n_han = sum(a.size for a in han.named_arrays().values())
        assert n_han <= 200
        graph = ad.Graph(np.float64)
        loss = han.loss(graph, two_sentence_doc, target=0, mode="train",
                        rng=np.random.default_rng(seed + 200), dropout_rate=0.5, l2=1e-3)
        report = ad.grad_check(graph, loss, step=1e-4, tolerance=1e-4)
        assert report.passed, f"han seed {seed}: {report}"
        worst = max(worst, report.max_error)
    record(2, f"CNN+HAN 64-bit finite-difference checks over 5 seeds, "
              f"worst relative error {worst:.2e} (< 1e-4), {time.time() - t0:.0f}s")


# ---------------------------------------------------------------------------
# 3. Attention/softmax invariants
# ---------------------------------------------------------------------------

def test_criterion_3_attention_invariants():
    params = _toy_han(7)
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_sent = int(rng.integers(1, 6))
        sentences = [rng.integers(2, 7, size=int(rng.integers(1, 8))).tolist()
                     for _ in range(n_sent)]
        _, word_att, sent_att = han_forward(sentences, params)
        assert abs(sent_att.sum() - 1.0) <= 1e-6
        for row in word_att:
            assert abs(row.sum() - 1.0) <= 1e-6
    _, word_att, sent_att = han_forward([[3]], params)
    assert word_att[0][0] == 1.0
    assert sent_att[0] == 1.0
    record(3, "attention distributions sum to 1 +/- 1e-6 over 100 documents; "
              "singleton attention is exactly 1")


# ---------------------------------------------------------------------------
# 4. Oracle equivalence
# ---------------------------------------------------------------------------

def _spearman_fraction_oracle(x, y) -> float:
    """Exact-rational rank correlation, converted to float at the end."""
    rx = [Fraction(r).limit_denominator(2) for r in ranks_with_ties(list(x))]
    ry = [Fraction(r).limit_denominator(2) for r in ranks_with_ties(list(y))]
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return float("nan")
    return float(sxy) / float(np.sqrt(float(sxx) * float(syy)))


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(404)
    n_bootstrap_checked = 0
    for instance in range(1000):
        n = int(rng.integers(2, 201))
        hard = rng.integers(0, 2, size=n)
        true = rng.integers(0, 2, size=n)
        scores = np.round(rng.random(n), 2)
        preds = pset(scores, hard, true)

        got = prf(preds)
        assert (got.precision, got.recall, got.f1) == prf_confusion(hard.tolist(),
                                                                    true.tolist())

        if true.min() != true.max():
            assert auc(scores, true) == auc_pairs(scores.tolist(), true.tolist())

        if n >= 3:
            mine = spearman(scores, true.astype(float))
            exact = _spearman_fraction_oracle(scores, true.astype(float))
            if np.isnan(exact):
                assert np.isnan(mine)
            else:
                assert mine == pytest.approx(exact, abs=1e-12)

        # seeded bootstrap: identical intervals from the second implementation
        n_resamples = 1000 if instance < 5 else 50
        res = bootstrap_ci(preds, "f1", n_resamples=n_resamples, seed=instance)

        def oracle_metric(idx, hard=hard, true=true):
            _, _, f1 = prf_confusion(hard[idx].tolist(), true[idx].tolist())
            return f1

        lo, hi, _ = bootstrap_second(oracle_metric, n, n_resamples, 0.95, seed=instance)
        assert res.lower == lo and res.upper == hi
        n_bootstrap_checked += 1
    record(4, f"prf/auc exact, spearman within 1e-12 of the exact-rational oracle, "
              f"{n_bootstrap_checked} bootstrap intervals identical "
              f"({time.time() - t0:.0f}s for 1000 instances)")


# ---------------------------------------------------------------------------
# 5. End-to-end learnability
# ---------------------------------------------------------------------------

def test_criterion_5_end_to_end_learnability():
    docs = make_separable_corpus(n_docs=2000, seed=11)
    splits = split_simple(docs, seed=12)
    config = TrainConfig(
        epochs=5, patience=5,
        batch_size=64, learning_rate=1e-3, dropout=0.5, l2=1e-3,
        window_sizes=(2, 3, 4), n_filters=128, hidden_dim=50, embed_dim=64,
        max_tokens=48, max_sentences=6, max_words_per_sentence=10,
        vocab_min_freq=1, seed=21,
    )
    results = {}
    for kind in ("cnn", "han"):
        t0 = time.time()
        result = fit(kind, splits["train"], splits["validation"], config)
        elapsed = time.time() - t0
        assert not result.diverged
        assert len(result.log) <= 5
        preds = predict(result.classifier, splits["test"])
        ps = prediction_set(preds, splits["test"], model_name=kind)
        f1 = prf(ps).f1
        assert f1 >= 0.95, f"{kind} held-out F1 {f1:.3f} < 0.95"
        results[kind] = (f1, elapsed)
    record(5, "held-out F1 within 5 epochs at batch 64, lr 1e-3, dropout 0.5, "
              "l2 1e-3: " + ", ".join(f"{k} F1={f1:.3f} ({s:.0f}s)"
                                      for k, (f1, s) in results.items()))


# ---------------------------------------------------------------------------
# 6. Robustness ordering under vocabulary drift
# ---------------------------------------------------------------------------

def test_criterion_6_robustness_ordering(tmp_path):
    from controkit.experiments import run_temporal

    old_docs, new_docs, (words, vectors) = make_drift_corpus(
        n_docs_per_year=400, seed=5, embed_dim=32)
    w2v_path = tmp_path / "drift.w2v"
    write_w2v(w2v_path, words, vectors, binary=True)
    config = {
        "epochs": 3, "patience": 3, "embed_dim": 32, "hidden_dim": 16,
        "n_filters": 32, "window_sizes": [2, 3], "max_tokens": 40,
        "max_sentences": 5, "max_words_per_sentence": 10, "vocab_min_freq": 1,
        "embeddings_path": str(w2v_path), "fine_tune_embeddings": False,
        "calibrate": True,
    }
    within, between, delta = run_temporal(
        split_simple(old_docs, seed=6), split_simple(new_docs, seed=7),
        ("tfidf", "lm", "cnn", "han"), config, seed=100, n_resamples=50)

    drops = {}
    for model, metrics in delta.items():
        w = metrics["recall"]["within"]
        b = metrics["recall"]["between"]
        assert w is not None and w > 0
        drops[model] = (w - b) / w
    lexical_floor = min(drops["tfidf"], drops["lm"])
    neural_ceiling = max(drops["cnn"], drops["han"])
    assert lexical_floor > neural_ceiling, drops
    record(6, "between-year recall drop ordering: "
              + ", ".join(f"{m} {d:.0%}" for m, d in drops.items())
              + " (lexical exceed neural)")


# ---------------------------------------------------------------------------
# 7. Crawler correctness over randomized fixtures
# ---------------------------------------------------------------------------

def test_criterion_7_crawler_correctness():
    t0 = time.time()
    for seed in range(20):
        crawl_oracle_check(seed)
    record(7, f"20 randomized fixture graphs: hop limit, dedup, label "
              f"propagation and split disjointness match the BFS oracle "
              f"({time.time() - t0:.0f}s)")


# ---------------------------------------------------------------------------
# 8. Determinism of experiment reports
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    splits = split_simple(make_separable_corpus(n_docs=200, seed=81), seed=82)
    data_dir = tmp_path / "data"
    os.makedirs(data_dir)
    for name in ("train", "validation", "test"):
        write_documents(data_dir / f"{name}.jsonl", splits[name])
    spec = {
        "kind": "temporal",
        "datasets": {"train_year_dir": str(data_dir), "test_year_dir": str(data_dir)},
        "models": ["tfidf", "lm"],
        "config": {"epochs": 1, "vocab_min_freq": 1, "calibrate": True},
        "n_resamples": 50,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    reports = []
    for run in ("a", "b"):
        out = tmp_path / f"out_{run}"
        code = cli_main(["experiment", "--spec", str(spec_path),
                         "--out-dir", str(out), "--seed", "17"])
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    record(8, "rerunning the experiment with the same master seed reproduces "
              "report.json byte-identically")


# ---------------------------------------------------------------------------
# 9. Format fidelity
# ---------------------------------------------------------------------------

def test_criterion_9_format_fidelity(tmp_path):
    rng = np.random.default_rng(91)

    # w2v binary loader round-trips byte-exactly
    words = [f"word{i}" for i in range(20)]
    vectors = rng.normal(size=(20, 16)).astype(np.float32)
    w2v_path = tmp_path / "vectors.bin"
    write_w2v(w2v_path, words, vectors, binary=True)
    original = w2v_path.read_bytes()
    back_words, back_vectors = read_w2v(w2v_path)
    rewritten = tmp_path / "vectors2.bin"
    write_w2v(rewritten, back_words, back_vectors, binary=True)
    assert rewritten.read_bytes() == original

    # checkpoint save/load restores predictions bit-identically (all kinds)
    splits = split_simple(make_separable_corpus(n_docs=160, seed=92), seed=93)
    config = TrainConfig(epochs=1, embed_dim=8, hidden_dim=4, n_filters=4,
                         window_sizes=(2, 3), max_tokens=40, max_sentences=5,
                         max_words_per_sentence=10, vocab_min_freq=1,
                         batch_size=32, seed=94)
    for kind in ("cnn", "han", "tfidf", "lm"):
        result = fit(kind, splits["train"][:60], splits["validation"][:30], config)
        docs = splits["test"][:15]
        before = [p.score for p in predict(result.classifier, docs)]
        path = tmp_path / f"{kind}.ctrv"
        save_classifier(path, result.classifier)
        after = [p.score for p in predict(load_classifier(path), docs)]
        assert before == after

    # dataset JSONL round-trips field-exactly
    docs = make_separable_corpus(n_docs=50, seed=95)
    data_path = tmp_path / "docs.jsonl"
    write_documents(data_path, docs)
    from controkit.corpus import read_documents

    assert read_documents(data_path) == docs
    record(9, "w2v byte-exact, checkpoints restore bit-identical predictions "
              "for all four model kinds, dataset JSONL field-exact")


# ---------------------------------------------------------------------------
# 10. Table layout reproduction (golden files)
# ---------------------------------------------------------------------------

def test_criterion_10_table_layouts(tmp_path):
    outputs = build_golden_tables(tmp_path)
    assert {name for name, _, _ in outputs} == {p.name for p in GOLDEN_DIR.glob("*.txt")}
    for name, source, text in outputs:
        golden = (GOLDEN_DIR / name).read_text()
        assert text == golden, f"{source} drifted from its golden layout {name}"
    record(10, "split-stats, temporal, topic, domain and agreement tables, as written "
               "and as `report --in` prints them, match their golden layouts byte-for-byte")
