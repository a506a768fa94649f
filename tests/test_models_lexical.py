import json
import math
from collections import Counter

import numpy as np
import pytest

from controkit.corpus import CONTROVERSIAL, NON_CONTROVERSIAL
from controkit.errors import DataFormatError, UsageError
from controkit.models import TrainConfig, fit
from controkit.models.base import count_terms
from controkit.models.lm import lm_train
from controkit.models.tfidf import _feature_matrix, tfidf_train
from controkit.synthetic import make_separable_corpus
from controkit.textprep import tokenize
from golden_lexical import CORPORA, LOCK_PATH, build_lexical_lock, lock_corpus


def doc(text, label=CONTROVERSIAL):
    class D:
        pass

    d = D()
    d.text = text
    d.label = label
    return d


def feature_row(model, tokens):
    """A document's ascending term ids and its tf-idf row, as ``score`` builds it."""
    ids, counts = model.term_counts(tokens)
    return ids, model.feature_row(ids, counts)


def test_count_terms_gives_each_list_its_ascending_ids_and_counts():
    terms, indptr, ids, counts = count_terms(iter([["b", "a", "b"], [], ["c", "a"]]))
    assert terms == ["a", "b", "c"]
    assert indptr.tolist() == [0, 2, 2, 4]
    assert ids.tolist() == [0, 1, 0, 2]
    assert counts.tolist() == [1.0, 2.0, 1.0, 1.0] and counts.dtype == np.float64
    terms, indptr, ids, counts = count_terms([[], []])
    assert terms == [] and indptr.tolist() == [0, 0, 0]
    assert ids.tolist() == [] and counts.tolist() == []


class TestTfIdf:
    def test_feature_values_match_hand_computation(self):
        corpus = [doc("a a b", CONTROVERSIAL), doc("b c", NON_CONTROVERSIAL)]
        model = tfidf_train(corpus, epochs=0, lr=0.5, l2=1e-4)
        # idf: ln((1+2)/(1+df)) + 1 -> a,c: ln(1.5)+1 ~ 1.405465, b: ln(1)+1 = 1
        idf_a = math.log(3 / 2) + 1
        assert model.idf[model.term_index["a"]] == pytest.approx(idf_a, abs=1e-9)
        assert model.idf[model.term_index["b"]] == pytest.approx(1.0, abs=1e-9)
        raw_b, raw_c = 1.0, idf_a
        norm = math.sqrt(raw_b**2 + raw_c**2)
        ids, row = feature_row(model, ["b", "c"])
        vec = dict(zip(ids.tolist(), row))
        assert vec[model.term_index["b"]] == pytest.approx(0.580, abs=5e-4)
        assert vec[model.term_index["c"]] == pytest.approx(0.815, abs=5e-4)
        assert vec[model.term_index["b"]] == pytest.approx(raw_b / norm, abs=1e-9)
        assert vec[model.term_index["c"]] == pytest.approx(raw_c / norm, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(UsageError, match="both classes"):
            tfidf_train([doc("a"), doc("b")], epochs=200, lr=0.5, l2=1e-4)

    def test_separable_corpus_training_accuracy_one(self):
        corpus = [
            doc("angry dispute war", CONTROVERSIAL),
            doc("fight dispute protest", CONTROVERSIAL),
            doc("calm garden tea", NON_CONTROVERSIAL),
            doc("garden recipe walk", NON_CONTROVERSIAL),
        ]
        # perceptron oracle confirms linear separability of the tf-idf vectors
        probe = tfidf_train(corpus, epochs=0, lr=0.5, l2=1e-4)
        xs = []
        for d in corpus:
            ids, row = feature_row(probe, d.text.split())
            xs.append(np.zeros(len(probe.terms)))
            xs[-1][ids] = row
        ys = [1 if d.label == CONTROVERSIAL else -1 for d in corpus]
        w = np.zeros(len(probe.terms))
        b = 0.0
        separable = False
        for _ in range(100):
            mistakes = 0
            for x, y in zip(xs, ys):
                if y * (w @ x + b) <= 0:
                    w += y * x
                    b += y
                    mistakes += 1
            if mistakes == 0:
                separable = True
                break
        assert separable

        model = tfidf_train(corpus, epochs=200, lr=0.5, l2=1e-4)
        for d in corpus:
            margin = model.score(tokenize(d.text))
            assert (margin >= 0) == (d.label == CONTROVERSIAL)

    def test_unseen_terms_contribute_nothing(self):
        corpus = [doc("a b", CONTROVERSIAL), doc("c d", NON_CONTROVERSIAL)]
        model = tfidf_train(corpus, epochs=200, lr=0.5, l2=1e-4)
        assert model.score(tokenize("a b")) == model.score(tokenize("a b zzz qqq"))

    def test_count_scaling_invariance(self):
        corpus = [doc("a a b c", CONTROVERSIAL), doc("b c d", NON_CONTROVERSIAL)]
        model = tfidf_train(corpus, epochs=0, lr=0.5, l2=1e-4)
        base_ids, base = feature_row(model, ["a", "a", "b"])
        tripled_ids, tripled = feature_row(model, ["a"] * 6 + ["b"] * 3)
        assert np.array_equal(base_ids, tripled_ids)
        assert np.allclose(base, tripled, atol=1e-12)

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_training_document_scores_its_training_row(self, corpus):
        # score and the fit build a document's row in one place, so a
        # training document's margin is its feature-matrix row @ w + b
        train, _ = lock_corpus(corpus)
        model = tfidf_train(train, epochs=200, lr=0.5, l2=1e-4)
        terms, *counted = count_terms(tokenize(d.text) for d in train)
        assert terms == model.terms
        rows, cols, data = _feature_matrix(*counted, model)
        for i, d in enumerate(train):
            in_row = rows == i
            margin = data[in_row] @ model.w[cols[in_row]].astype(np.float64) + model.b
            assert model.score(tokenize(d.text)).hex() == float(margin).hex()

    def test_bincount_adds_in_reading_order(self):
        # tfidf_train matches scipy's CSR and CSC kernels bit for bit only
        # because np.bincount adds each output's weights in the order it
        # reads them. The final weights are float32, so the fit alone would
        # hide a float64 summation-order change.
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 5, 2000)
        weights = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 8, 2000)
        expected = [0.0] * 5
        for i, v in zip(idx.tolist(), weights.tolist()):
            expected[i] += v
        assert np.array_equal(np.bincount(idx, weights, minlength=5), expected)

    def test_fit_equals_storage_order_loop(self):
        # The reference adds each output's terms in CSR storage order, as
        # scipy's sparse kernels do, so the weights must match bit for bit.
        rng = np.random.default_rng(7)
        corpus = [doc(" ".join(f"t{k}" for k in rng.zipf(1.5, 30) % 40),
                      CONTROVERSIAL if i % 3 else NON_CONTROVERSIAL) for i in range(24)]
        corpus.append(doc("", NON_CONTROVERSIAL))
        epochs, lr, l2 = 40, 0.5, 1e-4
        model = tfidf_train(corpus, epochs=epochs, lr=lr, l2=l2)

        rows = []
        for d in corpus:
            counts = Counter(d.text.split())
            cols = sorted(model.term_index[t] for t in counts)
            values = np.array([counts[model.terms[c]] * model.idf[c] for c in cols])
            norm = np.linalg.norm(values)
            if norm > 0:
                values /= norm
            rows.append(list(zip(cols, values)))
        labels = [1.0 if d.label == CONTROVERSIAL else -1.0 for d in corpus]
        n = len(corpus)
        w, b = [0.0] * len(model.terms), 0.0
        seen_violations = set()
        for _ in range(epochs):
            coeff = []
            for y, row in zip(labels, rows):
                total = 0.0
                for c, v in row:
                    total += v * w[c]
                coeff.append(-y * float(y * (total + b) < 1.0) / n)
            seen_violations.add(sum(c != 0.0 for c in coeff))
            hinge = [0.0] * len(w)
            for r, row in enumerate(rows):
                for c, v in row:
                    hinge[c] += v * coeff[r]
            w = [wc - lr * (hc + 2.0 * l2 * wc) for wc, hc in zip(w, hinge)]
            b -= lr * float(np.array(coeff).sum())
        assert len(seen_violations) > 1  # the violating set changes
        assert np.array_equal(model.w, np.array(w, dtype=np.float32))
        assert model.b == float(np.float32(b))


class TestLm:
    def test_identical_class_corpora_score_zero(self):
        corpus = [doc("x y z", CONTROVERSIAL), doc("x y z", NON_CONTROVERSIAL)]
        model = lm_train(corpus, mu=50.0)
        for text in ("x", "y z", "x x y"):
            assert model.score(tokenize(text)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_only_token_scores_positive(self):
        corpus = [doc("x shared", CONTROVERSIAL), doc("shared y", NON_CONTROVERSIAL)]
        for mu in (0.5, 10.0, 1e4):
            model = lm_train(corpus, mu=mu)
            assert model.score(tokenize("x")) > 0.0

    def test_two_token_hand_computation(self):
        corpus = [doc("x", CONTROVERSIAL), doc("y", NON_CONTROVERSIAL)]
        model = lm_train(corpus, mu=1.0)
        # p+(x) = (1 + 1*0.5) / (1 + 1) = 0.75, p-(x) = 0.25
        assert model.score(tokenize("x")) == pytest.approx(math.log(3.0), abs=1e-12)
        assert model.score(tokenize("y")) == pytest.approx(-math.log(3.0), abs=1e-12)
        assert model.score(tokenize("x y")) == pytest.approx(0.0, abs=1e-12)

    def test_distributions_sum_to_one(self):
        docs = make_separable_corpus(n_docs=40, seed=5)
        model = lm_train(docs, mu=2000.0)
        assert abs(model.p_pos.sum() - 1.0) < 1e-9
        assert abs(model.p_neg.sum() - 1.0) < 1e-9
        assert np.all(model.p_pos > 0)
        assert np.all(model.p_neg > 0)

    def test_swap_antisymmetry(self):
        docs = make_separable_corpus(n_docs=30, seed=6)
        model = lm_train(docs, mu=100.0)
        flipped = []
        for d in docs:
            flip = doc(d.text, NON_CONTROVERSIAL if d.label == CONTROVERSIAL else CONTROVERSIAL)
            flipped.append(flip)
        model_swapped = lm_train(flipped, mu=100.0)
        for d in docs[:10]:
            assert model.score(tokenize(d.text)) == pytest.approx(
                -model_swapped.score(tokenize(d.text)), abs=1e-12)

    def test_empty_document_scores_zero(self):
        corpus = [doc("x", CONTROVERSIAL), doc("y", NON_CONTROVERSIAL)]
        model = lm_train(corpus, mu=2000.0)
        assert model.score(tokenize("")) == 0.0
        assert model.score(tokenize("totally unseen words")) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(UsageError, match="both classes"):
            lm_train([doc("x", CONTROVERSIAL)], mu=2000.0)

    def test_lexicon_filters_training_documents(self):
        corpus = [
            doc("filtered out entirely", CONTROVERSIAL),
            doc("keyword alpha beta", CONTROVERSIAL),
            doc("keyword gamma delta", NON_CONTROVERSIAL),
            doc("also dropped", NON_CONTROVERSIAL),
        ]
        model = lm_train(corpus, mu=1.0, lexicon={"keyword"})
        assert "filtered" not in model.term_index
        assert "alpha" in model.term_index

    def test_lexicon_that_empties_a_class_rejected(self):
        corpus = [doc("keyword a", CONTROVERSIAL), doc("plain b", NON_CONTROVERSIAL)]
        with pytest.raises(UsageError, match="lexicon"):
            lm_train(corpus, mu=2000.0, lexicon={"keyword"})

    @pytest.mark.parametrize("empty", [set(), [], ()])
    def test_empty_lexicon_rejected(self, empty):
        # only None means "no lexicon"; an empty one would filter everything
        corpus = [doc("keyword a", CONTROVERSIAL), doc("plain b", NON_CONTROVERSIAL)]
        with pytest.raises(UsageError, match="lexicon has no terms"):
            lm_train(corpus, mu=2000.0, lexicon=empty)
        assert lm_train(corpus, mu=2000.0, lexicon=None).terms == ["a", "b", "keyword", "plain"]

    def test_lexicon_file_read_by_fit(self, tmp_path):
        corpus = [
            doc("filtered out entirely", CONTROVERSIAL),
            doc("keyword alpha beta", CONTROVERSIAL),
            doc("keyword gamma delta", NON_CONTROVERSIAL),
            doc("also dropped", NON_CONTROVERSIAL),
        ]
        path = tmp_path / "lexicon.txt"
        path.write_text("  KeyWord \n\nabsent\n", encoding="utf-8")
        config = TrainConfig(lm_mu=1.0, lm_lexicon_path=str(path))
        model = fit("lm", corpus, [], config).classifier.model
        expected = lm_train(corpus, mu=1.0, lexicon={"keyword", "absent"})
        assert model.terms == expected.terms
        assert np.array_equal(model.log_ratio, expected.log_ratio)

    def test_lexicon_file_without_terms_rejected(self, tmp_path):
        corpus = [doc("keyword a", CONTROVERSIAL), doc("plain b", NON_CONTROVERSIAL)]
        path = tmp_path / "lexicon.txt"
        path.write_text("\n   \n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="no terms"):
            fit("lm", corpus, [], TrainConfig(lm_lexicon_path=str(path)))


class TestLexicalLock:
    """Seeded fits against ``tests/data/golden/lexical_lock.json``, bit for
    bit. Regenerate it after an intentional change to lexical training or
    scoring with ``python tests/golden_lexical.py --write``."""

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_seeded_fit_matches_golden(self, corpus):
        golden = json.loads(LOCK_PATH.read_text())[corpus]
        assert build_lexical_lock(corpus) == golden

    def test_drift_report_counts_changed_values(self, monkeypatch, capsys):
        import golden_lexical

        golden = json.loads(LOCK_PATH.read_text())
        shift, digest_changed = {}, set()

        def shifted(corpus):
            entry = json.loads(json.dumps(golden[corpus]))
            scores = entry["tfidf"]["test_scores"]
            scores[0] = (float.fromhex(scores[0]) + shift.get(corpus, 0.0)).hex()
            if corpus in digest_changed:
                entry["tfidf"]["w_sha256"] = "0" * 64
            return entry

        monkeypatch.setattr(golden_lexical, "build_lexical_lock", shifted)
        assert golden_lexical.drift_report()
        shift["zipf"] = 0.25
        digest_changed.add("separable")
        assert not golden_lexical.drift_report()
        assert capsys.readouterr().out.splitlines() == [
            "separable: 0 of 47 values changed, max abs drift 0",
            "zipf: 0 of 85 values changed, max abs drift 0",
            "separable: 1 of 47 values changed, max abs drift 0; changed: tfidf.w_sha256",
            "zipf: 1 of 85 values changed, max abs drift 0.25",
        ]
