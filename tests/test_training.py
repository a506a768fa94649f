import dataclasses
import json
import re
from collections import Counter
from pathlib import Path
import tracemalloc
import weakref

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.embeddings import EmbeddingTable
from controkit.errors import UsageError
from controkit.models import TrainConfig, calibrate_threshold, fit, predict
from controkit.models.base import label_to_int
from controkit.metrics import prediction_set, prf
from controkit.synthetic import make_separable_corpus, split_simple
from controkit.textprep import Vocabulary, build_vocabulary

from golden_neural import CONFIG, LOCK_PATH, LOCKS, TOLERANCE, build_neural_lock
from oracles import bag_of_words_label

CFG = TrainConfig(epochs=8, patience=8, embed_dim=16, hidden_dim=8, n_filters=12,
                  window_sizes=(2, 3), max_tokens=40, max_sentences=5,
                  max_words_per_sentence=10, vocab_min_freq=1, batch_size=64, seed=7)


@pytest.fixture(scope="module")
def splits():
    docs = make_separable_corpus(n_docs=700, seed=31)
    return split_simple(docs, seed=32)


def _wide_table(docs, rows=20_000):
    """A ``rows`` x 64 trainable table covering ``docs``, padded with unused words."""
    words = build_vocabulary(docs, max_size=50_000, min_freq=1).words()
    words += [f"filler{i}" for i in range(rows - 2 - len(words))]
    table = EmbeddingTable.random(Vocabulary.from_tokens(words), 64, np.random.default_rng(0))
    assert table.vectors.shape == (rows, 64)
    return table


def _traced_fit(kind, docs, validation, cfg, table):
    """Run a fit under tracemalloc; returns (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = fit(kind, docs, validation, cfg, pretrained=table)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNeuralTraining:
    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_fit_peak_memory_bounded_by_table_size(self, kind, splits):
        # The table itself is allocated before tracing. A fit adds Adam's two
        # moments, the one batch accumulator and the best-epoch snapshot, all
        # over the rows the documents reach; Adam's scratch is slice-sized,
        # and nothing table-sized may be made per document.
        docs = splits["train"][:8]
        table = _wide_table(docs)
        cfg = TrainConfig(epochs=1, embed_dim=64, vocab_min_freq=1, seed=7)
        _, peak = _traced_fit(kind, docs, splits["validation"][:4], cfg, table)
        assert peak <= 10 * table.vectors.nbytes

    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_fit_holds_each_table_sized_array_once(self, kind, splits):
        # Two epochs of two batches, and a validation F1 that improves in the
        # second epoch, fitted on a 20,000- and an 80,000-row table. The
        # documents, and so the tapes and the rows they reach, are the same;
        # the peak grows by the table-sized arrays held at once. Adam's two
        # moments, the batch accumulator and the best-epoch snapshot hold only
        # the reached rows, so none is table-sized; one would make about 1.
        docs, validation = splits["train"][:8], splits["validation"][:4]
        cfg = TrainConfig(epochs=2, batch_size=4, embed_dim=64, vocab_min_freq=1, seed=3)
        table_bytes, peaks = [], []
        for rows in (20_000, 80_000):
            table = _wide_table(docs, rows)
            result, peak = _traced_fit(kind, docs, validation, cfg, table)
            assert result.log[1]["val_f1"] > result.log[0]["val_f1"]
            table_bytes.append(table.vectors.nbytes)
            peaks.append(peak)
        arrays_held = (peaks[1] - peaks[0]) / (table_bytes[1] - table_bytes[0])
        assert arrays_held <= 0.5

    @pytest.mark.parametrize("fine_tune", [True, False], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_each_tape_is_freed_before_the_next_is_built(self, kind, fine_tune, splits,
                                                          monkeypatch):
        # A spy Graph keeps weak references to every tape the fit builds
        # (training documents and validation scoring); when one is built, no
        # tape built before it may still be alive, so a fit holds one at a time.
        built, alive_at_build = [], []

        class SpyGraph(ad.Graph):
            def __init__(self, *args, **kwargs):
                alive_at_build.append(sum(ref() is not None for ref in built))
                built.append(weakref.ref(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ad, "Graph", SpyGraph)
        cfg = dataclasses.replace(CFG, epochs=2, batch_size=4, fine_tune_embeddings=fine_tune)
        fit(kind, splits["train"][:8], splits["validation"][:4], cfg)
        assert len(built) == 2 * (8 + 4)
        assert alive_at_build == [0] * len(built)

    def test_w2v_file_read_once(self, splits, tmp_path, monkeypatch):
        from controkit import embeddings
        from controkit.embeddings import write_w2v
        from controkit.models import training

        words = ["contro1", "mundane2", "notincorpus"]
        vectors = np.arange(3 * 16, dtype=np.float32).reshape(3, 16)
        path = tmp_path / "v.bin"
        write_w2v(path, words, vectors, binary=True)
        reads, read_w2v = [], embeddings.read_w2v

        def counted(*args, **kwargs):
            reads.append(args)
            return read_w2v(*args, **kwargs)

        for module in (embeddings, training):
            monkeypatch.setattr(module, "read_w2v", counted)
        cfg = dataclasses.replace(CFG, epochs=1, embeddings_path=str(path),
                                  fine_tune_embeddings=False)
        result = fit("cnn", splits["train"][:20], splits["validation"][:6], cfg)
        assert len(reads) == 1
        table = result.classifier.model.embedding
        for word, vec in zip(words, vectors):
            assert np.array_equal(table.vectors[table.vocab.token_to_index[word]], vec)

    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_separable_corpus_reaches_f1(self, kind, splits):
        result = fit(kind, splits["train"], splits["validation"], CFG)
        assert not result.diverged
        assert result.log[-1]["val_f1"] >= 0.95
        preds = predict(result.classifier, splits["test"])
        ps = prediction_set(preds, splits["test"], model_name=kind)
        assert prf(ps).f1 >= 0.95
        # the bag-of-words oracle is perfect on this corpus; models should
        # agree with it on nearly every document
        pos = {f"contro{i}" for i in range(50)}
        neg = {f"mundane{i}" for i in range(50)}
        oracle = [bag_of_words_label(d.text, pos, neg) for d in splits["test"]]
        agree = np.mean([p.hard_label == o for p, o in zip(preds, oracle)])
        assert agree >= 0.95

    def test_zero_epochs_returns_initialization(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 0})
        a = fit("cnn", splits["train"], splits["validation"], cfg)
        b = fit("cnn", splits["train"], splits["validation"], cfg)
        assert a.log == []
        for name, arr in a.classifier.model.named_arrays().items():
            assert np.array_equal(arr, b.classifier.model.named_arrays()[name])

    def test_fixed_seed_training_log_bit_identical(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 2})
        a = fit("cnn", splits["train"][:200], splits["validation"][:60], cfg)
        b = fit("cnn", splits["train"][:200], splits["validation"][:60], cfg)
        assert json.dumps(a.log) == json.dumps(b.log)
        for name, arr in a.classifier.model.named_arrays().items():
            assert np.array_equal(arr, b.classifier.model.named_arrays()[name])

    def test_different_seed_changes_training(self, splits):
        cfg_a = TrainConfig(**{**CFG.__dict__, "epochs": 1})
        cfg_b = TrainConfig(**{**CFG.__dict__, "epochs": 1, "seed": 99})
        a = fit("cnn", splits["train"][:120], splits["validation"][:40], cfg_a)
        b = fit("cnn", splits["train"][:120], splits["validation"][:40], cfg_b)
        assert a.log != b.log

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_last_good_checkpoint(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 4, "learning_rate": 1e12})
        result = fit("cnn", splits["train"][:120], splits["validation"][:40], cfg)
        assert result.diverged
        assert result.diagnostic
        for arr in result.classifier.model.named_arrays().values():
            assert np.all(np.isfinite(arr))

    def test_early_stopping_respects_patience(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 30, "patience": 1})
        result = fit("cnn", splits["train"][:200], splits["validation"][:60], cfg)
        assert len(result.log) < 30

    def test_best_validation_checkpoint_restored(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 4})
        result = fit("cnn", splits["train"][:200], splits["validation"][:60], cfg)
        best_epoch_f1 = max(e["val_f1"] for e in result.log)
        preds = predict(result.classifier, splits["validation"][:60])
        ps = prediction_set(preds, splits["validation"][:60], model_name="cnn")
        assert prf(ps).f1 == pytest.approx(best_epoch_f1, abs=1e-9)

    def test_restored_parameters_are_those_of_the_best_epoch(self, splits):
        # a snapshot that aliased the live arrays would restore the last epoch
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 4, "learning_rate": 3e-2})
        train, validation = splits["train"][:120], splits["validation"][:40]
        full = fit("cnn", train, validation, cfg)
        assert len(full.log) == cfg.epochs
        best = int(np.argmax([e["val_f1"] for e in full.log]))
        assert best < cfg.epochs - 1
        short = fit("cnn", train, validation, TrainConfig(**{**cfg.__dict__, "epochs": best + 1}))
        assert json.dumps(short.log) == json.dumps(full.log[: best + 1])
        want = short.classifier.model.named_arrays()
        for name, arr in full.classifier.model.named_arrays().items():
            assert np.array_equal(arr, want[name]), name

    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_empty_validation_document_counts_as_positive(self, kind, splits):
        # an empty document scores EMPTY_DOC_SCORE (0.5), which the epoch
        # log's 0.5 threshold predicts positive
        empty = dataclasses.replace(splits["validation"][0], id="empty", text="",
                                    label="controversial")
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 1})
        result = fit(kind, splits["train"][:40], [empty], cfg)
        assert result.log[0]["val_recall"] == 1.0
        assert result.log[0]["val_f1"] == 1.0

    def test_calibration_flag_sets_threshold(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 1, "calibrate": True})
        validation = splits["validation"][:40]
        result = fit("tfidf", splits["train"][:100], validation, cfg)
        expected = calibrate_threshold([p.score for p in predict(result.classifier, validation)],
                                       [label_to_int(d.label) for d in validation])
        assert expected != 0.0
        assert result.classifier.threshold == expected
        cfg_plain = TrainConfig(**{**CFG.__dict__, "epochs": 1})
        plain = fit("tfidf", splits["train"][:100], splits["validation"][:40], cfg_plain)
        assert plain.classifier.threshold == 0.0

    @pytest.mark.parametrize("kind", ["tfidf", "lm", "cnn"])
    def test_calibration_reads_predicts_score_of_an_empty_document(self, kind, splits):
        # predict gives a document without tokens EMPTY_DOC_SCORE (0.5), not
        # the model's score of no tokens, and calibration reads those scores;
        # a neural fit reads them from the inputs it encoded for validation
        empty = dataclasses.replace(splits["validation"][0], id="empty", text="...",
                                    label="controversial")
        validation = splits["validation"][:40] + [empty]
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 1, "calibrate": True})
        result = fit(kind, splits["train"][:100], validation, cfg)
        predictions = predict(result.classifier, validation)
        assert predictions[-1].empty
        expected = calibrate_threshold([p.score for p in predictions],
                                       [label_to_int(d.label) for d in validation])
        assert result.classifier.threshold == expected

    @pytest.mark.parametrize("kind", ["cnn", "han", "tfidf"])
    def test_one_class_validation_stops_a_calibrated_fit_before_training(self, kind, splits,
                                                                         monkeypatch):
        from controkit.models import training
        from controkit.models.tfidf import TfIdfModel

        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for owner, name in ((training, "adam_step"), (training, "build_vocabulary"),
                            (TfIdfModel, "train")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        validation = [d for d in splits["validation"] if label_to_int(d.label) == 1][:10]
        cfg = dataclasses.replace(CFG, epochs=2, calibrate=True)
        with pytest.raises(UsageError, match="needs both classes in validation"):
            fit(kind, splits["train"][:40], validation, cfg)
        assert calls == []
        # without calibration the same split trains
        fit(kind, splits["train"][:40], validation, dataclasses.replace(cfg, calibrate=False))
        assert calls

    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_each_document_is_encoded_once_into_the_form_its_model_reads(self, kind, splits,
                                                                          monkeypatch):
        # the CNN reads the token list and the HAN the sentence lists; a fit
        # encodes each training and validation document once, prediction each
        # test document once, and build_vocabulary tokenizes each training text
        from controkit import textprep

        calls = Counter()
        split_sentences = textprep.split_sentences

        def counted(name, original):
            def wrapper(text):
                calls[name, text] += 1
                return original(text)
            return wrapper

        for name in ("tokenize", "split_sentences"):
            monkeypatch.setattr(textprep, name, counted(name, getattr(textprep, name)))
        train, validation, test = (splits[name][:30] for name in ("train", "validation", "test"))
        result = fit(kind, train, validation, dataclasses.replace(CFG, epochs=2, calibrate=True))
        predict(result.classifier, test)

        texts = Counter(d.text for d in train + validation + test)
        expected = Counter(("tokenize", d.text) for d in train)  # build_vocabulary
        if kind == "cnn":
            expected.update({("tokenize", t): n for t, n in texts.items()})
        else:
            expected.update({("split_sentences", t): n for t, n in texts.items()})
            expected.update(("tokenize", sentence) for t, n in texts.items()
                            for sentence in split_sentences(t)[: CFG.max_sentences] * n)
        assert calls == expected

    def test_config_round_trip(self):
        data = CFG.to_json()
        assert TrainConfig.from_json(data) == CFG

    def test_unknown_config_key_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            TrainConfig.from_json({"learning_rates": 2})

    def test_readme_lists_every_config_key(self):
        # the keys README's "Training config keys" paragraph names before
        # "`train` refuses": a knob added or removed without its line fails here
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Training config keys (`--config`)\n", 1)[1]
        listed = re.findall(r"`([^`]+)`", section.split("`train` refuses", 1)[0])
        assert sorted(listed) == sorted(TrainConfig.__dataclass_fields__)


class TestBehaviourLock:
    """A seeded CNN and HAN fit reproduce the committed golden; regenerate
    it with ``python tests/golden_neural.py --write``."""

    @pytest.mark.parametrize("lock", LOCKS)
    def test_seeded_fit_matches_golden(self, lock):
        golden = json.loads(LOCK_PATH.read_text())
        assert golden["config"] == CONFIG
        got, want = build_neural_lock(lock), golden[lock]
        assert len(got["log"]) == len(want["log"])
        for epoch_got, epoch_want in zip(got["log"], want["log"]):
            assert epoch_got == pytest.approx(epoch_want, abs=TOLERANCE)
        assert got["threshold"] == pytest.approx(want["threshold"], abs=TOLERANCE)
        assert got["test_scores"] == pytest.approx(want["test_scores"], abs=TOLERANCE)

    def test_drift_report_counts_changed_values(self, monkeypatch, capsys):
        import golden_neural

        golden = json.loads(LOCK_PATH.read_text())
        shift = {}

        def shifted(lock):
            entry = json.loads(json.dumps(golden[lock]))
            entry["test_scores"][0] += shift.get(lock, 0.0)
            return entry

        monkeypatch.setattr(golden_neural, "build_neural_lock", shifted)
        shift["cnn_wide"] = TOLERANCE / 2
        assert golden_neural.drift_report()
        shift["han"] = 3 * TOLERANCE
        assert not golden_neural.drift_report()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * len(LOCKS)
        assert lines[0] == "cnn: 0 of 36 values changed, max abs drift 0 (tolerance 1e-06)"
        assert lines[2].startswith("cnn_wide: 1 of 36 values changed, max abs drift 5e-07")
        assert lines[5].startswith("han: 1 of 36 values changed, max abs drift 3e-06")
