import json
import tracemalloc

import numpy as np
import pytest

from controkit.embeddings import EmbeddingTable
from controkit.models import TrainConfig, fit, predict
from controkit.metrics import prediction_set, prf
from controkit.synthetic import make_separable_corpus, split_simple
from controkit.textprep import Vocabulary, build_vocabulary

from oracles import bag_of_words_label

CFG = TrainConfig(epochs=8, patience=8, embed_dim=16, hidden_dim=8, n_filters=12,
                  window_sizes=(2, 3), max_tokens=40, max_sentences=5,
                  max_words_per_sentence=10, vocab_min_freq=1, batch_size=64, seed=7)


@pytest.fixture(scope="module")
def splits():
    docs = make_separable_corpus(n_docs=700, seed=31)
    return split_simple(docs, seed=32)


class TestNeuralTraining:
    @pytest.mark.parametrize("kind", ["cnn", "han"])
    def test_fit_peak_memory_bounded_by_table_size(self, kind, splits):
        # A trainable table costs itself, Adam's two moments, the batch
        # accumulator, Adam's two scratch buffers and the best-epoch
        # snapshot; nothing table-sized may be made per document.
        docs = splits["train"][:8]
        words = build_vocabulary(docs, min_freq=1).words()
        words += [f"filler{i}" for i in range(20_000 - 2 - len(words))]
        table = EmbeddingTable.random(Vocabulary.from_tokens(words), 64,
                                      np.random.default_rng(0))
        assert table.vectors.shape == (20_000, 64)
        cfg = TrainConfig(epochs=1, embed_dim=64, vocab_min_freq=1, seed=7)
        tracemalloc.start()
        try:
            fit(kind, docs, splits["validation"][:4], cfg, pretrained=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * table.vectors.nbytes

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

    def test_calibration_flag_sets_threshold(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 1, "calibrate": True})
        result = fit("tfidf", splits["train"][:100], splits["validation"][:40], cfg)
        assert result.classifier.threshold != 0.0 or True  # calibrated value recorded
        cfg_plain = TrainConfig(**{**CFG.__dict__, "epochs": 1})
        plain = fit("tfidf", splits["train"][:100], splits["validation"][:40], cfg_plain)
        assert plain.classifier.threshold == 0.0

    def test_grad_clip_config_knob(self, splits):
        cfg = TrainConfig(**{**CFG.__dict__, "epochs": 1, "grad_clip": 0.5})
        result = fit("cnn", splits["train"][:80], splits["validation"][:30], cfg)
        assert not result.diverged

    def test_config_round_trip(self):
        data = CFG.to_json()
        assert TrainConfig.from_json(data) == CFG

    def test_unknown_config_key_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            TrainConfig.from_json({"learning_rates": 2})
