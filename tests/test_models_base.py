import dataclasses
import json
import struct

import numpy as np
import pytest

from controkit.checkpoint import load_checkpoint, save_checkpoint
from controkit.cli import main
from controkit.corpus import NON_CONTROVERSIAL, write_documents
from controkit.errors import DataFormatError, UsageError
from controkit.models import (
    TrainConfig,
    calibrate_threshold,
    fit,
    load_classifier,
    predict,
    save_classifier,
)
from controkit.synthetic import make_separable_corpus, split_simple

from oracles import sweep_threshold


@pytest.fixture(scope="module")
def corpus_splits():
    docs = make_separable_corpus(n_docs=160, seed=21)
    return split_simple(docs, seed=22)


NEURAL_CFG = TrainConfig(epochs=2, patience=3, embed_dim=8, hidden_dim=4, n_filters=4,
                         window_sizes=(2, 3), max_tokens=40, max_sentences=5,
                         max_words_per_sentence=10, vocab_min_freq=1, batch_size=32, seed=3)


class TestCalibrateThreshold:
    def test_perfectly_separated_lowest_chosen(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [0, 0, 1, 1]
        t = calibrate_threshold(scores, labels)
        assert t == 0.8  # lowest candidate achieving F1 = 1

    def test_all_equal_scores_degenerate(self):
        # with equal scores the only candidates are all-positive and
        # all-negative; all-positive wins F1 so the threshold sits at the score
        t = calibrate_threshold([0.4, 0.4, 0.4], [1, 0, 1])
        assert t == 0.4

    def test_matches_exhaustive_sweep_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(6, 24))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            t = calibrate_threshold(scores, labels)
            t_oracle, f1_oracle = sweep_threshold(scores, labels)
            assert t == pytest.approx(t_oracle)

    def test_mixed_six_point_set(self):
        scores = [0.1, 0.3, 0.35, 0.6, 0.7, 0.9]
        labels = [0, 1, 0, 1, 1, 1]
        t = calibrate_threshold(scores, labels)
        t_oracle, _ = sweep_threshold(scores, labels)
        assert t == pytest.approx(t_oracle)

    def test_single_class_rejected(self):
        with pytest.raises(UsageError, match="both classes"):
            calibrate_threshold([0.1, 0.9], [1, 1])


@pytest.fixture(scope="module")
def tfidf_clf(corpus_splits):
    return fit("tfidf", corpus_splits["train"], corpus_splits["validation"]).classifier


class TestPredict:
    def test_repeat_call_identical(self, tfidf_clf, corpus_splits):
        docs = corpus_splits["test"][:20]
        a = predict(tfidf_clf, docs)
        b = predict(tfidf_clf, docs)
        assert a == b

    def test_batch_equals_one_by_one(self, tfidf_clf, corpus_splits):
        docs = corpus_splits["test"][:10]
        batch = predict(tfidf_clf, docs)
        singles = [predict(tfidf_clf, [d])[0] for d in docs]
        assert batch == singles

    def test_empty_document_sentinel(self, tfidf_clf):
        class Empty:
            id = "empty-doc"
            text = "...!!!"
            label = NON_CONTROVERSIAL

        (pred,) = predict(tfidf_clf, [Empty()])
        assert pred.empty
        assert pred.score == 0.5
        assert pred.hard_label == 0

    def test_neural_empty_document_sentinel(self, corpus_splits):
        result = fit("cnn", corpus_splits["train"][:40], corpus_splits["validation"][:20],
                     NEURAL_CFG)

        class Empty:
            id = "empty-doc"
            text = ""
            label = NON_CONTROVERSIAL

        (pred,) = predict(result.classifier, [Empty()])
        assert pred.empty and pred.score == 0.5 and pred.hard_label == 0


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["cnn", "han", "tfidf", "lm"])
    def test_predictions_bit_identical_after_reload(self, kind, corpus_splits, tmp_path):
        cfg = NEURAL_CFG
        result = fit(kind, corpus_splits["train"][:60], corpus_splits["validation"][:30], cfg)
        docs = corpus_splits["test"][:15]
        before = predict(result.classifier, docs)
        path = tmp_path / f"{kind}.ctrv"
        save_classifier(path, result.classifier)
        reloaded = load_classifier(path)
        after = predict(reloaded, docs)
        assert reloaded.kind == kind
        assert reloaded.threshold == result.classifier.threshold
        for x, y in zip(before, after):
            assert x.score == y.score  # bit-identical
            assert x.hard_label == y.hard_label
        # eval-mode prediction is deterministic for every model kind
        assert predict(reloaded, docs) == after

    @pytest.mark.parametrize("kind,caps", [
        ("cnn", {"max_tokens": 7}),
        ("han", {"max_sentences": 2, "max_words_per_sentence": 3}),
    ], ids=["cnn-7", "han-2x3"])
    def test_header_holds_the_caps_its_kind_reads(self, kind, caps, corpus_splits, tmp_path):
        config = dataclasses.replace(NEURAL_CFG, **caps)
        clf = fit(kind, corpus_splits["train"][:40], corpus_splits["validation"][:20],
                  config).classifier
        path = tmp_path / f"{kind}.ctrv"
        save_classifier(path, clf)
        stored = load_checkpoint(path).hyperparameters
        all_caps = {"max_tokens", "max_sentences", "max_words_per_sentence"}
        assert {key: stored[key] for key in all_caps & set(stored)} == caps
        assert "limits" not in stored
        reloaded = load_classifier(path)
        assert {key: getattr(reloaded.model, key) for key in caps} == caps
        docs = corpus_splits["test"][:15]
        assert predict(reloaded, docs) == predict(clf, docs)

    @pytest.mark.parametrize("kind,names", [
        ("cnn", ["embedding", "conv2.w", "conv2.b", "conv3.w", "conv3.b", "conv4.w", "conv4.b",
                 "dense.w", "dense.b"]),
        ("han", ["embedding", "word_gru.w", "word_gru.u", "word_gru.b", "word_att.w",
                 "word_att.b", "word_att.u", "sent_gru.w", "sent_gru.u", "sent_gru.b",
                 "sent_att.w", "sent_att.b", "sent_att.u", "dense.w", "dense.b"]),
    ])
    def test_parameters_keep_their_checkpoint_names_and_order(self, kind, names,
                                                              corpus_splits, tmp_path):
        config = dataclasses.replace(NEURAL_CFG, epochs=1, window_sizes=(2, 3, 4))
        clf = fit(kind, corpus_splits["train"][:20], corpus_splits["validation"][:10],
                  config).classifier
        assert list(clf.model.named_arrays()) == names
        path = tmp_path / f"{kind}.ctrv"
        save_classifier(path, clf)
        raw = path.read_bytes()
        header = json.loads(raw[12 : 12 + struct.unpack_from("<I", raw, 8)[0]])
        assert [entry["name"] for entry in header["parameters"]] == names


def _limits_record_layout(hp):
    """CNN hyperparameters as once saved: the caps in a ``limits`` record apart
    from the shape."""
    hp["limits"] = {"max_sentences": 5, "max_words_per_sentence": 10,
                    "max_tokens": hp.pop("max_tokens")}


def _edit_header(path, edit):
    """Rewrite a checkpoint's JSON header in place, body untouched."""
    raw = path.read_bytes()
    hlen = struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])


def _edit_arrays(path, edit):
    """Re-save a checkpoint with its parameter arrays edited."""
    ckpt = load_checkpoint(path)
    edit(ckpt.arrays)
    save_checkpoint(path, ckpt.kind, ckpt.hyperparameters, ckpt.arrays,
                    vocabulary=ckpt.vocabulary, extra=ckpt.extra)


class TestMalformedCheckpoint:
    @pytest.fixture(scope="class")
    def saved(self, corpus_splits, tfidf_clf, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt")
        cnn = fit("cnn", corpus_splits["train"][:40], corpus_splits["validation"][:20],
                  NEURAL_CFG).classifier
        save_classifier(tmp / "cnn.ctrv", cnn)
        save_classifier(tmp / "tfidf.ctrv", tfidf_clf)
        save_classifier(tmp / "lm.ctrv", fit("lm", corpus_splits["train"],
                                             corpus_splits["validation"]).classifier)
        return tmp

    @pytest.fixture
    def copy(self, saved, tmp_path):
        def make(kind):
            path = tmp_path / f"{kind}.ctrv"
            path.write_bytes((saved / f"{kind}.ctrv").read_bytes())
            return path
        return make

    def test_missing_parameter(self, copy):
        path = copy("cnn")
        _edit_arrays(path, lambda arrays: arrays.pop("dense.w"))
        with pytest.raises(DataFormatError, match="no 'dense.w'"):
            load_classifier(path)

    def test_parameter_of_wrong_shape(self, copy):
        path = copy("cnn")
        _edit_arrays(path, lambda arrays: arrays.update({"dense.w": arrays["dense.w"][:, 1:]}))
        with pytest.raises(DataFormatError, match="'dense.w' has shape"):
            load_classifier(path)

    def test_parameter_of_another_model(self, copy):
        path = copy("cnn")
        _edit_arrays(path, lambda arrays: arrays.update({"conv9.w": arrays["conv2.w"]}))
        with pytest.raises(DataFormatError, match="conv9.w"):
            load_classifier(path)

    def test_count_table_of_wrong_length(self, copy):
        path = copy("tfidf")
        _edit_header(path, lambda header: header["extra"]["doc_freq"].pop())
        with pytest.raises(DataFormatError, match="'doc_freq' of length"):
            load_classifier(path)

    def test_vocabulary_counts_of_wrong_length(self, copy):
        path = copy("cnn")
        counts = load_classifier(path).model.embedding.vocab.counts
        assert counts[:2] == [0, 0] and min(counts[2:]) >= 1  # stored by index, reserved 0
        _edit_header(path, lambda header: header["extra"]["vocab_counts"].pop())
        with pytest.raises(DataFormatError, match="'vocab_counts' of length"):
            load_classifier(path)

    @pytest.mark.parametrize("kind,key", [("cnn", "vocab_counts"), ("tfidf", "doc_freq")])
    def test_count_table_of_negative_counts(self, copy, kind, key):
        path = copy(kind)
        _edit_header(path, lambda header: header["extra"][key].__setitem__(0, -1))
        with pytest.raises(DataFormatError, match=f"'{key}' is not a list of non-negative"):
            load_classifier(path)

    def test_missing_extra_field(self, copy):
        path = copy("tfidf")
        _edit_header(path, lambda header: header["extra"].pop("n_docs"))
        with pytest.raises(DataFormatError, match="no 'n_docs'"):
            load_classifier(path)

    def test_header_without_parameters(self, copy):
        path = copy("cnn")
        _edit_header(path, lambda header: header.pop("parameters"))
        with pytest.raises(DataFormatError, match="no 'parameters'"):
            load_classifier(path)

    def test_parameter_entry_without_name(self, copy):
        path = copy("cnn")
        _edit_header(path, lambda header: header["parameters"][1].pop("name"))
        with pytest.raises(DataFormatError, match="needs a name"):
            load_classifier(path)

    def test_window_sizes_not_a_list(self, copy):
        path = copy("cnn")
        _edit_header(path, lambda header: header["hyperparameters"].update(window_sizes="23"))
        with pytest.raises(DataFormatError, match="'window_sizes' is '23'"):
            load_classifier(path)

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda hp: hp.update(max_tokens=0),
                     "'max_tokens' is 0, expected a positive integer", id="zero"),
        pytest.param(lambda hp: hp.update(max_tokens=40.5),
                     "'max_tokens' is 40.5, expected a positive integer", id="float"),
        pytest.param(_limits_record_layout, "hyperparameters has no 'max_tokens'", id="missing"),
    ])
    def test_max_tokens_not_a_positive_integer_is_exit_3(self, copy, corpus_splits, capsys,
                                                         edit, message):
        path = copy("cnn")
        _edit_header(path, lambda header: edit(header["hyperparameters"]))
        with pytest.raises(DataFormatError, match=message):
            load_classifier(path)
        data = path.parent / "test.jsonl"
        write_documents(data, corpus_splits["test"][:5])
        assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind,edit,message", [
        pytest.param("tfidf", lambda ckpt: ckpt.arrays["w"].fill(np.nan),
                     "parameter 'w' holds non-finite", id="tfidf-w-nan"),
        pytest.param("cnn", lambda ckpt: ckpt.arrays["dense.w"].fill(np.nan),
                     "parameter 'dense.w' holds non-finite", id="cnn-dense.w-nan"),
        pytest.param("lm", lambda ckpt: ckpt.extra.update(
            pos_counts=[0] * len(ckpt.vocabulary), neg_counts=[0] * len(ckpt.vocabulary)),
                     "are all zero", id="lm-zero-counts"),
    ])
    def test_checkpoint_no_model_can_score_is_exit_3(self, copy, corpus_splits, capsys,
                                                     kind, edit, message):
        path = copy(kind)
        ckpt = load_checkpoint(path)
        edit(ckpt)
        save_checkpoint(path, ckpt.kind, ckpt.hyperparameters, ckpt.arrays,
                        vocabulary=ckpt.vocabulary, extra=ckpt.extra)
        data = path.parent / "test.jsonl"
        write_documents(data, corpus_splits["test"][:5])
        assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
        assert message in capsys.readouterr().err

    def test_han_checkpoint_with_nine_gate_blocks_per_direction(self, corpus_splits, tmp_path,
                                                                capsys):
        # the layout that stored each GRU direction as nine blocks (word_fw.w_z, ...)
        han = fit("han", corpus_splits["train"][:20], corpus_splits["validation"][:10],
                  dataclasses.replace(NEURAL_CFG, epochs=0)).classifier
        path = tmp_path / "han.ctrv"
        save_classifier(path, han)

        def nine_blocks(arrays):
            for level in ("word", "sent"):
                gru = {leaf: arrays.pop(f"{level}_gru.{leaf}") for leaf in "wub"}
                for d, direction in enumerate(("fw", "bw")):
                    for leaf, arr in gru.items():
                        for gate, block in zip("zrh", np.split(arr[d], 3)):
                            arrays[f"{level}_{direction}.{leaf}_{gate}"] = block

        _edit_arrays(path, nine_blocks)
        assert "word_fw.w_z" in load_checkpoint(path).arrays
        with pytest.raises(DataFormatError, match=r"parameters \[.*'word_fw\.w_z'.*\] do not "
                                                  r"belong to a han model"):
            load_classifier(path)
        data = tmp_path / "test.jsonl"
        write_documents(data, corpus_splits["test"][:5])
        assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 3
        assert "'word_fw.w_z'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["cnn", "tfidf"])
    def test_vocabulary_edited_after_saving(self, kind, copy):
        path = copy(kind)
        _edit_header(path, lambda header: header["vocabulary"].__setitem__(2, "edited"))
        with pytest.raises(DataFormatError, match="vocabulary_hash"):
            load_classifier(path)
