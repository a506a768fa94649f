from collections import Counter

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.models.base import EmptyDocumentError
from controkit.models.han import HanParams, han_forward
from controkit.textprep import EncodedDocument

from oracles import han_scalar


@pytest.fixture
def han_params(small_embedding, rng):
    return HanParams.random(small_embedding, rng, hidden_dim=3, scale=0.4)


def test_single_word_attention_is_exactly_one(han_params):
    probs, word_att, sent_att = han_forward([[3]], han_params)
    assert word_att[0].tolist() == [1.0]
    assert sent_att.tolist() == [1.0]
    assert abs(probs.sum() - 1.0) < 1e-6


def test_duplicate_sentences_share_attention(han_params):
    # word-level processing is per sentence, so identical sentences always
    # get identical word attention; exact sentence-level symmetry needs a
    # position-invariant sentence encoder (zeroed recurrences force that),
    # otherwise it holds approximately for small weights
    sentences = [[2, 3, 4], [2, 3, 4]]
    _, word_att, sent_att = han_forward(sentences, han_params)
    assert np.allclose(word_att[0], word_att[1], atol=1e-6)
    assert np.allclose(sent_att, [0.5, 0.5], atol=5e-3)

    for block in (han_params.sent_fw, han_params.sent_bw):
        for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"):
            getattr(block, name)[...] = 0.0
    _, _, sent_att = han_forward(sentences, han_params)
    assert np.array_equal(sent_att, [0.5, 0.5])


def test_matches_scalar_oracle(han_params):
    sentences = [[2, 3, 4], [5, 6]]
    probs, word_att, sent_att = han_forward(sentences, han_params)
    o_probs, o_word, o_sent = han_scalar(sentences, han_params)
    assert np.max(np.abs(probs - o_probs)) < 1e-5
    assert np.max(np.abs(sent_att - o_sent)) < 1e-5
    for got, want in zip(word_att, o_word):
        assert np.max(np.abs(got - want)) < 1e-5


def test_attention_distributions_sum_to_one(han_params, rng):
    for _ in range(30):
        n_sent = int(rng.integers(1, 5))
        sentences = [rng.integers(2, 7, size=rng.integers(1, 7)).tolist()
                     for _ in range(n_sent)]
        _, word_att, sent_att = han_forward(sentences, han_params)
        assert abs(sent_att.sum() - 1.0) < 1e-6
        for row in word_att:
            assert abs(row.sum() - 1.0) < 1e-6


def test_padded_positions_get_zero_weight(han_params):
    # unequal sentence lengths force within-document padding
    _, word_att, _ = han_forward([[2, 3, 4, 5, 6], [2]], han_params)
    assert len(word_att[0]) == 5
    assert len(word_att[1]) == 1
    assert word_att[1][0] == 1.0


def test_forced_one_hot_attention_returns_that_sentence_vector(rng):
    # masking every sentence but one forces its attention weight to 1, so the
    # document vector equals that sentence's annotation exactly
    g = ad.Graph(np.float64)
    states = g.constant(rng.normal(size=(3, 4)))
    w, b, u = (g.constant(rng.normal(size=shape)) for shape in ((4, 4), 4, 4))
    for keep in range(3):
        doc, alpha = ad.attention_pool(states, w, b, u, 1, mask=[np.arange(3) == keep])
        assert np.array_equal(alpha, [np.arange(3) == keep])
        assert np.array_equal(doc.data[0], states.data[keep])


def test_empty_document_signals(han_params):
    with pytest.raises(EmptyDocumentError):
        han_forward([], han_params)
    encoded = EncodedDocument(doc_id="d", sentences=[], tokens=[0], empty=True)
    with pytest.raises(EmptyDocumentError):
        han_forward(encoded, han_params)


def test_toy_gradient_check(small_embedding, rng):
    params = HanParams.random(small_embedding, rng, hidden_dim=1, scale=0.5)
    graph = ad.Graph(np.float64)
    loss = params.loss(graph, [[2, 3, 4], [5, 6, 2]], target=0, mode="train",
                       rng=np.random.default_rng(9), dropout_rate=0.5, l2=1e-3)
    report = ad.grad_check(graph, loss, 1e-4, 1e-4)
    assert report.passed, report


def test_deterministic_eval(han_params):
    sentences = [[2, 3], [4, 5, 6]]
    a = han_forward(sentences, han_params)[0]
    b = han_forward(sentences, han_params)[0]
    assert np.array_equal(a, b)


def test_tape_size_does_not_depend_on_the_document(han_params):
    # both documents have unequal sentence lengths, so both are padded
    tapes = []
    for sentences in ([[2, 3, 4], [5, 6]], [[2, 3, 4, 5, 6, 2, 3], [4], [5, 6, 2], [3, 4]]):
        graph = ad.Graph(np.float32)
        han_params.loss(graph, sentences, target=1, mode="train", rng=np.random.default_rng(0))
        tapes.append(Counter(node.op for node in graph.nodes))
    assert tapes[0] == tapes[1]
    assert sum(tapes[0].values()) == 62
    assert tapes[0]["param"] == 45
    assert tapes[0]["lookup"] == 1
    assert tapes[0]["gru_sequence"] == 4
    assert tapes[0]["attention_pool"] == 2
    assert tapes[0]["linear"] == 1


def test_frozen_table_gets_no_gradient(small_embedding, rng):
    params = HanParams.random(small_embedding, rng, hidden_dim=3, scale=0.4)
    grads = {}
    for trainable in (True, False):
        params.embedding.trainable = trainable
        graph = ad.Graph(np.float32)
        loss = params.loss(graph, [[2, 3, 4], [5, 6]], target=1, mode="train",
                           rng=np.random.default_rng(4))
        grads[trainable] = graph.backward(loss)
    embedding = next(node for node in graph.nodes if node.name == "embedding")
    assert embedding.op == "const" and embedding.grad is None
    assert set(grads[True]) - set(grads[False]) == {"embedding"}
    for name, g in grads[False].items():
        assert np.array_equal(g, grads[True][name]), name
