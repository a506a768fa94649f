from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.embeddings import EmbeddingTable
from controkit.models.base import EmptyDocumentError
from controkit.models.cnn import CnnParams
from controkit.textprep import Vocabulary

from oracles import cnn_scalar


def zeroed_cnn(vocab_size=6, dim=4, windows=(2, 3), n_filters=3):
    vocab = Vocabulary.from_tokens([f"w{i}" for i in range(vocab_size - 2)], {})
    emb = EmbeddingTable(vocab, np.zeros((vocab_size, dim), np.float32), True)
    params = CnnParams.random(emb, np.random.default_rng(0), window_sizes=windows,
                              n_filters=n_filters, max_tokens=400)
    for arr in params.arrays.values():
        arr[...] = 0
    return params


def test_all_zero_parameters_give_uniform_probabilities():
    probs = zeroed_cnn().probabilities([2, 3, 4, 5])
    assert np.array_equal(probs, [0.5, 0.5])


def test_max_over_time_position_invariance(rng):
    # one filter engineered to fire on the trigram (w0, w1, w2)
    params = zeroed_cnn(dim=3, windows=(3,), n_filters=1)
    params.embedding.vectors[2:5] = np.eye(3, dtype=np.float32)  # w0, w1, w2
    pattern = np.concatenate([np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]])
    params.arrays["conv3.w"][0] = pattern.astype(np.float32)

    def pooled_activation(tokens):
        graph = ad.Graph(np.float64)
        bound = params.bind(graph)
        emb = ad.lookup(bound["embedding"], tokens, pad_index=0)
        return float(ad.conv_max_pool(emb, [(bound["conv3.w"], bound["conv3.b"])]).data[0, 0])

    early = pooled_activation([2, 3, 4, 5, 5, 5, 5])
    late = pooled_activation([5, 5, 5, 5, 2, 3, 4])
    assert early == late == 3.0


def test_tape_size_does_not_depend_on_the_document(rng, small_embedding):
    # 9 parameters and one node per layer: lookup, one conv_max_pool for
    # all widths, dropout, linear, cross_entropy and the l2 penalty; no op
    # is recorded per token, window position or width
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3, 4), n_filters=4,
                              max_tokens=400)
    tapes = []
    for n_tokens in (5, 400):
        graph = ad.Graph(np.float32)
        params.loss(graph, rng.integers(2, 7, size=n_tokens).tolist(), target=1, mode="train",
                    rng=np.random.default_rng(0), l2=1e-3)
        tapes.append(Counter(node.op for node in graph.nodes))
    assert tapes[0] == tapes[1]
    assert sum(tapes[0].values()) == 15
    assert tapes[0]["param"] == 9
    for op in ("lookup", "conv_max_pool", "dropout", "linear", "cross_entropy", "l2_penalty"):
        assert tapes[0][op] == 1, op
    assert tapes[0]["concat"] == tapes[0]["mul"] == tapes[0]["const"] == 0


def test_matches_scalar_loop_oracle(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3), n_filters=4,
                              max_tokens=400)
    tokens = [2, 3, 4, 5, 6, 2, 4]
    probs = params.probabilities(tokens)
    oracle = cnn_scalar(tokens, params)
    assert np.max(np.abs(probs - oracle)) < 1e-5


def favour_padding_cnn(rng, small_embedding):
    """Positive embeddings, positive biases and a filter 0 of negative
    weights: that filter's all-padding windows (relu(b) = b) beat every
    window that reads a token."""
    small_embedding.vectors[2:] = np.abs(small_embedding.vectors[2:])
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3, 4), n_filters=3,
                              max_tokens=400)
    for h in params.window_sizes:
        params.arrays[f"conv{h}.w"][0] = -np.abs(params.arrays[f"conv{h}.w"][0])
        params.arrays[f"conv{h}.b"][:] = [0.5, 0.25, 0.1]
    return params


def text_of(ids, vocab) -> str:
    return " ".join(vocab.index_to_token[i] for i in ids)


@pytest.mark.parametrize("real_len", [400, 2, 57, None])  # None: a raw unpadded list
def test_trimmed_input_scores_as_the_padded_document(rng, small_embedding, real_len):
    params = favour_padding_cnn(rng, small_embedding)
    if real_len is None:
        net_input = full = rng.integers(2, 7, size=9).tolist()
    else:
        full = rng.integers(2, 7, size=real_len).tolist() + [0] * (400 - real_len)
        past_cap = [2, 3] if real_len == 400 else []  # cut to max_tokens ids
        text = text_of(full[:real_len] + past_cap, small_embedding.vocab)
        net_input = params.network_input(text)  # max_tokens 400
        assert net_input == full[: real_len + 4]
    assert abs(params.score(net_input) - cnn_scalar(full, params)[1]) < 1e-5
    if real_len in (2, 57):  # an all-padding window is filter 0's first maximum
        emb = params.embedding.vectors[full]
        for h in params.window_sizes:
            acts = [params.arrays[f"conv{h}.w"][0] @ emb[i : i + h].reshape(-1)
                    for i in range(400 - h + 1)]
            assert np.argmax(np.maximum(np.add(acts, 0.5), 0)) == real_len


@pytest.mark.parametrize("real_len", [1, 57, 396, 400])
def test_training_graph_reads_real_len_plus_widest_window_rows(rng, small_embedding, real_len):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3, 4), n_filters=2,
                              max_tokens=400)
    text = text_of(rng.integers(2, 7, size=real_len), small_embedding.vocab)
    net_input = params.network_input(text)
    graph = ad.Graph(np.float32)
    params.loss(graph, net_input, target=1, rng=np.random.default_rng(0))
    (lookup,) = [node for node in graph.nodes if node.op == "lookup"]
    assert lookup.shape == (min(real_len + 4, 400), small_embedding.dim)


def test_short_document_padded_to_window(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 4), n_filters=2,
                              max_tokens=400)
    probs = params.probabilities([3])  # shorter than the widest window
    assert probs.shape == (2,)
    assert abs(probs.sum() - 1.0) < 1e-6


def test_empty_document_signals(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2,), n_filters=2,
                              max_tokens=400)
    for text in ("", "--- !!! ."):
        with pytest.raises(EmptyDocumentError, match="'d'"):
            params.network_input(SimpleNamespace(id="d", text=text))
        with pytest.raises(EmptyDocumentError):
            params.network_input(text)


@pytest.mark.parametrize("max_tokens", [1, 3, 6, 40])
def test_network_input_pads_one_widest_window_up_to_max_tokens(rng, small_embedding,
                                                               max_tokens):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 4), n_filters=2,
                              max_tokens=max_tokens)
    net_input = params.network_input("alpha beta gamma zzz")
    ids = [2, 3, 4, 1][:max_tokens]
    assert net_input == ids + [0] * min(4, max_tokens - len(ids))


def test_probabilities_sum_to_one(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3), n_filters=4,
                              max_tokens=400)
    for _ in range(20):
        tokens = rng.integers(2, 7, size=rng.integers(3, 12)).tolist()
        probs = params.probabilities(tokens)
        assert abs(probs.sum() - 1.0) < 1e-6


def test_toy_gradient_check(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2, 3), n_filters=4,
                              max_tokens=400)
    graph = ad.Graph(np.float64)
    loss = params.loss(graph, [2, 3, 4, 5, 6], target=1, mode="train",
                       rng=np.random.default_rng(5), dropout_rate=0.5, l2=1e-3)
    report = ad.grad_check(graph, loss, 1e-4, 1e-4)
    assert report.passed, report


def test_l2_term_increases_loss(rng, small_embedding):
    params = CnnParams.random(small_embedding, rng, window_sizes=(2,), n_filters=2,
                              max_tokens=400)
    dense_w = params.arrays["dense.w"]
    dense_w[...] = 1.0

    def loss_value(l2):
        graph = ad.Graph(np.float64)
        return float(params.loss(graph, [2, 3, 4], 0, "eval", l2=l2).data)

    assert loss_value(1e-3) == pytest.approx(loss_value(0.0) + 1e-3 * dense_w.size)


def test_frozen_embedding_not_trainable(rng, small_embedding):
    small_embedding.trainable = False
    params = CnnParams.random(small_embedding, rng, window_sizes=(2,), n_filters=2,
                              max_tokens=400)
    assert "embedding" not in params.trainable_arrays()
    graph = ad.Graph(np.float32)
    params.bind(graph)
    assert "embedding" not in graph.params
