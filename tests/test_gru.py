import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.errors import DimensionError
from controkit.gru import GruParams, gru_sequence

from oracles import gru_scalar


def zero_params(input_dim, hidden_dim):
    return GruParams.random(input_dim, hidden_dim, np.random.default_rng(0), scale=0.0)


def run_sequence(x, params, n_rows=1, mask=None, reverse=False):
    """States after every step, as an (n_rows, T, hidden) array."""
    x = np.asarray(x, dtype=np.float64)
    g = ad.Graph(np.float64)
    out = gru_sequence(g.constant(x.reshape(-1, x.shape[-1])), params.register(g, "gru"),
                       n_rows, mask=mask, reverse=reverse)
    return out.data.reshape(n_rows, -1, params.hidden_dim)


def oracle_states(xs, params, mask=None):
    """gru_scalar chained step by step from a zero state; a masked step
    keeps the state."""
    h = np.zeros(params.hidden_dim)
    states = []
    for t, x in enumerate(xs):
        if mask is None or mask[t]:
            h = gru_scalar(x, h, params)
        states.append(h)
    return np.array(states)


class TestGruStep:
    """Per-step behaviour of gru_sequence."""

    def test_zero_params_halve_hidden(self, rng):
        # a zero input with zero recurrent weights and biases gives
        # sigma(0) = 0.5 and tanh(0) = 0, so the step is h = 0.5 * h_prev
        params = zero_params(2, 3)
        params.w_h[...] = rng.normal(size=(3, 2))
        params.w_z[...] = rng.normal(size=(3, 2))
        states = run_sequence([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]], params)[0]
        assert np.all(states[0] != 0.0)
        assert np.allclose(states[1], 0.5 * states[0], atol=1e-12)
        assert np.allclose(states[2], 0.5 * states[1], atol=1e-12)

    def test_zero_hidden_zero_params_gives_zero(self):
        states = run_sequence([[1.0, -1.0], [3.0, 2.0], [-5.0, 0.5]], zero_params(2, 3))
        assert np.array_equal(states, np.zeros((1, 3, 3)))

    def test_matches_scalar_oracle(self, rng):
        params = GruParams.random(4, 3, rng, scale=0.7)
        xs = rng.normal(size=(5, 4))
        states = run_sequence(xs, params)[0]
        assert np.max(np.abs(states - oracle_states(xs, params))) < 1e-6

    def test_batched_rows_match_loop(self, rng):
        params = GruParams.random(3, 2, rng, scale=0.5)
        xs = rng.normal(size=(4, 6, 3))
        batched = run_sequence(xs, params, n_rows=4)
        for i in range(4):
            assert np.allclose(batched[i], oracle_states(xs[i], params), atol=1e-6)

    def test_shape_mismatch(self, rng):
        params = GruParams.random(3, 2, rng)
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((4, 5)), params)  # input width 5, cell takes 3
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((5, 3)), params, n_rows=2)  # 5 rows, 2 sequences
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((4, 3)), params, n_rows=2, mask=np.ones((2, 3)))

    def test_update_gate_forced_closed_returns_h_prev(self, rng):
        params = GruParams.random(3, 2, rng, scale=0.3)
        params.b_z[0] = -np.inf  # z = 0 exactly for unit 0: it keeps its zero state
        xs = 3.0 * rng.normal(size=(4, 3))
        states = run_sequence(xs, params)[0]
        assert np.array_equal(states[:, 0], np.zeros(4))
        assert np.all(states[:, 1] != 0.0)

    def test_update_gate_forced_open_returns_candidate(self, rng):
        params = GruParams.random(3, 2, rng, scale=0.3)
        params.b_z[:] = np.inf  # z = 1 exactly: each state is its candidate
        xs = rng.normal(size=(4, 3))
        states = run_sequence(xs, params)[0]
        h_prev = np.zeros(2)
        for t in range(4):
            # with z = 1 the oracle's step is the candidate
            assert np.allclose(states[t], gru_scalar(xs[t], h_prev, params), atol=1e-12)
            h_prev = states[t]

    def test_mask_keeps_previous_state(self, rng):
        params = GruParams.random(3, 2, rng, scale=0.4)
        xs = rng.normal(size=(2, 4, 3))
        mask = np.array([[1, 0, 1, 1], [1, 1, 0, 0]])
        states = run_sequence(xs, params, n_rows=2, mask=mask)
        assert not np.allclose(states[0, 2], states[0, 1])
        assert np.array_equal(states[0, 1], states[0, 0])
        assert np.array_equal(states[1, 2], states[1, 1])
        assert np.array_equal(states[1, 3], states[1, 1])
        for i in range(2):
            assert np.allclose(states[i], oracle_states(xs[i], params, mask[i]), atol=1e-12)

    def test_gradients_through_step(self, rng):
        params = GruParams.random(3, 2, rng, scale=0.5)
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(3, 3)))
        h = gru_sequence(x, params.register(g, "gru"), 1)
        report = ad.grad_check(g, ad.sum_all(ad.mul(h, h)), 1e-5, 1e-5)
        assert report.passed, report


class TestGruSequence:
    def test_reverse_equals_forward_over_reversed_rows(self, rng):
        params = GruParams.random(3, 4, rng, scale=0.6)
        xs = rng.normal(size=(2, 5, 3))
        backward = run_sequence(xs, params, n_rows=2, reverse=True)
        forward = run_sequence(xs[:, ::-1], params, n_rows=2)
        assert np.allclose(backward, forward[:, ::-1], atol=1e-12)

    def test_one_tape_node(self, rng):
        params = GruParams.random(3, 2, rng)
        g = ad.Graph(np.float64)
        cell = params.register(g, "gru")
        before = len(g.nodes)
        gru_sequence(g.constant(rng.normal(size=(40, 3))), cell, 4)
        assert [n.op for n in g.nodes[before:]] == ["const", "gru_sequence"]
        assert list(g.params) == [f"gru.{k}" for k in
                                  ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_with_ragged_mask(self, rng, reverse):
        params = GruParams.random(3, 2, rng, scale=0.5)
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(3 * 4, 3)))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
        h = gru_sequence(x, params.register(g, "gru"), 3, mask=mask, reverse=reverse)
        weights = g.constant(rng.normal(size=(12, 2)))
        report = ad.grad_check(g, ad.sum_all(ad.mul(ad.mul(h, h), weights)), 1e-5, 1e-5)
        assert report.passed, report
        # padded rows of the input get no gradient
        padded = ~mask.astype(bool).reshape(-1)
        assert np.array_equal(x.grad[padded], np.zeros((padded.sum(), 3)))
