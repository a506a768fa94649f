import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.errors import DimensionError
from controkit.gru import gru_arrays, gru_sequence

from oracles import direction, gru_scalar, weighted_sum


def zero_params(input_dim, hidden_dim):
    return gru_arrays(input_dim, hidden_dim, np.random.default_rng(0), scale=0.0)


def register(g, params):
    """The layer's (w, u, b) as parameters ``gru.w``, ``gru.u`` and ``gru.b``
    of ``g``: the ``cell`` of gru_sequence."""
    return tuple(g.parameter(f"gru.{name}", arr) for name, arr in zip("wub", params))


def run_sequence(x, params, n_rows=1, mask=None):
    """States after every step, as an (n_rows, T, direction, hidden) array."""
    x = np.asarray(x, dtype=np.float64)
    g = ad.Graph(np.float64)
    out = gru_sequence(g.constant(x.reshape(-1, x.shape[-1])), register(g, params),
                       n_rows, mask=mask)
    return out.data.reshape(n_rows, -1, 2, out.shape[1] // 2)


def oracle_states(xs, params, d, mask=None):
    """gru_scalar with direction ``d``'s arrays, chained step by step from a
    zero state in that direction's reading order; a masked step keeps the
    state. Returned in step order."""
    order = range(len(xs)) if d == 0 else reversed(range(len(xs)))
    h = np.zeros(params[1].shape[2])
    states = [None] * len(xs)
    for t in order:
        if mask is None or mask[t]:
            h = gru_scalar(xs[t], h, *direction(params, d))
        states[t] = h
    return np.array(states)


class TestGruStep:
    """Per-step behaviour of gru_sequence."""

    def test_zero_params_halve_hidden(self, rng):
        # a zero input with zero recurrent weights and biases gives
        # sigma(0) = 0.5 and tanh(0) = 0, so the step is h = 0.5 * h_prev
        params = zero_params(2, 3)
        w = params[0]
        w[:, 6:] = rng.normal(size=(2, 3, 2))  # W_h
        w[:, :3] = rng.normal(size=(2, 3, 2))  # W_z
        xs = [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]
        for d, states in enumerate((run_sequence(xs, params)[0, :, 0],
                                    run_sequence(xs[::-1], params)[0, ::-1, 1])):
            assert np.all(states[0] != 0.0), d
            assert np.allclose(states[1], 0.5 * states[0], atol=1e-12), d
            assert np.allclose(states[2], 0.5 * states[1], atol=1e-12), d

    def test_zero_hidden_zero_params_gives_zero(self):
        states = run_sequence([[1.0, -1.0], [3.0, 2.0], [-5.0, 0.5]], zero_params(2, 3))
        assert np.array_equal(states, np.zeros((1, 3, 2, 3)))

    def test_matches_scalar_oracle(self, rng):
        params = gru_arrays(4, 3, rng, scale=0.7)
        xs = rng.normal(size=(5, 4))
        states = run_sequence(xs, params)[0]
        for d in range(2):
            assert np.max(np.abs(states[:, d] - oracle_states(xs, params, d))) < 1e-6

    def test_batched_rows_match_loop(self, rng):
        params = gru_arrays(3, 2, rng, scale=0.5)
        xs = rng.normal(size=(4, 6, 3))
        batched = run_sequence(xs, params, n_rows=4)
        for i in range(4):
            for d in range(2):
                assert np.allclose(batched[i, :, d], oracle_states(xs[i], params, d), atol=1e-6)

    def test_shape_mismatch(self, rng):
        params = gru_arrays(3, 2, rng)
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((4, 5)), params)  # input width 5, cell takes 3
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((5, 3)), params, n_rows=2)  # 5 rows, 2 sequences
        with pytest.raises(DimensionError):
            run_sequence(np.zeros((4, 3)), params, n_rows=2, mask=np.ones((2, 3)))

    def test_update_gate_forced_closed_returns_h_prev(self, rng):
        params = gru_arrays(3, 2, rng, scale=0.3)
        params[2][:, 0] = -np.inf  # b_z: z = 0 exactly for unit 0: it keeps its zero state
        xs = 3.0 * rng.normal(size=(4, 3))
        states = run_sequence(xs, params)[0]
        assert np.array_equal(states[:, :, 0], np.zeros((4, 2)))
        assert np.all(states[:, :, 1] != 0.0)

    def test_update_gate_forced_open_returns_candidate(self, rng):
        params = gru_arrays(3, 2, rng, scale=0.3)
        params[2][:, :2] = np.inf  # b_z: z = 1 exactly: each state is its candidate
        xs = rng.normal(size=(4, 3))
        states = run_sequence(xs, params)[0]
        for d, order in enumerate((range(4), reversed(range(4)))):
            h_prev = np.zeros(2)
            for t in order:
                # with z = 1 the oracle's step is the candidate
                want = gru_scalar(xs[t], h_prev, *direction(params, d))
                assert np.allclose(states[t, d], want, atol=1e-12)
                h_prev = states[t, d]

    def test_mask_keeps_previous_state(self, rng):
        params = gru_arrays(3, 2, rng, scale=0.4)
        xs = rng.normal(size=(2, 4, 3))
        mask = np.array([[1, 0, 1, 1], [1, 1, 0, 0]])
        states = run_sequence(xs, params, n_rows=2, mask=mask)
        forward, backward = states[..., 0, :], states[..., 1, :]
        assert not np.allclose(forward[0, 2], forward[0, 1])
        assert np.array_equal(forward[0, 1], forward[0, 0])
        assert np.array_equal(forward[1, 2], forward[1, 1])
        assert np.array_equal(forward[1, 3], forward[1, 1])
        # direction 1 starts at the last step: masked trailing steps keep the zero state
        assert np.array_equal(backward[0, 1], backward[0, 2])
        assert np.array_equal(backward[1, 2:], np.zeros((2, 2)))
        for i in range(2):
            for d in range(2):
                assert np.allclose(states[i, :, d], oracle_states(xs[i], params, d, mask[i]),
                                   atol=1e-12)

    def test_gradients_through_step(self, rng):
        params = gru_arrays(3, 2, rng, scale=0.5)
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(3, 3)))
        h = gru_sequence(x, register(g, params), 1)
        report = ad.grad_check(g, weighted_sum(h, rng.normal(size=h.shape)), 1e-5, 1e-5)
        assert report.passed, report


def replay(x, w, u, b, n_rows, keep, upstream):
    """The layer as two single-direction nodes joined by a concat once
    computed it, loop by loop: forward states, then the gradients of
    (x, w, u, b) for the upstream gradient ``upstream``, each direction's
    nine gate blocks concatenated again on every call."""
    hidden = u.shape[2]
    steps = len(x) // n_rows
    outs, dxs, grads = [], [], []
    for d, order in enumerate((range(steps), range(steps - 1, -1, -1))):
        w_z, w_r, w_h = (w[d, k * hidden:(k + 1) * hidden].copy() for k in range(3))
        u_z, u_r, u_h = (u[d, k * hidden:(k + 1) * hidden].copy() for k in range(3))
        b_z, b_r, b_h = (b[d, k * hidden:(k + 1) * hidden].copy() for k in range(3))
        ax = (x @ np.concatenate((w_z, w_r, w_h)).T).reshape(n_rows, steps, 3, hidden)
        u_zr, b_zr = np.concatenate((u_z, u_r)).T, np.stack((b_z, b_r))
        acts = np.empty((5, n_rows, steps, hidden), x.dtype)
        prev, z, r, cand, out = acts
        h = np.zeros((n_rows, hidden), dtype=x.dtype)
        for t in order:
            a = ax[:, t]
            pre_zr = a[:, :2] + (h @ u_zr).reshape(n_rows, 2, hidden) + b_zr
            acts[1:3, :, t] = ad.stable_sigmoid(pre_zr).transpose(1, 0, 2)
            cand[:, t] = np.tanh(a[:, 2] + (r[:, t] * h) @ u_h.T + b_h)
            prev[:, t] = h
            h = np.where(keep[:, t, None], (1 - z[:, t]) * h + z[:, t] * cand[:, t], h)
            out[:, t] = h
        outs.append(out.reshape(n_rows * steps, hidden))

        g = upstream[:, d * hidden:(d + 1) * hidden].reshape(n_rows, steps, hidden)
        u_zr = np.concatenate((u_z, u_r))
        d_pre = np.empty((3, n_rows, steps, hidden), dtype=g.dtype)
        dh = np.zeros((n_rows, hidden), dtype=g.dtype)
        for t in reversed(order):
            dh = dh + g[:, t]
            zt, rt, ct, hp = z[:, t], r[:, t], cand[:, t], prev[:, t]
            dz = dh * (ct - hp) * zt * (1 - zt)
            dc = dh * zt * (1 - ct * ct)
            d_rh = dc @ u_h
            dr = d_rh * hp * rt * (1 - rt)
            m = keep[:, t, None]
            d_pre[:, :, t] = np.where(m, (dz, dr, dc), 0)
            dh = np.where(m, dh * (1 - zt) + d_rh * rt + np.concatenate((dz, dr), 1) @ u_zr, dh)
        dz, dr, dc = d_pre.reshape(3, n_rows * steps, hidden)
        prev = prev.reshape(n_rows * steps, hidden)
        rh = r.reshape(n_rows * steps, hidden) * prev
        dxs.append(np.concatenate((dz, dr, dc), 1) @ np.concatenate((w_z, w_r, w_h)))
        grads.append((np.concatenate((dz.T @ x, dr.T @ x, dc.T @ x)),
                      np.concatenate((dz.T @ prev, dr.T @ prev, dc.T @ rh)),
                      np.concatenate((dz.sum(0), dr.sum(0), dc.sum(0)))))
    return np.concatenate(outs, 1), (dxs[0] + dxs[1], *(np.stack(p) for p in zip(*grads)))


class TestGruSequence:
    def test_params_are_three_stacked_arrays_drawn_direction_by_direction(self):
        w, u, b = gru_arrays(3, 2, np.random.default_rng(5), scale=0.5)
        assert (w.shape, u.shape, b.shape) == ((2, 6, 3), (2, 6, 2), (2, 6))
        assert all(arr.dtype == np.float32 for arr in (w, u, b))
        draws = np.random.default_rng(5).uniform(-0.5, 0.5, size=2 * (18 + 12 + 6))
        for d, flat in enumerate(np.split(draws.astype(np.float32), 2)):
            w_d, u_d, b_d = np.split(flat, [18, 30])
            assert np.array_equal(w[d].ravel(), w_d)
            assert np.array_equal(u[d].ravel(), u_d)
            assert np.array_equal(b[d], b_d)

    def test_direction_1_equals_direction_0_over_reversed_rows(self, rng):
        params = gru_arrays(3, 4, rng, scale=0.6)
        for arr in params:
            arr[1] = arr[0]  # both directions share weights
        xs = rng.normal(size=(2, 5, 3))
        states = run_sequence(xs, params, n_rows=2)
        flipped = run_sequence(xs[:, ::-1], params, n_rows=2)
        assert np.allclose(states[:, :, 1], flipped[:, ::-1, 0], atol=1e-12)
        assert np.allclose(states[:, :, 0], flipped[:, ::-1, 1], atol=1e-12)

    def test_one_tape_node(self, rng):
        params = gru_arrays(3, 2, rng)
        g = ad.Graph(np.float64)
        cell = register(g, params)
        before = len(g.nodes)
        out = gru_sequence(g.constant(rng.normal(size=(40, 3))), cell, 4)
        assert [n.op for n in g.nodes[before:]] == ["const", "gru_sequence"]
        assert list(g.params) == ["gru.w", "gru.u", "gru.b"]
        assert out.shape == (40, 4)

    def test_backward_keeps_the_gradients_the_op_returned(self, rng, monkeypatch):
        # the w, u and b gradients are reshaped views; backward stores them uncopied
        returned = []
        record = ad._record

        def spy(op, inputs, fwd, bwd, name=None):
            def bwd_spy(*args):
                grads = bwd(*args)
                returned.extend(grads)
                return grads
            return record(op, inputs, fwd, bwd_spy if op == "gru_sequence" else bwd, name)

        monkeypatch.setattr(ad, "_record", spy)
        params = gru_arrays(3, 2, rng)
        g = ad.Graph(np.float64)
        h = gru_sequence(g.constant(rng.normal(size=(8, 3))), register(g, params), 2)
        grads = g.backward(weighted_sum(h, rng.normal(size=(8, 4))))
        _, *cell_grads = returned
        for name, grad in zip(("gru.w", "gru.u", "gru.b"), cell_grads):
            assert grad.base is not None, name
            assert grads[name] is grad, name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_with_ragged_mask(self, rng, reverse):
        # the loss reads one direction (reverse: direction 1, which starts at
        # each row's last real step) over a ragged mask with a 1-step row
        d = int(reverse)
        params = gru_arrays(3, 2, rng, scale=0.5)
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(3 * 4, 3)))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
        h = gru_sequence(x, register(g, params), 3, mask=mask)
        weights = np.zeros((12, 4))
        weights[:, 2 * d:2 * d + 2] = rng.normal(size=(12, 2))
        report = ad.grad_check(g, weighted_sum(h, weights), 1e-5, 1e-5)
        assert report.passed, report
        # the other direction's arrays get no gradient
        for name in ("gru.w", "gru.u", "gru.b"):
            grad = g.params[name].grad
            assert np.any(grad[d] != 0.0), name
            assert np.array_equal(grad[1 - d], np.zeros_like(grad[1 - d])), name
        # padded rows of the input get no gradient
        padded = ~mask.astype(bool).reshape(-1)
        assert np.array_equal(x.grad[padded], np.zeros((padded.sum(), 3)))

    @pytest.mark.parametrize("hidden", [4, 50])
    @pytest.mark.parametrize("n_rows, steps, rows", [
        (4, 6, "full"), (5, 6, "ragged"), (1, 7, None),  # None: the HAN's sentence level
    ])
    def test_float32_bytes_equal_the_single_direction_replay(self, rng, hidden, n_rows, steps,
                                                              rows):
        mask = None
        keep = np.ones((n_rows, steps), dtype=bool)
        if rows is not None:
            real = np.full(n_rows, steps)
            if rows == "ragged":
                real = rng.integers(1, steps + 1, size=n_rows)
                real[0] = 1
            keep = mask = np.arange(steps) < real[:, None]
        input_dim = 64 if rows is not None else 2 * hidden
        params = gru_arrays(input_dim, hidden, rng, scale=0.5)
        g = ad.Graph(np.float32)
        x = g.parameter("x", rng.normal(size=(n_rows * steps, input_dim)))
        out = gru_sequence(x, register(g, params), n_rows, mask)
        upstream = rng.normal(size=out.shape).astype(np.float32)
        grads = g.backward(weighted_sum(out, upstream))
        names = ("x", "gru.w", "gru.u", "gru.b")
        want_out, want_grads = replay(*(g.params[n].data for n in names), n_rows, keep, upstream)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == want_out.tobytes()
        for name, want in zip(names, want_grads):
            assert want.dtype == np.float32
            assert grads[name].shape == want.shape, name
            assert grads[name].tobytes() == want.tobytes(), name
