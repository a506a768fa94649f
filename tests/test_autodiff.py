import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.errors import DimensionError, DomainError, NumericError, UsageError

from oracles import matmul_loops, softmax_direct


class TestMatmul:
    """The tape's matrix products: ``linear``'s ``x @ w.T + b`` and the
    per-group weighted sum of ``attention_pool``."""

    @staticmethod
    def dense(g, x, w, b=None):
        b = np.zeros(np.shape(w)[0]) if b is None else b
        return ad.linear(g.constant(x), g.constant(w), g.constant(b))

    def test_identity(self):
        g = ad.Graph()
        out = self.dense(g, [[1.0, 2.0], [3.0, 4.0]], np.eye(2))
        assert np.allclose(out.data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        g = ad.Graph()
        out = self.dense(g, [[1.0, 2.0]], [[3.0, 4.0]], [0.5])
        assert np.allclose(out.data, [[11.5]])

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        out = self.dense(ad.Graph(np.float64), a, w, b)
        assert np.max(np.abs(out.data - (matmul_loops(a, w.T) + b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        g = ad.Graph()
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            self.dense(g, np.zeros((2, 3)), np.zeros((2, 2)))

    def test_gradients(self, rng):
        g = ad.Graph(np.float64)
        a = g.parameter("a", rng.normal(size=(2, 3)))
        w = g.parameter("w", rng.normal(size=(2, 3)))
        b = g.parameter("b", rng.normal(size=2))
        loss = ad.sum_all(ad.linear(a, w, b))
        report = ad.grad_check(g, loss, 1e-6, 1e-7)
        assert report.passed

    def test_stacked_operands(self, rng):
        # attention_pool's weighted sum is one (1, L) @ (L, rep) product per group
        g = ad.Graph(np.float64)
        states = g.parameter("states", rng.normal(size=(3 * 4, 2)))
        w, b, u = (g.parameter(n, rng.normal(size=shape))
                   for n, shape in (("w", (5, 2)), ("b", 5), ("u", 5)))
        out, alpha = ad.attention_pool(states, w, b, u, 3)
        assert out.shape == (3, 2) and alpha.shape == (3, 4)
        for i in range(3):
            expected = matmul_loops(alpha[i : i + 1], states.data[4 * i : 4 * i + 4])
            assert np.max(np.abs(out.data[i] - expected)) < 1e-12
        report = ad.grad_check(g, ad.sum_all(ad.mul(out, out)), 1e-6, 1e-7)
        assert report.passed, report
        with pytest.raises(DimensionError):
            ad.attention_pool(states, w, b, u, 5)
        with pytest.raises(DimensionError):
            ad.attention_pool(states, w, b, u, 3, mask=np.ones((4, 3), dtype=bool))


class TestLinear:
    def test_value_and_grad_check(self, rng):
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(4, 3)))
        w = g.parameter("w", rng.normal(size=(2, 3)))
        b = g.parameter("b", rng.normal(size=2))
        out = ad.linear(x, w, b)
        assert out.shape == (4, 2)
        expected = matmul_loops(x.data, w.data.T) + b.data
        assert np.max(np.abs(out.data - expected)) < 1e-12
        weights = g.constant(rng.normal(size=(4, 2)))
        report = ad.grad_check(g, ad.sum_all(ad.mul(ad.mul(out, out), weights)), 1e-6, 1e-7)
        assert report.passed, report

    def test_shape_mismatch_rejected(self):
        g = ad.Graph()
        x, w, b = (g.constant(np.zeros(shape)) for shape in ((4, 3), (2, 3), (2,)))
        for args in ((x, g.constant(np.zeros((2, 4))), b),
                     (x, w, g.constant(np.zeros(3))),
                     (g.constant(np.zeros(3)), w, b)):
            with pytest.raises(DimensionError, match="linear"):
                ad.linear(*args)


class TestConvMaxPool:
    @staticmethod
    def conv(x_val, w_val, b_val):
        g = ad.Graph(np.float64)
        x, w, b = (g.parameter(n, v) for n, v in (("x", x_val), ("w", w_val), ("b", b_val)))
        return g, ad.conv_max_pool(x, w, b)

    @pytest.mark.parametrize("width", [2, 3])
    def test_matches_window_loop_and_grad_check(self, rng, width):
        x_val = rng.normal(size=(7, 3))
        w_val = rng.normal(size=(3, width * 3))
        w_val[1] = 2.0 * w_val[0]  # filters 0 and 1 win at the same window
        b_val = np.array([0.5, 1.0, 0.5])
        g, out = self.conv(x_val, w_val, b_val)
        windows = [x_val[i : i + width].reshape(-1) for i in range(7 - width + 1)]
        acts = np.maximum([w_val @ win + b_val for win in windows], 0.0)
        assert out.shape == (1, 3)
        assert np.max(np.abs(out.data[0] - acts.max(axis=0))) < 1e-12
        assert np.argmax(acts[:, 0]) == np.argmax(acts[:, 1]) and acts[:, 0].max() > 0
        weights = g.constant(rng.normal(size=(1, 3)))
        report = ad.grad_check(g, ad.sum_all(ad.mul(out, weights)), 1e-6, 1e-6)
        assert report.passed, report

    def test_ties_route_gradient_to_the_first_window(self):
        # an all-padding document: every window is relu(b), and the
        # gradient goes to the earliest one
        w_val = np.array([[1.0, -2.0, 3.0, 0.0], [2.0, 1.0, -1.0, 4.0]])
        g, out = self.conv(np.zeros((5, 2)), w_val, np.array([0.5, 0.25]))
        assert np.array_equal(out.data, [[0.5, 0.25]])
        grads = g.backward(ad.sum_all(out))
        expected_x = np.zeros((5, 2))
        expected_x[:2] = w_val.sum(axis=0).reshape(2, 2)
        assert np.array_equal(grads["x"], expected_x)
        assert np.array_equal(grads["w"], np.zeros((2, 4)))
        assert np.array_equal(grads["b"], [1.0, 1.0])

    def test_filter_never_active_gets_no_gradient(self, rng):
        x_val = rng.normal(size=(6, 3))
        w_val = rng.normal(size=(3, 6))
        w_val[1] = 0.0  # pre-activation exactly 0 at every window
        b_val = np.array([0.5, 0.0, -100.0])  # filter 2 below 0 everywhere
        weights = rng.normal(size=(1, 3))
        g, out = self.conv(x_val, w_val, b_val)
        grads = g.backward(ad.sum_all(ad.mul(out, g.constant(weights))))
        assert np.array_equal(out.data[0, 1:], [0.0, 0.0])
        assert not np.any(grads["w"][1:]) and not np.any(grads["b"][1:])
        g_live, out_live = self.conv(x_val, w_val[:1], b_val[:1])
        live = g_live.backward(ad.sum_all(ad.mul(out_live, g_live.constant(weights[:, :1]))))
        assert np.array_equal(grads["x"], live["x"])

    def test_winner_rows_backward_matches_the_full_product(self, rng):
        # filters 0-2 share one winning window, filter 3 wins at the last
        # position and filter 4's pre-activations are all below 0
        width, dim, steps = 3, 4, 9
        positions = steps - width + 1
        x_val = rng.normal(size=(steps, dim))
        x_val[-width:] *= 3.0
        w_val = rng.normal(size=(5, width * dim))
        w_val[1], w_val[2] = 2.0 * w_val[0], 0.5 * w_val[0]
        w_val[3] = x_val[-width:].reshape(-1)
        b_val = np.array([0.0, 0.0, 0.0, 0.0, -100.0])
        weights = rng.normal(size=(1, 5))
        g, out = self.conv(x_val, w_val, b_val)
        loss = ad.sum_all(ad.mul(out, g.constant(weights)))
        report = ad.grad_check(g, loss, 1e-6, 1e-6)
        assert report.passed, report

        acts = np.array([[w_val[f] @ x_val[p : p + width].reshape(-1) + b_val[f]
                          for f in range(5)] for p in range(positions)])
        winners = acts.argmax(axis=0)
        assert winners[0] == winners[1] == winners[2] and acts[:, 0].max() > 0
        assert winners[3] == positions - 1 and acts[:, 4].max() <= 0
        expected = np.zeros_like(x_val)  # the whole (positions, F) product, term by term
        for p in range(positions):
            for f in range(5):
                g_act = weights[0, f] if p == winners[f] and acts[p, f] > 0 else 0.0
                for j in range(width):
                    expected[p + j] += g_act * w_val[f, j * dim : (j + 1) * dim]
        assert np.max(np.abs(g.backward(loss)["x"] - expected)) < 1e-12

    def test_shape_errors(self):
        g = ad.Graph()
        x = g.constant(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match="shorter than window"):
            ad.conv_max_pool(x, g.constant(np.zeros((4, 9))), g.constant(np.zeros(4)))
        with pytest.raises(DimensionError, match="conv_max_pool needs"):
            ad.conv_max_pool(x, g.constant(np.zeros((4, 5))), g.constant(np.zeros(4)))
        with pytest.raises(DimensionError, match="conv_max_pool needs"):
            ad.conv_max_pool(x, g.constant(np.zeros((4, 6))), g.constant(np.zeros(3)))
        with pytest.raises(DimensionError, match="conv_max_pool needs"):
            ad.conv_max_pool(g.constant(np.zeros(6)), g.constant(np.zeros((4, 6))),
                             g.constant(np.zeros(4)))


class TestAttentionPool:
    @staticmethod
    def pool(rng, n_groups, length, mask=None, rep=3, m=4, dtype=np.float64):
        g = ad.Graph(dtype)
        states = g.parameter("states", rng.normal(size=(n_groups * length, rep)))
        w, b, u = (g.parameter(n, rng.normal(size=shape))
                   for n, shape in (("w", (m, rep)), ("b", m), ("u", m)))
        out, alpha = ad.attention_pool(states, w, b, u, n_groups, mask)
        return g, out, alpha

    @pytest.mark.parametrize("n_groups, mask", [
        (3, [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]),  # ragged, one 1-word group
        (1, None),
        (2, [[1, 1, 1, 1], [0, 0, 1, 0]]),  # every position but one masked
    ])
    def test_grad_check(self, rng, n_groups, mask):
        g, out, alpha = self.pool(rng, n_groups, 4, mask)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        if mask is not None:
            real = np.array(mask, dtype=bool)
            assert np.array_equal(alpha[~real], np.zeros((~real).sum()))
            lone = real.sum(axis=1) == 1
            assert np.array_equal(alpha[lone][real[lone]], np.ones(lone.sum()))
        loss = ad.sum_all(ad.mul(out, g.constant(rng.normal(size=out.shape))))
        report = ad.grad_check(g, loss, 1e-6, 1e-6)
        assert report.passed, report
        if mask is not None:  # masked rows get no gradient
            assert not g.params["states"].grad[~real.reshape(-1)].any()

    @staticmethod
    def chain(x, w, b, u, n_groups, mask, upstream):
        """The attention as separate tape ops once computed it, forward and
        backward, op by op: word level (masked, stacked products) or, for
        ``mask=None``, sentence level (one group, 2-D products)."""
        n_rows, rep = x.shape
        length = n_rows // n_groups
        hidden = np.tanh(x @ w.T.copy() + b)
        u_col = u.reshape(len(u), 1)
        scores = hidden @ u_col
        if mask is None:
            alpha = ad.stable_softmax(scores.reshape(1, n_rows))
            out = alpha @ x
            g_alpha = upstream @ np.swapaxes(x, -1, -2)
            g_weighted = np.swapaxes(alpha, -1, -2) @ upstream
        else:
            logits = scores.reshape(n_groups, length) + np.where(mask, 0.0, -1e9).astype(x.dtype)
            alpha = ad.stable_softmax(logits)
            alpha3, x3 = alpha.reshape(n_groups, 1, length), x.reshape(n_groups, length, rep)
            out = (alpha3 @ x3).reshape(n_groups, rep)
            g3 = upstream.reshape(n_groups, 1, rep)
            g_alpha = (g3 @ np.swapaxes(x3, -1, -2)).reshape(n_groups, length)
            g_weighted = (np.swapaxes(alpha3, -1, -2) @ g3).reshape(n_rows, rep)
        dot = np.sum(g_alpha * alpha, axis=-1, keepdims=True)
        g_scores = (alpha * (g_alpha - dot)).reshape(n_rows, 1)
        g_hidden = g_scores @ np.swapaxes(u_col, -1, -2)
        g_u = (np.swapaxes(hidden, -1, -2) @ g_scores).reshape(u.shape)
        g_pre = g_hidden * (1.0 - hidden * hidden)
        grads = (g_weighted + g_pre @ w.T.copy().T, g_pre.T @ x, g_pre.sum(0), g_u)
        return out, alpha, grads

    @pytest.mark.parametrize("n_groups, length, ragged", [
        (1, 1, None), (1, 1, False), (1, 7, None), (5, 1, False), (4, 6, False), (4, 6, True),
    ])
    def test_float32_bytes_equal_the_op_chain(self, rng, n_groups, length, ragged):
        # ragged None: sentence level, no mask; otherwise word level with a
        # mask, all true or with 1..length real positions per group (1 in the first)
        mask = None
        if ragged is not None:
            real = np.full(n_groups, length)
            if ragged:
                real = rng.integers(1, length + 1, size=n_groups)
                real[0] = 1
            mask = np.arange(length) < real[:, None]
        g, out, alpha = self.pool(rng, n_groups, length, mask, rep=100, m=100, dtype=np.float32)
        upstream = rng.normal(size=out.shape).astype(np.float32)
        grads = g.backward(ad.sum_all(ad.mul(out, g.constant(upstream))))
        inputs = [g.params[n].data for n in ("states", "w", "b", "u")]
        want_out, want_alpha, want_grads = self.chain(*inputs, n_groups, mask, upstream)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == want_out.tobytes()
        assert alpha.reshape(want_alpha.shape).tobytes() == want_alpha.tobytes()
        for name, want in zip(("states", "w", "b", "u"), want_grads):
            assert want.dtype == np.float32
            assert grads[name].tobytes() == want.tobytes(), name

    def test_recompute_refreshes_the_saved_weights(self, rng):
        # backward after a recompute equals backward of a graph built at the new values
        g, out, _ = self.pool(rng, 2, 3)
        g.params["u"].data *= 2.0
        g.recompute()
        grads = g.backward(ad.sum_all(ad.mul(out, out)))
        g_ref, out_ref, _ = self.pool(np.random.default_rng(0), 2, 3)
        for name in g.params:
            g_ref.params[name].data[...] = g.params[name].data
        g_ref.recompute()
        ref = g_ref.backward(ad.sum_all(ad.mul(out_ref, out_ref)))
        for name in g.params:
            assert np.array_equal(grads[name], ref[name]), name

    def test_shape_errors(self):
        g = ad.Graph()
        states = g.constant(np.zeros((6, 2)))
        w, b, u = (g.constant(np.zeros(shape)) for shape in ((3, 2), 3, 3))
        for args in ((states, g.constant(np.zeros((3, 4))), b, u, 2),
                     (states, w, g.constant(np.zeros(2)), u, 2),
                     (states, w, b, g.constant(np.zeros(4)), 2),
                     (g.constant(np.zeros(6)), w, b, u, 1),
                     (states, w, b, u, 4),
                     (states, w, b, u, 0)):
            with pytest.raises(DimensionError, match="attention_pool needs"):
                ad.attention_pool(*args)
        with pytest.raises(DimensionError, match="mask"):
            ad.attention_pool(states, w, b, u, 2, mask=np.ones((2, 2)))


class TestStableSigmoid:
    @staticmethod
    def two_branch(x):
        """The textbook stable logistic: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_two_branch_formula(self, rng, dtype):
        special = [np.inf, -np.inf, 0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 750.0, -750.0]
        x = np.concatenate([special, *(rng.normal(scale=s, size=100) for s in (0.1, 3.0, 40.0))])
        x = x.astype(dtype).reshape(10, 31)
        got = ad.stable_sigmoid(x)
        assert got.dtype == dtype and got.shape == x.shape
        assert got.tobytes() == self.two_branch(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_gives_nan(self, dtype):
        assert np.all(np.isnan(ad.stable_sigmoid(np.array([np.nan, -np.nan], dtype=dtype))))


class TestSoftmax:
    """``stable_softmax``, and the grouped softmax inside ``attention_pool``."""

    def test_symmetry(self):
        assert np.allclose(ad.stable_softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_huge_inputs_no_overflow(self):
        out = ad.stable_softmax(np.array([1000.0, 1000.0, 1000.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1 / 3] * 3)

    def test_direct_evaluation(self):
        out = ad.stable_softmax(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, softmax_direct([1.0, 2.0, 3.0]), atol=1e-9)
        assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=5e-5)

    def test_sums_to_one_and_permutation_equivariant(self, rng):
        for _ in range(25):
            v = rng.normal(scale=5.0, size=rng.integers(1, 9))
            out = ad.stable_softmax(v)
            assert abs(out.sum() - 1.0) < 1e-6
            perm = rng.permutation(len(v))
            assert np.allclose(out[perm], ad.stable_softmax(v[perm]), atol=1e-12)

    def test_empty_vector_rejected(self):
        g = ad.Graph()
        w, b, u = (g.constant(np.zeros(shape)) for shape in ((2, 2), 2, 2))
        with pytest.raises(DimensionError, match="attention_pool"):
            ad.attention_pool(g.constant(np.zeros((0, 2))), w, b, u, 1)

    def test_rowwise_gradients(self, rng):
        # three groups of four rows, each group its own softmax
        g = ad.Graph(np.float64)
        states = g.parameter("states", rng.normal(size=(3 * 4, 2)))
        w, b, u = (g.constant(rng.normal(size=shape)) for shape in ((3, 2), 3, 3))
        out, _ = ad.attention_pool(states, w, b, u, 3)
        head = ad.sum_all(ad.mul(out, g.constant(rng.normal(size=(3, 2)))))
        report = ad.grad_check(g, head, 1e-6, 1e-7)
        assert report.passed, report


class TestBackward:
    def test_sum_gradient_all_ones(self):
        g = ad.Graph(np.float64)
        theta = g.parameter("theta", np.array([1.0, 2.0, 3.0]))
        grads = g.backward(ad.sum_all(theta))
        assert np.array_equal(grads["theta"], np.ones(3))

    def test_square_gradient(self):
        g = ad.Graph(np.float64)
        theta = g.parameter("theta", np.array(3.0))
        grads = g.backward(ad.mul(theta, theta))
        assert np.allclose(grads["theta"], 6.0)

    def test_non_scalar_loss_rejected(self):
        g = ad.Graph()
        theta = g.parameter("theta", np.array([1.0, 2.0]))
        with pytest.raises(UsageError, match="scalar"):
            g.backward(ad.mul(theta, theta))

    def test_unused_parameter_gets_zero_gradient(self):
        g = ad.Graph(np.float64)
        used = g.parameter("used", np.array([2.0]))
        unused = g.parameter("unused", np.array([[1.0, 2.0]]))
        grads = g.backward(ad.sum_all(used))
        assert np.array_equal(grads["unused"], np.zeros((1, 2)))
        assert unused.grad is not None and unused.grad.shape == (1, 2)

    def test_gradient_slots_shape_match(self, rng):
        g = ad.Graph(np.float64)
        w = g.parameter("w", rng.normal(size=(3, 2)))
        b = g.parameter("b", rng.normal(size=3))
        hidden = ad.linear(g.constant(rng.normal(size=(4, 2))), w, b)
        g.backward(ad.sum_all(ad.mul(hidden, hidden)))
        for node in g.params.values():
            assert node.grad.shape == node.data.shape

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nan_detected_and_named(self):
        # the loss is 2e298, but the two 1e308 rows of x sum to inf in w's gradient
        g = ad.Graph(np.float64)
        w = g.parameter("w", np.array([[1e-10]]))
        out = ad.linear(g.constant([[1e308], [1e308]]), w, g.parameter("b", np.zeros(1)))
        loss = ad.sum_all(out)
        assert np.isfinite(loss.data)
        with pytest.raises(NumericError, match=r"name='w'.*from node.*op=linear"):
            g.backward(loss)

    def test_leaves_no_parameter_feeds_get_no_gradient(self, rng):
        # a frozen table, a constant operand and a dropout mask feed the
        # loss, but no parameter feeds them: their grad stays None, and the
        # parameters' gradients equal those of the graph with a trainable table
        def build(frozen):
            g = ad.Graph(np.float32)
            vectors = np.random.default_rng(1).normal(size=(6, 4))
            table = g.constant(vectors) if frozen else g.parameter("table", vectors)
            w = g.parameter("w", np.random.default_rng(2).normal(size=(3, 4)))
            rows = ad.lookup(table, [1, 3, 3, 0])
            hidden = ad.dropout(ad.linear(rows, w, g.constant(np.zeros(3))), 0.5, "train",
                                np.random.default_rng(3))
            loss = ad.sum_all(ad.mul(hidden, g.constant(np.full((4, 3), 0.5))))
            return g, table, loss

        g, table, loss = build(frozen=True)
        grads = g.backward(loss)
        assert list(grads) == ["w"]
        assert table.grad is None
        for node in g.nodes:
            if node.op != "param" and (node.op == "const" or node.inputs[0] is table):
                assert node.grad is None, node
        g_ref, _, loss_ref = build(frozen=False)
        assert np.array_equal(grads["w"], g_ref.backward(loss_ref)["w"])

    def test_shared_subexpression_accumulates(self):
        # loss = (x*y) + (x*z): dx = y + z
        g = ad.Graph(np.float64)
        x = g.parameter("x", np.array(2.0))
        y = g.constant(np.array(3.0))
        z = g.constant(np.array(5.0))
        loss = ad.add(ad.mul(x, y), ad.mul(x, z))
        grads = g.backward(loss)
        assert np.allclose(grads["x"], 8.0)


class TestOps:
    def test_lookup_scatter_and_pad_exclusion(self):
        g = ad.Graph(np.float64)
        table = g.parameter("table", np.arange(12.0).reshape(4, 3))
        out = ad.lookup(table, [0, 2, 2], pad_index=0)
        grads = g.backward(ad.sum_all(out))
        expected = np.zeros((4, 3))
        expected[2] = 2.0  # row 2 gathered twice; pad row stays zero
        assert np.array_equal(grads["table"], expected)

    def test_concat_grads(self, rng):
        g = ad.Graph(np.float64)
        a = g.parameter("a", rng.normal(size=(2, 3)))
        b = g.parameter("b", rng.normal(size=(2, 2)))
        joined = ad.concat((a, b), axis=1)
        weights = g.constant(rng.normal(size=(2, 5)))
        head = ad.sum_all(ad.mul(ad.mul(joined, joined), weights))
        report = ad.grad_check(g, head, 1e-6, 1e-7)
        assert report.passed


class TestCrossEntropy:
    def test_matches_log_of_softmax(self, rng):
        v = rng.normal(size=(3, 6))
        targets = [4, 0, 5]
        g = ad.Graph(np.float64)
        loss = ad.cross_entropy(g.constant(v), targets).data
        probs = ad.stable_softmax(v)
        assert loss.shape == ()
        assert np.allclose(loss, -np.log(probs[[0, 1, 2], targets]).sum(), atol=1e-12)

    @pytest.mark.parametrize("target", [0, 1])
    def test_grad_check(self, rng, target):
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(1, 3)))
        w = g.parameter("w", rng.normal(size=(2, 3)))
        b = g.parameter("b", rng.normal(size=2))
        loss = ad.cross_entropy(ad.linear(x, w, b), target)
        report = ad.grad_check(g, loss, 1e-6, 1e-7)
        assert report.passed, report

    def test_grad_check_one_target_per_row(self, rng):
        g = ad.Graph(np.float64)
        logits = g.parameter("logits", rng.normal(size=(3, 4)))
        report = ad.grad_check(g, ad.cross_entropy(logits, [3, 0, 3]), 1e-6, 1e-7)
        assert report.passed, report

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_far_apart_stay_finite(self, dtype):
        for target, expected_loss, expected_grad in ((0, 0.0, [0.0, 0.0]),
                                                     (1, 1e4, [1.0, -1.0])):
            g = ad.Graph(dtype)
            logits = g.parameter("logits", [[1e4, 0.0]])
            loss = ad.cross_entropy(logits, target)
            grad = g.backward(loss)["logits"]
            assert float(loss.data) == expected_loss
            assert np.array_equal(grad, [expected_grad])

    def test_target_out_of_range_rejected(self):
        g = ad.Graph()
        with pytest.raises(DomainError, match="targets"):
            ad.cross_entropy(g.constant([[0.0, 1.0]]), 2)
        with pytest.raises(DomainError, match="2-D"):
            ad.cross_entropy(g.constant([0.0, 1.0]), 0)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        g = ad.Graph()
        v = g.constant(rng.normal(size=(5, 5)))
        assert ad.dropout(v, 0.5, "eval") is v

    def test_rate_zero_is_identity(self, rng):
        g = ad.Graph()
        v = g.constant(rng.normal(size=(5,)))
        assert ad.dropout(v, 0.0, "train", rng) is v

    def test_rate_domain(self):
        g = ad.Graph()
        v = g.constant(np.ones(3))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                ad.dropout(v, bad, "train", np.random.default_rng(0))

    def test_inverted_scaling_concentration(self):
        # 1e5 ones at rate 0.5: mean within 3 sigma of 1 under binomial variance
        rng = np.random.default_rng(7)
        g = ad.Graph()
        v = g.constant(np.ones(100_000))
        out = ad.dropout(v, 0.5, "train", rng).data
        n = out.size
        sigma = 1.0 / np.sqrt(n)  # std of mean of {0,2} coin flips
        assert abs(out.mean() - 1.0) <= 3 * sigma
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)

    def test_frozen_mask_consistent_gradient(self):
        g = ad.Graph(np.float64)
        x = g.parameter("x", np.linspace(-1, 1, 12).reshape(3, 4))
        dropped = ad.dropout(x, 0.5, "train", np.random.default_rng(3))
        report = ad.grad_check(g, ad.sum_all(ad.mul(dropped, dropped)), 1e-6, 1e-7)
        assert report.passed


class TestGradCheck:
    def test_linear_graph_machine_epsilon(self, rng):
        g = ad.Graph(np.float64)
        w = g.parameter("w", rng.normal(size=(1, 4)))
        x = g.constant(rng.normal(size=(1, 4)))
        report = ad.grad_check(g, ad.sum_all(ad.linear(x, w, g.constant([0.0]))), 1e-5, 1e-7)
        assert report.passed
        assert report.max_error < 1e-8

    def test_requires_float64(self):
        g = ad.Graph(np.float32)
        w = g.parameter("w", np.ones((1, 1)))
        loss = ad.sum_all(w)
        with pytest.raises(UsageError, match="float64"):
            ad.grad_check(g, loss, 1e-5, 1e-4)

    def test_corrupted_gradient_detected(self, rng):
        # a deliberately wrong backward rule must show error > 1e-2
        def bad_square(a):
            def fwd(x):
                return x * x

            def bwd(grad, out, x):
                return (grad * 3.0 * x,)  # wrong: should be 2x

            return ad._record("bad_square", (a,), fwd, bwd)

        g = ad.Graph(np.float64)
        w = g.parameter("w", rng.normal(size=(3,)) + 2.0)
        report = ad.grad_check(g, ad.sum_all(bad_square(w)), 1e-5, 1e-4)
        assert not report.passed
        assert report.max_error > 1e-2

    def test_report_lists_every_parameter(self, rng):
        g = ad.Graph(np.float64)
        a = g.parameter("a", rng.normal(size=(2,)))
        b = g.parameter("b", rng.normal(size=(2,)))
        report = ad.grad_check(g, ad.sum_all(ad.mul(a, a)), 1e-5, 1e-4)
        assert set(report.per_param) == {"a", "b"}


def _dense_lookup_grad(shape, idx, g, pad_index):
    """The dense reference: scatter-add into a zero table, pad row zeroed."""
    dense = np.zeros(shape, dtype=g.dtype)
    np.add.at(dense, idx, g)
    dense[pad_index] = 0.0
    return dense


class TestRowSparseLookup:
    def test_pad_rows_dropped(self):
        g = ad.Graph(np.float64)
        table = g.parameter("table", np.arange(15.0).reshape(5, 3))
        grads = g.backward(ad.sum_all(ad.lookup(table, [0, 3, 0, 1], pad_index=0)))
        grad = grads["table"]
        assert isinstance(grad, ad.RowSparseGrad)
        assert grad.indices.tolist() == [1, 3]
        assert grad.shape == (5, 3)
        assert grad.nbytes == grad.indices.nbytes + grad.values.nbytes

    def test_repeated_indices_summed(self):
        g = ad.Graph(np.float64)
        table = g.parameter("table", np.zeros((6, 2)))
        weights = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0], [5.0, 7.0]])
        out = ad.lookup(table, [4, 2, 4, 4], pad_index=0)
        grad = g.backward(ad.sum_all(ad.mul(out, g.constant(weights))))["table"]
        assert grad.indices.tolist() == [2, 4]
        assert np.array_equal(grad.values, [[10.0, 20.0], [106.0, 209.0]])

    def test_densified_equals_add_at_reference_bitwise(self, rng):
        shape = (50, 7)
        idx = rng.integers(0, 12, size=40)  # many repeats and pad positions
        upstream = rng.normal(size=(40, 7)).astype(np.float32)
        g = ad.Graph(np.float32)
        table = g.parameter("table", rng.normal(size=shape))
        out = ad.lookup(table, idx, pad_index=0)
        grad = g.backward(ad.sum_all(ad.mul(out, g.constant(upstream))))["table"]
        dense = np.asarray(grad)
        assert dense.dtype == np.float32
        assert np.array_equal(dense, _dense_lookup_grad(shape, idx, upstream, 0))

    def test_many_lookups_sum_like_the_dense_tape(self, rng):
        # one lookup per position, as the HAN does; the dense tape summed the
        # per-lookup tables in reverse recording order
        shape = (30, 5)
        positions = [rng.integers(0, 10, size=4) for _ in range(12)]
        upstreams = [rng.normal(size=(4, 5)).astype(np.float32) for _ in positions]
        g = ad.Graph(np.float32)
        table = g.parameter("table", rng.normal(size=shape))
        terms = [ad.sum_all(ad.mul(ad.lookup(table, idx, pad_index=0), g.constant(up)))
                 for idx, up in zip(positions, upstreams)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        grad = g.backward(loss)["table"]
        expected = None
        for idx, up in reversed(list(zip(positions, upstreams))):
            part = _dense_lookup_grad(shape, idx, up, 0)
            expected = part if expected is None else expected + part
        assert np.array_equal(np.asarray(grad), expected)

    def test_table_read_by_lookup_and_matmul_gets_dense_sum(self, rng):
        g = ad.Graph(np.float64)
        table_val = rng.normal(size=(6, 3))
        x_val = rng.normal(size=(2, 3))
        table = g.parameter("table", table_val)
        idx = [1, 4, 4, 2]
        product = ad.linear(g.constant(x_val), table, g.constant(np.zeros(6)))
        loss = ad.add(ad.sum_all(ad.lookup(table, idx, pad_index=0)), ad.sum_all(product))
        grad = g.backward(loss)["table"]
        assert isinstance(grad, np.ndarray)
        expected = _dense_lookup_grad((6, 3), idx, np.ones((4, 3)), 0)
        expected += np.ones((2, 6)).T @ x_val
        assert np.allclose(grad, expected, rtol=0, atol=1e-12)
        assert ad.grad_check(g, loss, 1e-6, 1e-7).passed

    def test_grad_check_through_lookup(self, rng):
        g = ad.Graph(np.float64)
        table = g.parameter("table", rng.normal(size=(5, 3)))
        w = g.parameter("w", rng.normal(size=(2, 3)))
        rows = ad.lookup(table, [1, 3, 3, 2], pad_index=0)
        hidden = ad.linear(rows, w, g.parameter("b", rng.normal(size=2)))
        head = ad.mul(hidden, g.constant(rng.normal(size=(4, 2))))
        report = ad.grad_check(g, ad.sum_all(head), 1e-6, 1e-7)
        assert report.passed, report

    def test_backward_allocates_nothing_table_sized(self, rng):
        g = ad.Graph(np.float32)
        table = g.parameter("table", np.zeros((20_000, 64)))
        terms = [ad.sum_all(ad.lookup(table, rng.integers(0, 500, size=30), pad_index=0))
                 for _ in range(20)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        tracemalloc.start()
        try:
            g.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes / 4  # one dense table gradient would not fit

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_row_raises_naming_the_node(self):
        # each upstream row is finite, but two of them summed into one table
        # row overflow float32
        g = ad.Graph(np.float32)
        table = g.parameter("table", np.full((3, 2), 1e-38))
        out = ad.lookup(table, [1, 1], pad_index=0)
        loss = ad.sum_all(ad.mul(out, g.constant(np.full((2, 2), 3e38))))
        assert np.isfinite(loss.data)
        with pytest.raises(NumericError, match=r"name='table'.*op=lookup"):
            g.backward(loss)


class TestRowIndexedAccumulator:
    def test_rows_add_at_their_positions_in_order(self, rng):
        shape = (40, 3)
        acc = ad.RowSparseGrad(np.array([2, 5, 9, 30]), np.zeros((4, 3), np.float32), shape)
        dense = np.zeros(shape, np.float32)
        for idx in ([5, 30], [2, 5, 9], [9]):
            part = ad.RowSparseGrad(np.array(idx), rng.normal(size=(len(idx), 3))
                                    .astype(np.float32), shape)
            part.add_to(acc)
            part.add_to(dense)
        assert np.array_equal(np.asarray(acc), dense)

    @pytest.mark.parametrize("outside", [[0], [3], [31], [2, 41]])
    def test_row_outside_accumulator_refused(self, outside):
        acc = ad.RowSparseGrad(np.array([2, 5, 9, 30]), np.zeros((4, 2)), (50, 2))
        part = ad.RowSparseGrad(np.array(outside), np.ones((len(outside), 2)), (50, 2))
        with pytest.raises(UsageError, match="outside"):
            part.add_to(acc)
        assert not acc.values.any()

    def test_dense_gradient_refused(self):
        acc = ad.RowSparseGrad(np.arange(3), np.zeros((3, 2)), (3, 2))
        with pytest.raises(TypeError):
            acc += np.ones((3, 2))
        assert not acc.values.any()


class TestTapeLifetime:
    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = ad.Graph(np.float32)
            table = g.parameter("table", np.ones((4, 3)))
            loss = ad.sum_all(ad.scale(ad.lookup(table, [1, 2, 2]), 2.0))
            grads = g.backward(loss)
            graph_ref = weakref.ref(g)
            grad_ref = weakref.ref(grads["table"].values)
            del g, table, loss, grads
            assert graph_ref() is None
            assert grad_ref() is None
        finally:
            gc.enable()

    def test_tensor_of_a_freed_graph_is_refused(self):
        x = ad.Graph().constant(np.ones(2))
        with pytest.raises(UsageError, match="freed"):
            ad.add(x, x)
