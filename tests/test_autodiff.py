import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from controkit import autodiff as ad
from controkit.errors import DimensionError, DomainError, NumericError, UsageError

from oracles import matmul_loops, softmax_direct


class TestMatmul:
    def test_identity(self):
        g = ad.Graph()
        a = g.constant(np.eye(2))
        b = g.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        g = ad.Graph()
        out = ad.matmul(g.constant([[1.0, 2.0]]), g.constant([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        g = ad.Graph(np.float64)
        out = ad.matmul(g.constant(a), g.constant(b))
        assert np.max(np.abs(out.data - matmul_loops(a, b))) < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        g = ad.Graph()
        a = g.constant(np.zeros((2, 3)))
        b = g.constant(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_gradients(self, rng):
        a_val = rng.normal(size=(2, 3))
        b_val = rng.normal(size=(3, 2))
        g = ad.Graph(np.float64)
        a = g.parameter("a", a_val)
        b = g.parameter("b", b_val)
        loss = ad.sum_all(ad.matmul(a, b))
        report = ad.grad_check(g, loss, 1e-6, 1e-7)
        assert report.passed


class TestSoftmax:
    def test_symmetry(self):
        g = ad.Graph()
        assert np.allclose(ad.softmax(g.constant([0.0, 0.0])).data, [0.5, 0.5])

    def test_huge_inputs_no_overflow(self):
        g = ad.Graph()
        out = ad.softmax(g.constant([1000.0, 1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1 / 3] * 3)

    def test_direct_evaluation(self):
        g = ad.Graph(np.float64)
        out = ad.softmax(g.constant([1.0, 2.0, 3.0])).data
        assert np.allclose(out, softmax_direct([1.0, 2.0, 3.0]), atol=1e-9)
        assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=5e-5)

    def test_sums_to_one_and_permutation_equivariant(self, rng):
        for _ in range(25):
            v = rng.normal(scale=5.0, size=rng.integers(1, 9))
            g = ad.Graph(np.float64)
            out = ad.softmax(g.constant(v)).data
            assert abs(out.sum() - 1.0) < 1e-6
            perm = rng.permutation(len(v))
            out_p = ad.softmax(g.constant(v[perm])).data
            assert np.allclose(out[perm], out_p, atol=1e-12)

    def test_empty_vector_rejected(self):
        g = ad.Graph()
        with pytest.raises(DomainError):
            ad.softmax(g.constant(np.zeros(0)))

    def test_rowwise_gradients(self, rng):
        g = ad.Graph(np.float64)
        x = g.parameter("x", rng.normal(size=(3, 4)))
        picked = ad.element(ad.softmax(x), 1, 2)
        report = ad.grad_check(g, picked, 1e-6, 1e-7)
        assert report.passed


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
        x = g.constant(rng.normal(size=(2, 4)))
        loss = ad.sum_all(ad.relu(ad.matmul(w, x)))
        g.backward(loss)
        for node in g.params.values():
            assert node.grad.shape == node.data.shape

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_detected_and_named(self):
        g = ad.Graph(np.float64)
        theta = g.parameter("theta", np.array([-1.0]))
        loss = ad.sum_all(ad.log(theta))  # log of a negative -> nan
        with pytest.raises(NumericError, match="node"):
            g.backward(loss)

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
    def test_relu_routes_gradient(self):
        g = ad.Graph(np.float64)
        x = g.parameter("x", np.array([3.0, -3.0]))
        g.backward(ad.sum_all(ad.relu(x)))
        assert np.array_equal(x.grad, [1.0, 0.0])

    def test_max_over_rows_first_winner_on_ties(self):
        g = ad.Graph(np.float64)
        x = g.parameter("x", np.array([[1.0, 5.0], [1.0, 2.0]]))
        out = ad.max_over_rows(x)
        assert np.array_equal(out.data, [[1.0, 5.0]])
        g.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_windows_content_and_gradient(self):
        g = ad.Graph(np.float64)
        x = g.parameter("x", np.arange(8.0).reshape(4, 2))
        win = ad.windows(x, 2)
        assert win.data.shape == (3, 4)
        assert np.array_equal(win.data[0], [0, 1, 2, 3])
        report = ad.grad_check(g, ad.sum_all(ad.mul(win, win)), 1e-6, 1e-7)
        assert report.passed

    def test_windows_too_short(self):
        g = ad.Graph()
        with pytest.raises(DimensionError):
            ad.windows(g.constant(np.zeros((2, 3))), 5)

    def test_lookup_scatter_and_pad_exclusion(self):
        g = ad.Graph(np.float64)
        table = g.parameter("table", np.arange(12.0).reshape(4, 3))
        out = ad.lookup(table, [0, 2, 2], pad_index=0)
        grads = g.backward(ad.sum_all(out))
        expected = np.zeros((4, 3))
        expected[2] = 2.0  # row 2 gathered twice; pad row stays zero
        assert np.array_equal(grads["table"], expected)

    def test_concat_row_col_element_grads(self, rng):
        g = ad.Graph(np.float64)
        a = g.parameter("a", rng.normal(size=(2, 3)))
        b = g.parameter("b", rng.normal(size=(2, 2)))
        joined = ad.concat((a, b), axis=1)
        picked = ad.add(ad.sum_all(ad.row(joined, 1)), ad.element(joined, 0, 4))
        report = ad.grad_check(g, picked, 1e-6, 1e-7)
        assert report.passed

    def test_log_softmax_matches_log_of_softmax(self, rng):
        v = rng.normal(size=6)
        g = ad.Graph(np.float64)
        a = ad.log_softmax(g.constant(v)).data
        b = np.log(ad.softmax(g.constant(v)).data)
        assert np.allclose(a, b, atol=1e-12)


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
        x = g.constant(rng.normal(size=(4, 1)))
        report = ad.grad_check(g, ad.sum_all(ad.matmul(w, x)), 1e-5, 1e-7)
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
        x_val = rng.normal(size=(2, 6))
        table = g.parameter("table", table_val)
        idx = [1, 4, 4, 2]
        loss = ad.add(ad.sum_all(ad.lookup(table, idx, pad_index=0)),
                      ad.sum_all(ad.matmul(g.constant(x_val), table)))
        grad = g.backward(loss)["table"]
        assert isinstance(grad, np.ndarray)
        expected = _dense_lookup_grad((6, 3), idx, np.ones((4, 3)), 0)
        expected += x_val.T @ np.ones((2, 3))
        assert np.allclose(grad, expected, rtol=0, atol=1e-12)
        assert ad.grad_check(g, loss, 1e-6, 1e-7).passed

    def test_grad_check_through_lookup(self, rng):
        g = ad.Graph(np.float64)
        table = g.parameter("table", rng.normal(size=(5, 3)))
        w = g.parameter("w", rng.normal(size=(3, 2)))
        hidden = ad.tanh(ad.matmul(ad.lookup(table, [1, 3, 3, 2], pad_index=0), w))
        report = ad.grad_check(g, ad.sum_all(ad.mul(hidden, hidden)), 1e-6, 1e-7)
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


class TestTapeLifetime:
    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = ad.Graph(np.float32)
            table = g.parameter("table", np.ones((4, 3)))
            loss = ad.sum_all(ad.tanh(ad.lookup(table, [1, 2, 2])))
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
