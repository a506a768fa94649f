import tracemalloc

import numpy as np
import pytest

from controkit import optim
from controkit.autodiff import RowSparseGrad
from controkit.errors import DimensionError, UsageError
from controkit.optim import BETA1, BETA2, EPS, AdamState, adam_step

from oracles import adam_trace


def _slice_boundary_shapes():
    """1-D and 2-D shapes whose sizes sit on and around multiples of the
    slice length adam_step walks a parameter in."""
    shapes = []
    for size in (optim._CHUNK - 1, optim._CHUNK, optim._CHUNK + 1, 3 * optim._CHUNK + 7):
        rows = max(k for k in range(1, int(size**0.5) + 1) if size % k == 0)
        shapes += [(size,), (rows, size // rows)]
    return shapes


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        state = AdamState()
        adam_step(params, {"w": np.zeros(2, dtype=np.float32)}, state)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_moments_decay_toward_zero_on_zero_grads(self):
        params = {"w": np.array([1.0], dtype=np.float32)}
        state = AdamState()
        adam_step(params, {"w": np.array([1.0], dtype=np.float32)}, state)
        m_after_one = abs(float(state.m["w"][0]))
        for _ in range(50):
            adam_step(params, {"w": np.zeros(1, dtype=np.float32)}, state)
        assert abs(float(state.m["w"][0])) < m_after_one * 1e-2

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes m_hat/sqrt(v_hat) ~ sign(g) at t=1
        params = {"w": np.array([0.0, 0.0], dtype=np.float64)}
        state = AdamState(lr=1e-3)
        adam_step(params, {"w": np.array([0.7, -1234.5])}, state)
        assert np.allclose(params["w"], [-1e-3, 1e-3], rtol=1e-4)

    def test_three_step_trace_matches_hand_oracle(self):
        params = {"w": np.array([0.0], dtype=np.float64)}
        state = AdamState(lr=1e-3)
        seen = []
        for _ in range(3):
            adam_step(params, {"w": np.array([1.0])}, state)
            seen.append(float(params["w"][0]))
        assert np.allclose(seen, adam_trace([1.0, 1.0, 1.0], lr=1e-3), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (5, 3)] + _slice_boundary_shapes())
    def test_in_place_update_bit_identical_to_textbook_expression(self, rng, shape):
        p = rng.normal(size=shape).astype(np.float32)
        expected = p.copy()
        state = AdamState(lr=1e-2)
        b1, b2, eps = BETA1, BETA2, EPS
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t in range(1, 21):
            g = rng.normal(scale=3.0, size=shape).astype(np.float32)
            g[rng.random(shape) >= 0.25] = 0.0  # mostly zero, as a table's rows are
            adam_step({"w": p}, {"w": g}, state)
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            expected = expected - state.lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(p, expected), t

    def test_step_allocates_nothing_parameter_sized(self, rng):
        p = rng.normal(size=(1024, 2048)).astype(np.float32)
        g = rng.normal(size=p.shape).astype(np.float32)
        state = AdamState()
        adam_step({"w": p}, {"w": g}, state)  # moments exist from here on
        tracemalloc.start()
        try:
            adam_step({"w": p}, {"w": g}, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * p.nbytes

    def test_non_contiguous_parameter_rejected(self):
        p = np.zeros((4, 3)).T
        with pytest.raises(UsageError, match="contiguous"):
            adam_step({"w": p}, {"w": np.ones(p.shape)}, AdamState())
        assert not p.any()

    def test_update_magnitude_bound(self, rng):
        params = {"w": rng.normal(size=100)}
        state = AdamState(lr=1e-3)
        for _ in range(20):
            before = params["w"].copy()
            adam_step(params, {"w": rng.normal(scale=10.0, size=100)}, state)
            bound = state.lr / (1 - BETA1) + 1e-6
            assert np.max(np.abs(params["w"] - before)) <= bound

    def test_deterministic(self, rng):
        grads = [rng.normal(size=3) for _ in range(5)]

        def run():
            params = {"w": np.zeros(3)}
            state = AdamState()
            for g in grads:
                adam_step(params, {"w": g.copy()}, state)
            return params["w"].copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        with pytest.raises(DimensionError, match="shape"):
            adam_step(params, {"w": np.zeros(3)}, AdamState())

    def test_missing_gradient(self):
        with pytest.raises(DimensionError, match="no gradient"):
            adam_step({"w": np.zeros(2)}, {}, AdamState())

    def test_step_counter_strictly_increasing(self):
        params = {"w": np.zeros(1)}
        state = AdamState()
        for expected in (1, 2, 3):
            adam_step(params, {"w": np.ones(1)}, state)
            assert state.step == expected


class TestRowIndexedAdam:
    """A table's gradient given on rows ``U``: the textbook update of every
    other row is ``p -= 0 / (0 + eps)``, so skipping those rows must give
    the dense step's bytes."""

    # scattered rows are gathered and scattered back; with all but one of
    # 799 rows, the blocks away from the gap are consecutive rows, which are
    # updated in place through a view
    @pytest.mark.parametrize("shape,n_rows", [((40, 3), 9), ((1000, 300), 400), ((800, 300), 798)])
    def test_bit_identical_to_dense_step(self, rng, shape, n_rows):
        rows = np.sort(rng.choice(np.arange(1, shape[0]), size=n_rows, replace=False))
        dense_p = rng.normal(size=shape).astype(np.float32)
        dense_p[rows[0], :2] = -0.0
        dense_p[rows[1], 0] = -0.0  # rows[1] never gets a gradient
        dense_p[0] = -0.0  # outside the rows: must keep its sign bit
        p = dense_p.copy()
        dense, indexed = AdamState(lr=1e-2), AdamState(lr=1e-2)
        for t in range(4):
            values = rng.normal(scale=3.0, size=(n_rows, shape[1])).astype(np.float32)
            values[1] = 0.0  # a row of U that never gets a gradient
            values[2] = 0.0 if t % 2 else values[2]  # and one without it at odd steps
            g = RowSparseGrad(rows, values, shape)
            adam_step({"w": dense_p}, {"w": np.asarray(g)}, dense)
            adam_step({"w": p}, {"w": g}, indexed)
            assert p.tobytes() == dense_p.tobytes(), t
            assert indexed.m["w"].tobytes() == dense.m["w"][rows].tobytes(), t
            assert indexed.v["w"].tobytes() == dense.v["w"][rows].tobytes(), t
        outside = np.setdiff1d(np.arange(shape[0]), rows)
        assert not dense.m["w"][outside].any() and not dense.v["w"][outside].any()
        assert np.signbit(p[0]).all()
        assert indexed.m["w"].shape == (n_rows, shape[1])

    def test_other_rows_refused_without_update(self, rng):
        p = rng.normal(size=(10, 2)).astype(np.float32)
        state = AdamState()
        adam_step({"w": p}, {"w": RowSparseGrad(np.array([1, 4]), np.ones((2, 2), np.float32),
                                                p.shape)}, state)
        before = p.copy()
        for other in (RowSparseGrad(np.array([1, 5]), np.ones((2, 2), np.float32), p.shape),
                      np.ones(p.shape, np.float32)):
            with pytest.raises(UsageError, match="rows"):
                adam_step({"w": p}, {"w": other}, state)
        assert np.array_equal(p, before) and state.step == 1

