import numpy as np
import pytest

from controkit.errors import DimensionError
from controkit.optim import AdamState, adam_step, clip_gradients

from oracles import adam_trace


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

    @pytest.mark.parametrize("shape", [(7,), (5, 3)])
    def test_in_place_update_bit_identical_to_textbook_expression(self, rng, shape):
        p = rng.normal(size=shape).astype(np.float32)
        expected = p.copy()
        state = AdamState(lr=1e-2)
        b1, b2, eps = state.beta1, state.beta2, state.eps
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t in range(1, 21):
            g = rng.normal(scale=3.0, size=shape).astype(np.float32)
            adam_step({"w": p}, {"w": g}, state)
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            expected = expected - state.lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(p, expected), t

    def test_update_magnitude_bound(self, rng):
        params = {"w": rng.normal(size=100)}
        state = AdamState(lr=1e-3)
        for _ in range(20):
            before = params["w"].copy()
            adam_step(params, {"w": rng.normal(scale=10.0, size=100)}, state)
            bound = state.lr / (1 - state.beta1) + 1e-6
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


class TestClip:
    def test_noop_below_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 10.0)
        assert norm == 5.0
        assert np.array_equal(grads["a"], [3.0])

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clip_gradients(grads, 1.0)
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert abs(total - 1.0) < 1e-12
