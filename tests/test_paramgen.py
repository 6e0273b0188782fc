"""Tests for the crop-parameter generator and its optimiser.

``TestElementwise`` covers the elementwise steps of the generator forward:
its relu, its overflow-safe sigmoid and the finiteness guard on its result.
"""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop.errors import ConfigError, NumericsError, TrainingError
from paramcrop.paramgen import (
    CropperState,
    SgdMomentum,
    _stable_sigmoid,
    mlp_backward,
    mlp_forward,
    reverse_gradient,
    sample_noise,
    update_weights,
)


@pytest.fixture
def state():
    rng = np.random.default_rng(42)
    return CropperState.initialise(rng, noise_dim=5, hidden_dim=7, init_scale=0.2)


class TestState:
    def test_shapes_and_dims(self, state):
        assert state.w1.shape == (7, 5)
        assert state.w2.shape == (6, 7)
        assert state.noise_dim == 5
        assert state.hidden_dim == 7

    def test_init_scale_respected(self):
        rng = np.random.default_rng(0)
        s = CropperState.initialise(rng, noise_dim=16, hidden_dim=32, init_scale=0.01)
        assert np.abs(s.w1).max() <= 0.01
        assert np.abs(s.w2).max() <= 0.01

    def test_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            CropperState.initialise(rng, noise_dim=0, hidden_dim=32)


class TestForward:
    def test_output_shape_and_range(self, state):
        rng = np.random.default_rng(1)
        noise = sample_noise(rng, 1, state.noise_dim)
        assert noise.shape == (1, 5)
        assert np.all((noise >= 0.0) & (noise < 1.0))
        unit, cache = mlp_forward(noise, state)
        assert unit.shape == (1, 6)
        assert np.all((unit > 0.0) & (unit < 1.0))
        np.testing.assert_array_equal(cache.noise, noise)
        np.testing.assert_array_equal(cache.hidden,
                                      np.maximum(cache.hidden_pre, 0.0))

    def test_matches_manual_composition(self, state):
        rng = np.random.default_rng(2)
        noise = sample_noise(rng, 1, state.noise_dim)
        unit, _ = mlp_forward(noise, state)
        hidden = np.maximum(state.w1 @ noise[0], 0.0)
        expected = 1.0 / (1.0 + np.exp(-(state.w2 @ hidden)))
        np.testing.assert_allclose(unit[0], expected, atol=1e-15)

    def test_near_zero_init_gives_centered_outputs(self):
        rng = np.random.default_rng(3)
        s = CropperState.initialise(rng, noise_dim=16, hidden_dim=32, init_scale=0.01)
        unit, _ = mlp_forward(sample_noise(rng, 1, s.noise_dim), s)
        np.testing.assert_allclose(unit, np.full((1, 6), 0.5), atol=0.01)

    def test_non_finite_output_raises(self):
        # The hidden layer stays finite (1e200 each), but every mixed-sign
        # w2 row sums inf - inf = NaN.
        w1 = np.full((4, 3), 1e200)
        w2 = np.tile(np.array([1.0, -1.0, 1.0, -1.0]) * 1e200, (6, 1))
        s = CropperState(w1=w1, w2=w2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericsError):
            mlp_forward(np.ones((1, 3)), s)

    def test_overflowing_logits_raise(self):
        # The hidden layer stays finite (3e200 each), but the logits overflow
        # to +inf, which the sigmoid alone would turn into a finite 1.
        s = CropperState(w1=np.full((4, 3), 1e200), w2=np.full((6, 4), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mlp_forward(np.ones((1, 3)), s)


class TestElementwise:
    def test_sigmoid_midpoint_and_symmetry(self):
        assert _stable_sigmoid(np.array([0.0]))[0] == 0.5
        x = np.linspace(-30.0, 30.0, 101)
        s = _stable_sigmoid(x)
        np.testing.assert_allclose(s + s[::-1], np.ones_like(x), atol=1e-15)
        assert np.all((s > 0.0) & (s < 1.0))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        s = _stable_sigmoid(np.array([-1e4, 1e4]))
        np.testing.assert_array_equal(s, [0.0, 1.0])

    def test_relu(self):
        # Identity first layer, so the hidden pre-activation is the noise.
        s = CropperState(w1=np.eye(3), w2=np.zeros((6, 3)))
        _, cache = mlp_forward(np.array([[-1.0, 0.0, 2.5]]), s)
        np.testing.assert_array_equal(cache.hidden[0], [0.0, 0.0, 2.5])

    def test_non_finite_result_rejected(self):
        # The hidden layer overflows to inf, which the sigmoid alone would
        # turn into a finite 1.
        w1 = np.full((4, 3), 1e308)
        w2 = np.full((6, 4), 1e200)
        s = CropperState(w1=w1, w2=w2)
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mlp_forward(np.ones((1, 3)), s)


class TestBackward:
    def test_matches_finite_differences(self, state):
        rng = np.random.default_rng(4)
        noise = sample_noise(rng, 1, state.noise_dim)
        upstream = rng.normal(size=(1, 6))
        _, cache = mlp_forward(noise, state)
        grads = mlp_backward(upstream, cache, state)
        grad_w1, grad_w2 = grads["w1"], grads["w2"]
        assert grad_w1.shape == state.w1.shape
        assert grad_w2.shape == state.w2.shape

        h = 1e-6

        def loss(w1: np.ndarray, w2: np.ndarray) -> float:
            s = CropperState(w1=w1, w2=w2)
            unit, _ = mlp_forward(noise, s)
            return float(np.vdot(upstream, unit))

        for grad, which in ((grad_w1, "w1"), (grad_w2, "w2")):
            w = getattr(state, which)
            flat_idx = [(i, j) for i in range(w.shape[0]) for j in range(w.shape[1])]
            rng_pick = np.random.default_rng(5)
            for i, j in [flat_idx[k] for k in
                         rng_pick.choice(len(flat_idx), size=12, replace=False)]:
                bumped = w.copy()
                bumped[i, j] += h
                up = loss(bumped if which == "w1" else state.w1,
                          bumped if which == "w2" else state.w2)
                bumped[i, j] -= 2 * h
                down = loss(bumped if which == "w1" else state.w1,
                            bumped if which == "w2" else state.w2)
                fd = (up - down) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-7), (which, i, j)

    def test_dead_relu_units_get_zero_gradient(self, state):
        noise = np.ones((1, state.noise_dim))
        _, cache = mlp_forward(noise, state)
        dead = cache.hidden_pre[0] <= 0.0
        assert dead.any(), "fixture should produce at least one inactive unit"
        grad_w1 = mlp_backward(np.ones((1, 6)), cache, state)["w1"]
        np.testing.assert_array_equal(grad_w1[dead], 0.0)


class TestReversal:
    def test_exact_negation(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(4, 9)) * 10.0 ** rng.integers(-8, 8, size=(4, 9))
        out = reverse_gradient(g)
        np.testing.assert_array_equal(out, -g)
        # negation must be bitwise exact, including signed zeros
        z = reverse_gradient(np.array([0.0, -0.0]))
        assert np.signbit(z[0]) and not np.signbit(z[1])


def _weights(w1, w2_shape=(6, 1)) -> CropperState:
    return CropperState(w1=np.array(w1, dtype=np.float64), w2=np.zeros(w2_shape))


class TestOptimiser:
    """``update_weights``: one momentum step on the named weight fields."""

    def test_two_steps_by_hand(self):
        opt = SgdMomentum(lr=0.1, momentum=0.5)
        s = _weights([[1.0, 2.0]])
        s = update_weights(s, {"w1": np.array([[1.0, -1.0]])}, opt)
        # velocity = g1; w = [1,2] - 0.1*[1,-1]
        np.testing.assert_allclose(s.w1, [[0.9, 2.1]], atol=1e-15)
        s = update_weights(s, {"w1": np.array([[0.0, 0.0]])}, opt)
        # velocity = 0.5*[1,-1]; w = [0.9,2.1] - 0.1*[0.5,-0.5]
        np.testing.assert_allclose(s.w1, [[0.85, 2.15]], atol=1e-15)

    def test_velocity_persists_per_name(self):
        opt = SgdMomentum(lr=1.0, momentum=1.0)
        s = _weights([[0.0]])
        for _ in range(3):
            grads = {"w1": np.ones((1, 1)), "w2": np.full((6, 1), 2.0)}
            s = update_weights(s, grads, opt)
        # with momentum 1 and unit grads: velocities 1, 2, 3 -> sum 6
        assert s.w1[0, 0] == -6.0
        assert s.w2[0, 0] == -12.0

    def test_non_finite_gradient_raises(self):
        opt = SgdMomentum(lr=0.1)
        with pytest.raises(TrainingError, match="step 17"):
            update_weights(_weights([[0.0, 0.0]]), {"w1": np.array([[1.0, np.nan]])},
                           opt, step_index=17)

    def test_update_weights_returns_new_state(self, state):
        opt = SgdMomentum(lr=0.5, momentum=0.0)
        g1 = np.ones_like(state.w1)
        g2 = np.ones_like(state.w2)
        new = update_weights(state, {"w1": g1, "w2": g2}, opt)
        assert new is not state
        np.testing.assert_allclose(new.w1, state.w1 - 0.5, atol=1e-15)
        np.testing.assert_allclose(new.w2, state.w2 - 0.5, atol=1e-15)

    def test_fields_without_a_gradient_are_kept(self, state):
        new = update_weights(state, {"w2": np.ones_like(state.w2)}, SgdMomentum(lr=0.5))
        assert new.w1 is state.w1
        np.testing.assert_allclose(new.w2, state.w2 - 0.5, atol=1e-15)
