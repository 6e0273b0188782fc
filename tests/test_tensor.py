"""Tests for the dense array primitives.

``TestMatmul`` and ``TestAsDense`` cover the validated helpers left in
``paramcrop.tensor``.  ``TestElementwise`` covers the elementwise steps of the
generator forward in ``paramgen``: its relu, its overflow-safe sigmoid and the
finiteness guard on its result.
"""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop import tensor
from paramcrop.affine import ParamBounds
from paramcrop.errors import DimensionError, NumericsError
from paramcrop.paramgen import CropperState, _stable_sigmoid, mlp_forward


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deliberately dumb triple loop used as an independent oracle."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_small_product(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        expected = np.array([[58.0, 64.0], [139.0, 154.0]])
        np.testing.assert_array_equal(tensor.matmul(a, b), expected)

    def test_matches_triple_loop_exactly_on_integers(self):
        """Integer-valued operands make every accumulation order exact."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = rng.integers(-9, 10, size=(8, 8)).astype(np.float64)
            b = rng.integers(-9, 10, size=(8, 8)).astype(np.float64)
            np.testing.assert_array_equal(tensor.matmul(a, b), naive_matmul(a, b))

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tensor.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            tensor.matmul(np.zeros(3), np.zeros((3, 2)))


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
        s = CropperState(w1=np.eye(3), w2=np.zeros((6, 3)), bounds=ParamBounds())
        _, cache = mlp_forward(np.array([-1.0, 0.0, 2.5]), s)
        np.testing.assert_array_equal(cache.hidden, [0.0, 0.0, 2.5])

    def test_non_finite_result_rejected(self):
        # The hidden layer overflows to inf, which the sigmoid alone would
        # turn into a finite 1.
        w1 = np.full((4, 3), 1e308)
        w2 = np.full((6, 4), 1e200)
        s = CropperState(w1=w1, w2=w2, bounds=ParamBounds())
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mlp_forward(np.ones(3), s)


class TestAsDense:
    def test_shape_check(self):
        with pytest.raises(DimensionError):
            tensor.as_dense([1.0, 2.0], shape=(3,))

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            tensor.as_dense([1.0, np.nan])

    def test_contiguous_float64(self):
        arr = tensor.as_dense(np.arange(6).reshape(2, 3)[:, ::-1])
        assert arr.flags["C_CONTIGUOUS"]
        assert arr.dtype == np.float64
