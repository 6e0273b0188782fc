"""Tests of the finite-difference harness itself (light seed counts here;
the full 20-seed battery is exercised by the acceptance suite)."""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop import gradcheck
from paramcrop.errors import NumericsError
from paramcrop.gradcheck import (
    CHECK_FAMILIES,
    CheckResult,
    build_chain_instance,
    central_difference,
    chain_cropper_grads,
    chain_loss,
    max_relative_error,
    render_report,
)


class TestCentralDifference:
    def test_quadratic_exact_to_truncation(self):
        a = np.array([2.0, -1.0, 0.5])

        def f(x):
            return float(np.sum(a * x * x))

        x0 = np.array([1.0, 2.0, -3.0])
        grad = central_difference(f, x0, h=1e-6)
        np.testing.assert_allclose(grad, 2.0 * a * x0, atol=1e-8)

    def test_does_not_mutate_input(self):
        x0 = np.array([1.0, 2.0])
        saved = x0.copy()
        central_difference(lambda x: float(np.sum(x**2)), x0)
        np.testing.assert_array_equal(x0, saved)

    def test_trig_gradient(self):
        x0 = np.array([[0.3, 1.1], [-0.7, 2.0]])
        grad = central_difference(lambda x: float(np.sum(np.sin(x))), x0)
        np.testing.assert_allclose(grad, np.cos(x0), atol=1e-9)


class TestMaxRelativeError:
    def test_identical_is_zero(self):
        g = np.array([1.0, -2.0, 3.0])
        assert max_relative_error(g, g) == 0.0

    def test_normalised_by_largest_magnitude(self):
        a = np.array([100.0, 0.0])
        f = np.array([100.0, 1.0])
        assert max_relative_error(a, f) == pytest.approx(0.01)

    def test_tiny_gradients_do_not_blow_up(self):
        a = np.array([1e-15])
        f = np.array([-1e-15])
        assert max_relative_error(a, f) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_relative_error(np.zeros(2), np.zeros(3))


class TestFamilies:
    """Each family at a couple of seeds; errors should sit far below 1e-5."""

    @pytest.mark.parametrize("name", sorted(CHECK_FAMILIES))
    def test_family_passes_at_two_seeds(self, name):
        fn = CHECK_FAMILIES[name]
        worst = 0.0
        for ss in np.random.SeedSequence(314).spawn(2):
            worst = max(worst, fn(ss))
        assert worst < gradcheck.DEFAULT_TOLERANCE, name

    def test_family_names_cover_every_checked_path(self):
        assert set(CHECK_FAMILIES) == {
            "sampler_grid", "interval_map", "grid_transform", "nt_xent",
            "encoder", "generator_mlp", "full_chain",
        }


class TestScreening:
    def test_exhausted_rebuilds_raise_numerics_error(self):
        tries = []

        def never_clear(rng):
            tries.append(rng)
            return None

        with pytest.raises(NumericsError, match="kink-free probe instance"):
            gradcheck._screened(np.random.SeedSequence(0), never_clear, "probe")
        assert len(tries) == gradcheck._MAX_REBUILDS


class TestChainReversal:
    def test_reversed_grads_are_exact_negation(self):
        inst = build_chain_instance(np.random.SeedSequence(99))
        plain = chain_cropper_grads(inst, reverse=False)
        flipped = chain_cropper_grads(inst, reverse=True)
        assert len(plain) == len(flipped) == 2  # one entry per generator
        for p, f in zip(plain, flipped):
            (p1, p2), (f1, f2) = (p["w1"], p["w2"]), (f["w1"], f["w2"])
            np.testing.assert_array_equal(f1, -p1)
            np.testing.assert_array_equal(f2, -p2)
            assert np.any(p1 != 0.0) and np.any(p2 != 0.0)

    def test_chain_loss_is_finite_scalar(self):
        inst = build_chain_instance(np.random.SeedSequence(7))
        value = chain_loss(inst)
        assert isinstance(value, float)
        assert np.isfinite(value)


class TestReport:
    def test_render_lines(self):
        results = [
            CheckResult("sampler_grid", 3.2e-8, 1e-5, 20, 1.25),
            CheckResult("full_chain", 2.0e-5, 1e-5, 20, 8.5),
        ]
        text = render_report(results)
        lines = text.splitlines()
        assert lines[0].startswith("PASS  sampler_grid")
        assert lines[1].startswith("FAIL  full_chain")
        assert "seeds=20" in lines[0]

    def test_pass_is_strict_inequality(self):
        exactly_at = CheckResult("x", 1e-5, 1e-5, 1, 0.0)
        assert not exactly_at.passed
