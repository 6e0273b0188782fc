"""Tests of the finite-difference harness itself (light seed counts here;
the full 20-seed battery is exercised by the acceptance suite)."""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop import contrastive, gradcheck, simulator
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


def entry_by_entry(f, x: np.ndarray, h: float) -> np.ndarray:
    """The reference central difference: one scalar *f* call per probe."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += h
        lo.flat[i] -= h
        grad.flat[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


class TestCentralDifference:
    def test_quadratic_exact_to_truncation(self):
        a = np.array([2.0, -1.0, 0.5])

        def f(xs):
            return np.sum(a * xs * xs, axis=1)

        x0 = np.array([1.0, 2.0, -3.0])
        grad = central_difference(f, x0, h=1e-6)
        np.testing.assert_allclose(grad, 2.0 * a * x0, atol=1e-8)

    def test_does_not_mutate_input(self):
        x0 = np.array([1.0, 2.0])
        saved = x0.copy()
        central_difference(lambda xs: np.sum(xs**2, axis=1), x0)
        np.testing.assert_array_equal(x0, saved)

    def test_trig_gradient(self):
        x0 = np.array([[0.3, 1.1], [-0.7, 2.0]])
        grad = central_difference(lambda xs: np.sum(np.sin(xs), axis=(1, 2)), x0)
        np.testing.assert_allclose(grad, np.cos(x0), atol=1e-9)

    # One entry; part of one pass; several passes, the last one ragged; and
    # exactly one full pass.
    @pytest.mark.parametrize("shape", [(1,), (4, 4), (17,), (3, 5, 7),
                                       (gradcheck._PASS_PROBES // 2,)])
    def test_matches_an_entry_by_entry_loop_exactly(self, shape):
        x0 = np.random.default_rng(5).normal(size=shape)
        scale = np.linspace(-2.0, 3.0, x0.size).reshape(shape)

        def losses(xs):
            return np.sum((scale * np.sin(xs) + xs**3).reshape(len(xs), -1), axis=1)

        grad = central_difference(losses, x0, h=1e-5)
        assert grad.shape == shape
        expected = entry_by_entry(lambda x: losses(x[None])[0], x0, 1e-5)
        np.testing.assert_array_equal(grad, expected)

    # One probe pair; one full pass; one pass and a ragged one; several.
    @pytest.mark.parametrize("size", [1, gradcheck._PASS_PROBES // 2,
                                      gradcheck._PASS_PROBES // 2 + 1, 100])
    def test_runs_one_call_per_pass(self, size):
        calls = []

        def losses(xs):
            calls.append(len(xs))
            return np.sum(xs, axis=1)

        central_difference(losses, np.zeros(size))
        passes = -(-2 * size // gradcheck._PASS_PROBES)
        assert len(calls) == passes
        assert sum(calls) == 2 * size
        assert max(calls) <= gradcheck._PASS_PROBES

    def test_fn_must_return_one_loss_per_probe(self):
        with pytest.raises(ValueError, match="for 4 probes"):
            central_difference(lambda xs: float(np.sum(xs)), np.zeros(2))


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


# Each family and the backward whose output it checks.
FAMILY_BACKWARDS = [
    ("sampler_grid", "sample_backward"),
    ("interval_map", "clamp_params_backward"),
    ("grid_transform", "transform_grid_backward"),
    ("nt_xent", "nt_xent_backward"),
    ("encoder", "encode_backward"),
    ("generator_mlp", "mlp_backward"),
    ("full_chain", "generate_backward"),
]


def mutate_backward(monkeypatch, backward: str, mutate) -> None:
    """Make gradcheck's *backward* apply *mutate* to every array it returns."""
    def mutated(out):
        if isinstance(out, dict):
            return {key: mutated(value) for key, value in out.items()}
        if isinstance(out, tuple):
            return tuple(mutated(value) for value in out)
        return mutate(out)

    original = getattr(gradcheck, backward)
    monkeypatch.setattr(gradcheck, backward,
                        lambda *args, **kwargs: mutated(original(*args, **kwargs)))


class TestFamilies:
    """Each family at a couple of seeds; errors should sit far below 1e-5."""

    @pytest.mark.parametrize("name", sorted(CHECK_FAMILIES))
    def test_family_passes_at_two_seeds(self, name):
        fn = CHECK_FAMILIES[name]
        worst = 0.0
        for ss in np.random.SeedSequence(314).spawn(2):
            worst = max(worst, fn(ss))
        assert worst < gradcheck.DEFAULT_TOLERANCE, name

    @pytest.mark.parametrize("name, backward", FAMILY_BACKWARDS)
    def test_family_fails_on_a_scaled_backward(self, monkeypatch, name, backward):
        # A check that compared the analytic gradient with itself would pass.
        mutate_backward(monkeypatch, backward, lambda grad: 1.001 * grad)
        assert CHECK_FAMILIES[name](np.random.SeedSequence(314)) > 1e-4

    @pytest.mark.parametrize("name, backward", FAMILY_BACKWARDS)
    def test_family_fails_on_a_nan_backward(self, monkeypatch, name, backward):
        # max(0.0, nan) is 0.0: a NaN gradient must not fold away to a pass.
        mutate_backward(monkeypatch, backward, lambda grad: np.full_like(grad, np.nan))
        assert not CHECK_FAMILIES[name](np.random.SeedSequence(314)) < 1e-4

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


class TestKinkMask:
    @staticmethod
    def per_axis_mask(grid, dims, margin):
        """The mask built one axis at a time, (x, y, t) against (W, H, T)."""
        def clear(coords, length):
            inside = np.abs(coords) <= 1.0 + margin
            idx = (np.clip(coords, -1.0, 1.0) + 1.0) * 0.5 * (length - 1)
            near_edge = np.abs(idx - np.round(idx)) < margin * (length - 1) * 0.5
            return ~(inside & near_edge)

        t_len, h_len, w_len = dims
        return np.stack([clear(grid[..., 0], w_len), clear(grid[..., 1], h_len),
                         clear(grid[..., 2], t_len)], axis=-1)

    @pytest.mark.parametrize("dims", [(5, 6, 7), (2, 9, 3), (8, 10, 10)])
    @pytest.mark.parametrize("margin", [1e-5, 1e-2, 0.1])
    def test_matches_the_per_axis_formula(self, dims, margin):
        rng = np.random.default_rng(sum(dims))
        # Random points out to beyond +-1, the cell edges of each axis, and
        # those edges nudged by less than the margin.
        spread = rng.uniform(-1.5, 1.5, size=(80, 3))
        edges = np.stack([np.resize(np.linspace(-1.0, 1.0, n), 10) for n in dims[::-1]],
                         axis=-1)
        nudged = edges + rng.uniform(-margin, margin, size=edges.shape) * 0.5
        grid = np.concatenate([spread, edges, nudged])
        mask = gradcheck._grid_safe_mask(grid, dims, margin)
        np.testing.assert_array_equal(mask, self.per_axis_mask(grid, dims, margin))
        assert mask.any() and not mask.all()


class TestPasses:
    def test_full_chain_runs_its_probes_in_passes(self, monkeypatch):
        # Forwards made after the screened instance is built are the numerical
        # side; one forward per probe would be 2 * 192 of them.
        forwards, built = [], []

        def spy_forward(units, *args):
            forwards.append((bool(built), units.shape))
            return simulator.chain_forward(units, *args)

        def spy_build(seed_seq):
            out = build_chain_instance(seed_seq)
            built.append(out[0])
            return out

        monkeypatch.setattr(gradcheck, "chain_forward", spy_forward)
        monkeypatch.setattr(gradcheck, "build_chain_instance", spy_build)
        gradcheck.check_full_chain(np.random.SeedSequence(314))
        weights = built[0].croppers.w1.size + built[0].croppers.w2.size
        assert weights == 192
        numerical = [shape for after_build, shape in forwards if after_build]
        assert 0 < len(numerical) <= 2 * -(-weights // gradcheck._PASS_PROBES)
        assert all(len(shape) == 3 and shape[0] <= gradcheck._PASS_PROBES
                   for shape in numerical)

    def test_encoder_runs_its_probes_in_passes(self, monkeypatch):
        # Weight probes ride encode's leading weight axes, clip probes its
        # rows; one encode per probe would be 2 * (185 + 240) calls.
        calls, tries, built = [], [], []
        build = gradcheck._encoder_instance

        def spy_encode(video, enc):
            calls.append((bool(built), enc.conv_weight.shape[:-5], len(video)))
            return contrastive.encode(video, enc)

        def spy_instance(rng):
            out = build(rng)
            tries.append(rng)
            built.extend([out] if out is not None else [])
            return out

        monkeypatch.setattr(gradcheck, "encode", spy_encode)
        monkeypatch.setattr(gradcheck, "_encoder_instance", spy_instance)
        gradcheck.check_encoder(np.random.SeedSequence(314))
        enc, video = built[0][:2]
        sizes = [getattr(enc, name).size for name in
                 ("conv_weight", "conv_bias", "proj_weight", "proj_bias")] + [video.size]
        assert sizes == [162, 3, 15, 5, 240]
        passes = sum(-(-2 * n // gradcheck._PASS_PROBES) for n in sizes)
        assert passes == 6 + 1 + 1 + 1 + 8
        # Each screening try makes one encode; the rest are the numerical side.
        numerical = [(lead, rows) for after_build, lead, rows in calls if after_build]
        assert len(calls) - len(numerical) == len(tries)
        assert 0 < len(numerical) <= passes
        assert all(max(lead, default=rows) <= gradcheck._PASS_PROBES
                   for lead, rows in numerical)


    def test_chain_screen_runs_one_learning_forward_per_try(self, monkeypatch):
        # The screen and the gradients it returns read the same forward.
        forwards, tries = [], []
        screened = gradcheck._screened

        def spy_forward(*args):
            forwards.append(args[-1])
            return simulator.chain_forward(*args)

        def spy_screened(seed_seq, build, what):
            def counted(rng):
                tries.append(len(forwards))
                return build(rng)
            return screened(seed_seq, counted, what)

        monkeypatch.setattr(gradcheck, "chain_forward", spy_forward)
        monkeypatch.setattr(gradcheck, "_screened", spy_screened)
        inst, grads = build_chain_instance(np.random.SeedSequence(314))
        assert tries == list(range(len(tries))) and len(tries) > 1
        assert forwards == [True] * len(tries)
        expected = chain_cropper_grads(inst)
        assert grads.keys() == expected.keys()
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, expected[name])


class TestChainReversal:
    def test_reversed_grads_are_exact_negation(self):
        inst, _ = build_chain_instance(np.random.SeedSequence(99))
        plain = chain_cropper_grads(inst, reverse=False)
        flipped = chain_cropper_grads(inst, reverse=True)
        assert len(plain["w1"]) == len(flipped["w1"]) == 2  # one entry per generator
        for branch in (0, 1):
            p1, p2 = plain["w1"][branch], plain["w2"][branch]
            f1, f2 = flipped["w1"][branch], flipped["w2"][branch]
            np.testing.assert_array_equal(f1, -p1)
            np.testing.assert_array_equal(f2, -p2)
            assert np.any(p1 != 0.0) and np.any(p2 != 0.0)

    def test_chain_loss_is_finite_scalar(self):
        inst, _ = build_chain_instance(np.random.SeedSequence(7))
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
