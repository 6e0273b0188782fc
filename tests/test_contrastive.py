"""Tests for the contrastive loss and the desk-scale video encoder."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from paramcrop import contrastive
from paramcrop.contrastive import (
    LossConfig,
    ToyEncoder,
    encode,
    encode_backward,
    nt_xent,
    nt_xent_backward,
)
from paramcrop.errors import ConfigError, DimensionError, NumericsError


def brute_force_loss(embeddings: np.ndarray, temperature: float) -> float:
    """Textbook double-loop reference: normalise, then for every anchor row
    take -log of the partner's softmax weight over all other rows."""
    e = np.asarray(embeddings, dtype=np.float64)
    unit = e / np.linalg.norm(e, axis=1, keepdims=True)
    n_rows = e.shape[0]
    total = 0.0
    for i in range(n_rows):
        partner = i + 1 if i % 2 == 0 else i - 1
        num = np.exp(np.dot(unit[i], unit[partner]) / temperature)
        den = 0.0
        for j in range(n_rows):
            if j != i:
                den += np.exp(np.dot(unit[i], unit[j]) / temperature)
        total += -np.log(num / den)
    return total / n_rows


class TestLossForward:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                e = rng.normal(size=(2 * n, 6))
                cfg = LossConfig(temperature=0.1, num_samples=n)
                assert nt_xent(e, cfg) == pytest.approx(
                    brute_force_loss(e, 0.1), abs=1e-12)

    def test_matches_brute_force_other_temperatures(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(6, 4))
        for tau in (0.05, 0.5, 1.0, 4.0):
            cfg = LossConfig(temperature=tau, num_samples=3)
            assert nt_xent(e, cfg) == pytest.approx(
                brute_force_loss(e, tau), abs=1e-12)

    def test_orthogonal_pairs_hand_value(self):
        """Two orthogonal pairs at temperature 1: every anchor sees its
        partner at similarity 1 and two strangers at 0, so the loss is
        log(1 + 2/e) per anchor."""
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        cfg = LossConfig(temperature=1.0, num_samples=2)
        assert nt_xent(e, cfg) == pytest.approx(np.log1p(2.0 / np.e), abs=1e-9)

    def test_identical_rows_give_log_2n_minus_1(self):
        for n in (1, 2, 4, 8):
            e = np.tile(np.array([[3.0, 4.0, 0.0]]), (2 * n, 1))
            cfg = LossConfig(temperature=0.1, num_samples=n)
            assert nt_xent(e, cfg) == pytest.approx(
                np.log(2 * n - 1), abs=1e-12)

    def test_single_pair_is_zero(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(2, 8))
        assert nt_xent(e, LossConfig(num_samples=1)) == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_scale_invariance(self):
        """Row scaling must not move the loss: rows are normalised inside."""
        rng = np.random.default_rng(6)
        e = rng.normal(size=(4, 5))
        cfg = LossConfig(temperature=0.2, num_samples=2)
        scaled = e * np.array([[0.01], [100.0], [7.0], [0.3]])
        assert nt_xent(scaled, cfg) == pytest.approx(nt_xent(e, cfg), abs=1e-12)

    def test_row_count_checked(self):
        with pytest.raises(DimensionError):
            nt_xent(np.ones((3, 4)), LossConfig(num_samples=2))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(temperature=0.0)
        # logits / temperature would overflow where 1 / temperature does.
        for tiny in (1e-310, 5e-324):
            with pytest.raises(ConfigError, match="finite 1 / temperature"):
                LossConfig(temperature=tiny)
        LossConfig(temperature=1e-300)
        with pytest.raises(ConfigError):
            LossConfig(num_samples=0)
        # 1 / 1e-308 is finite, but the summed loss over 2N rows, up to
        # 4 * num_samples / temperature, would overflow.
        with pytest.raises(ConfigError, match=r"finite 4 \* num_samples / temperature"):
            LossConfig(temperature=1e-308, num_samples=2)
        LossConfig(temperature=1e-300, num_samples=2)


class TestLossBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cfg = LossConfig(temperature=0.3, num_samples=3)
        e = rng.normal(size=(6, 5))
        grad = nt_xent_backward(e, cfg)
        assert grad.shape == e.shape
        h = 1e-6
        for i in range(6):
            for j in range(5):
                bumped = e.copy()
                bumped[i, j] += h
                up = nt_xent(bumped, cfg)
                bumped[i, j] -= 2 * h
                down = nt_xent(bumped, cfg)
                fd = (up - down) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-8), (i, j)

    def test_gradient_orthogonal_to_rows(self):
        """Normalisation kills the radial direction, so g . e_i = 0."""
        rng = np.random.default_rng(7)
        e = rng.normal(size=(8, 4))
        grad = nt_xent_backward(e, LossConfig(temperature=0.1, num_samples=4))
        dots = np.sum(grad * e, axis=1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)


@pytest.fixture
def encoder():
    rng = np.random.default_rng(42)
    return ToyEncoder.initialise(rng, in_channels=2, conv_channels=4, embed_dim=6)


@pytest.fixture
def clip():
    """One (C, T, H, W) clip with its leading batch axis of 1."""
    rng = np.random.default_rng(1)
    return rng.uniform(0.0, 1.0, size=(1, 2, 7, 8, 9))


class TestEncoder:
    def test_embedding_is_unit_norm(self, encoder, clip):
        emb, cache = encode(clip, encoder)
        assert emb.shape == (1, 6)
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)
        assert cache.norm[0] > 0.0

    def test_deterministic(self, encoder, clip):
        a, _ = encode(clip, encoder)
        b, _ = encode(clip, encoder)
        np.testing.assert_array_equal(a, b)

    def test_stride_shrinks_feature_map(self, encoder, clip):
        _, cache = encode(clip, encoder)
        # (7, 8, 9) with kernel 3 gives (5, 6, 7) windows; stride 2 keeps
        # every other one starting at index 0.
        assert cache.conv_pre.shape == (1, 3, 3, 4, 4)

    def test_channel_mismatch(self, encoder):
        with pytest.raises(DimensionError):
            encode(np.zeros((1, 3, 7, 8, 9)), encoder)

    def test_too_small_clip(self, encoder):
        with pytest.raises(DimensionError):
            encode(np.zeros((1, 2, 2, 8, 9)), encoder)

    def test_zero_clip_gives_zero_embedding_when_unbiased(self, encoder):
        enc = ToyEncoder(
            conv_weight=encoder.conv_weight,
            conv_bias=np.zeros_like(encoder.conv_bias),
            proj_weight=encoder.proj_weight,
            proj_bias=np.zeros_like(encoder.proj_bias),
        )
        emb, cache = encode(np.zeros((1, 2, 7, 8, 9)), enc)
        np.testing.assert_array_equal(emb, 0.0)
        assert cache.norm[0] == 0.0

    def test_other_kernel_sizes_are_rejected(self, encoder, clip):
        rng = np.random.default_rng(5)
        enc = replace(encoder, conv_weight=rng.normal(size=(4, 2, 5, 5, 5)))
        with pytest.raises(DimensionError, match="kernel"):
            encode(clip, enc)

    def test_overflowing_norm_raises(self, encoder, clip):
        # Each projected entry is finite (about 1e200), but its square is
        # not, so the norm is inf and the embedding would collapse to 0.
        enc = replace(encoder, proj_bias=np.full_like(encoder.proj_bias, 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            encode(clip, enc)


class TestEncoderBackward:
    def test_weight_gradients_match_finite_differences(self, encoder, clip):
        rng = np.random.default_rng(9)
        upstream = rng.normal(size=(1, encoder.embed_dim))

        def loss(enc: ToyEncoder) -> float:
            emb, _ = encode(clip, enc)
            return float(np.sum(upstream * emb))

        _, cache = encode(clip, encoder)
        grads, _ = encode_backward(upstream, cache, encoder)
        h = 1e-6
        picks = {
            "conv_weight": [(0, 0, 0, 0, 0), (3, 1, 2, 1, 0), (1, 1, 1, 1, 1)],
            "conv_bias": [(0,), (3,)],
            "proj_weight": [(0, 0), (5, 3)],
            "proj_bias": [(2,), (5,)],
        }
        for name, idxs in picks.items():
            base = getattr(encoder, name)
            for idx in idxs:
                bumped = base.copy()
                bumped[idx] += h
                up = loss(replace(encoder, **{name: bumped}))
                bumped[idx] -= 2 * h
                down = loss(replace(encoder, **{name: bumped}))
                fd = (up - down) / (2 * h)
                assert grads[name][idx] == pytest.approx(fd, abs=1e-7), (name,
                                                                         idx)

    def test_input_gradient_matches_finite_differences(self, encoder, clip):
        rng = np.random.default_rng(10)
        upstream = rng.normal(size=(1, encoder.embed_dim))
        _, cache = encode(clip, encoder)
        _, grad_video = encode_backward(upstream, cache, encoder)
        assert grad_video.shape == clip.shape
        h = 1e-6
        for idx in [(0, 0, 0, 0, 0), (0, 1, 3, 4, 5), (0, 0, 6, 7, 8), (0, 1, 2, 0, 3)]:
            bumped = clip.copy()
            bumped[idx] += h
            up, _ = encode(bumped, encoder)
            bumped[idx] -= 2 * h
            down, _ = encode(bumped, encoder)
            fd = float(np.sum(upstream * (up - down))) / (2 * h)
            assert grad_video[idx] == pytest.approx(fd, abs=1e-7), idx

    def test_zero_embedding_gets_zero_gradients(self, encoder):
        """A zero clip through zero biases embeds to the zero row, whose
        normalisation gradient is defined as zero."""
        enc = replace(encoder, conv_bias=np.zeros_like(encoder.conv_bias),
                      proj_bias=np.zeros_like(encoder.proj_bias))
        _, cache = encode(np.zeros((1, 2, 7, 8, 9)), enc)
        upstream = np.random.default_rng(11).normal(size=(1, encoder.embed_dim))
        grads, grad_video = encode_backward(upstream, cache, enc)
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, 0.0, err_msg=name)
        np.testing.assert_array_equal(grad_video, 0.0)

    def test_positions_outside_any_window_get_zero_gradient(self, encoder,
                                                            clip):
        """With stride 2 and kernel 3 on length 7/8/9 axes, the last row of
        the two longer axes is never covered by a kept window."""
        upstream = np.ones((1, encoder.embed_dim))
        _, cache = encode(clip, encoder)
        _, grad_video = encode_backward(upstream, cache, encoder)
        # windows start at 0, 2, 4 (h) and 0, 2, 4, 6 (w); they cover
        # h-indices 0..6 of 8 and w-indices 0..8 of 9.
        np.testing.assert_array_equal(grad_video[:, :, :, 7, :], 0.0)


def test_forward_and_backward_build_one_im2col(monkeypatch, encoder):
    calls = []
    real = contrastive._im2col
    monkeypatch.setattr(contrastive, "_im2col",
                        lambda *args: calls.append(args[0].shape) or real(*args))
    clips = np.random.default_rng(3).uniform(size=(3, 2, 7, 8, 9))
    emb, cache = encode(clips, encoder)
    _, grad_video = encode_backward(np.ones_like(emb), cache, encoder)
    assert calls == [clips.shape]
    assert grad_video.shape == clips.shape
