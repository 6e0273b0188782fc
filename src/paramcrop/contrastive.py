"""Normalised-temperature cross-entropy loss and a small 3D conv encoder.

Embedding rows come in consecutive pairs: rows ``2k`` and ``2k+1`` are the
two cropped views of sample ``k``.  The loss averages the pairwise terms in
both directions over all ``2N`` ordered (anchor, partner) pairs; each term is
a softmax cross-entropy over the anchor's cosine similarities to every other
row (the anchor itself is excluded from the denominator).

:func:`nt_xent` accepts arbitrary rows and L2-normalises internally (with a
zero-vector guard), so :func:`nt_xent_backward` includes the normalisation
Jacobian and finite differences on the raw rows agree with it.

The encoder is toy by design: one valid-padded 3D convolution, ReLU,
global average pooling, a linear projection, then L2 normalisation.  It is
just large enough that crop placement visibly changes the embedding.  Its
geometry is fixed: a cubic kernel of :data:`KERNEL` = 3 taps at stride
:data:`STRIDE` = 2 on every axis, which :func:`feature_shape`,
:func:`footprint` and the im2col read; the weights carry only the channel
counts.  One row normalisation, :func:`_normalise_rows`, and its backward,
:func:`_normalise_rows_backward`, serve both the encoder's output and the
loss's input.

:func:`nt_xent` also takes (..., 2N, D) rows and returns one loss per
leading index, so finite differences can evaluate many perturbed batches in
one call; its backward takes one (2N, D) batch.

The encoder is batch-first: :func:`encode` takes (R, C, T, H, W) clips and
runs the convolution for all of them as one im2col matmul, and
:func:`encode_backward` returns the weight gradients summed over the rows.
A single clip is a leading axis of 1.  The forward keeps its im2col matrix
for the backward, which reads it and never the clips, so it is built once per
forward-backward pair.  The valid strided convolution reads only the leading
:func:`footprint` of each clip axis; a caller that builds the clips can build
just that much and get the same embedding.  As for ``mlp_forward``, leading axes
on the weights stack encoders: one batched matmul embeds the same clips under
each, as (..., R, E) rows.  The backward takes one encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DimensionError, NumericsError

_NORM_EPS = 1e-12
# The encoder geometry: a cubic kernel of KERNEL taps at STRIDE on every axis.
KERNEL = 3
STRIDE = 2


@dataclass(frozen=True)
class LossConfig:
    """Contrastive loss settings: softmax temperature and pair count."""

    temperature: float = 0.1
    num_samples: int = 1

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0 and 1.0 / float(self.temperature) < np.inf):
            raise ConfigError(f"temperature: need a finite 1 / temperature > 0, "
                              f"got {self.temperature}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        # Each of the 2N terms of the loss is at most 2 / temperature, so
        # their sum is finite while this bound is.
        try:
            sum_bound = 4 * self.num_samples / self.temperature
        except OverflowError:  # a count past the float range
            sum_bound = np.inf
        if not sum_bound < np.inf:
            raise ConfigError(f"temperature: need a finite 4 * num_samples / "
                              f"temperature, got {self.temperature} at "
                              f"num_samples = {self.num_samples}")


def _check_embeddings(embeddings: np.ndarray, cfg: LossConfig) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim < 2:
        raise DimensionError(f"embeddings must be (..., 2N, D), got shape {e.shape}")
    if e.shape[-2] != 2 * cfg.num_samples:
        raise DimensionError(
            f"expected {2 * cfg.num_samples} rows for num_samples="
            f"{cfg.num_samples}, got {e.shape[-2]}"
        )
    return e


def _normalise_rows(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise unit vectors plus the original norms (zero rows stay zero)."""
    norms = np.sqrt(np.sum(e * e, axis=-1))
    safe = np.where(norms > _NORM_EPS, norms, 1.0)
    unit = e / safe[..., None]
    unit[norms <= _NORM_EPS] = 0.0
    return unit, norms


def _normalise_rows_backward(grad_unit: np.ndarray, unit: np.ndarray,
                             norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the raw rows of :func:`_normalise_rows`, given the
    gradient w.r.t. its *unit* rows: the radial component is projected out
    and the rest divided by the norm; zero rows get a zero gradient."""
    radial = np.sum(grad_unit * unit, axis=-1, keepdims=True)
    grad = (grad_unit - radial * unit) / np.where(
        norms > _NORM_EPS, norms, 1.0
    )[..., None]
    grad[norms <= _NORM_EPS] = 0.0
    return grad


def _pair_softmax(e: np.ndarray, cfg: LossConfig):
    """Shared forward pieces: unit rows, off-diagonal softmax, partner index."""
    unit, norms = _normalise_rows(e)
    logits = (unit @ np.swapaxes(unit, -1, -2)) / cfg.temperature
    n_rows = e.shape[-2]
    diag = np.arange(n_rows)
    logits[..., diag, diag] = -np.inf     # anchor never its own candidate
    shift = np.max(logits, axis=-1, keepdims=True)
    expd = np.exp(logits - shift)
    denom = np.sum(expd, axis=-1, keepdims=True)
    softmax = expd / denom
    log_denom = shift[..., 0] + np.log(denom[..., 0])
    partner = diag ^ 1                     # 2k <-> 2k+1
    return unit, norms, logits, softmax, log_denom, partner


def nt_xent(embeddings: np.ndarray, cfg: LossConfig):
    """Average pairwise contrastive loss over all 2N ordered view pairs.

    *embeddings* is (..., 2N, D): leading axes hold independent batches,
    and the loss is an array of the leading shape; a (2N, D) batch gives a
    float.
    """
    e = _check_embeddings(embeddings, cfg)
    _, _, logits, _, log_denom, partner = _pair_softmax(e, cfg)
    rows = np.arange(e.shape[-2])
    loss = np.mean(log_denom - logits[..., rows, partner], axis=-1)
    return float(loss) if e.ndim == 2 else loss


def nt_xent_backward(embeddings: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Gradient of :func:`nt_xent` w.r.t. the raw (unnormalised) (2N, D) rows."""
    e = _check_embeddings(embeddings, cfg)
    if e.ndim != 2:
        raise DimensionError(f"the backward takes (2N, D) embeddings, got {e.shape}")
    unit, norms, _, softmax, _, partner = _pair_softmax(e, cfg)
    n_rows = e.shape[0]
    rows = np.arange(n_rows)
    # d(loss)/d(similarity matrix): softmax minus the one-hot partner, scaled.
    grad_sim = softmax.copy()
    grad_sim[rows, partner] -= 1.0
    grad_sim /= n_rows * cfg.temperature
    return _normalise_rows_backward((grad_sim + grad_sim.T) @ unit, unit, norms)


# ---------------------------------------------------------------------------
# Toy encoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyEncoder:
    """Weights of one video encoder, or a stack of them on shared leading axes.

    conv_weight : (..., channels_out, channels_in, KERNEL, KERNEL, KERNEL)
    conv_bias : (..., channels_out)
    proj_weight : (..., embed_dim, channels_out)
    proj_bias : (..., embed_dim)

    ``kernel`` and ``stride`` are the fixed :data:`KERNEL` and :data:`STRIDE`.
    """

    conv_weight: np.ndarray
    conv_bias: np.ndarray
    proj_weight: np.ndarray
    proj_bias: np.ndarray
    kernel: ClassVar[int] = KERNEL
    stride: ClassVar[int] = STRIDE

    @property
    def embed_dim(self) -> int:
        return self.proj_weight.shape[-2]

    @classmethod
    def initialise(
        cls,
        rng: np.random.Generator,
        in_channels: int,
        conv_channels: int,
        embed_dim: int,
    ) -> "ToyEncoder":
        """Uniform fan-in init, same flavour as common conv initialisers."""
        fan_conv = in_channels * KERNEL**3
        a = 1.0 / np.sqrt(fan_conv)
        conv_w = rng.uniform(-a, a, size=(conv_channels, in_channels) + (KERNEL,) * 3)
        conv_b = rng.uniform(-a, a, size=conv_channels)
        b = 1.0 / np.sqrt(conv_channels)
        proj_w = rng.uniform(-b, b, size=(embed_dim, conv_channels))
        proj_b = rng.uniform(-b, b, size=embed_dim)
        return cls(conv_w, conv_b, proj_w, proj_b)


@dataclass(frozen=True)
class EncodeCache:
    """Forward intermediates for :func:`encode_backward`, one row per clip.

    ``cols`` is the forward's (R * P, C * K^3) im2col matrix, one row per
    output position, and ``video_shape`` the (R, C, T, H, W) shape of the
    clips it was built from.  ``conv_pre`` is (..., R, T', H', W', O): the
    pre-activation of every output position and conv channel; ``embedding``
    is the returned (..., R, E) unit rows and ``norm`` (..., R) the norms of
    the projections they normalise.  ``...`` are the encoder's leading axes,
    which the backward does not take.
    """

    cols: np.ndarray
    video_shape: tuple[int, ...]
    conv_pre: np.ndarray
    pooled: np.ndarray
    embedding: np.ndarray
    norm: np.ndarray


def feature_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Output positions along each axis of *shape* of the encoder's valid
    convolution: ``(n - KERNEL) // STRIDE + 1``."""
    return tuple((n - KERNEL) // STRIDE + 1 for n in shape)


def footprint(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The leading extent of each axis of *shape* that the encoder's valid
    convolution reads: its last window starts at ``(f - 1) * STRIDE`` for
    ``f`` output positions and spans ``KERNEL`` taps.

    Clips cut to it give the same output positions, from the same voxels, as
    clips of the full *shape*.
    """
    return tuple((f - 1) * STRIDE + KERNEL for f in feature_shape(shape))


def _im2col(video: np.ndarray) -> np.ndarray:
    """(R, C, T, H, W) -> (R * P, C * K^3): one row per output position."""
    video = np.ascontiguousarray(video)
    s_r, s_c, s_t, s_h, s_w = video.strides
    # Strided view (R, t, h, w, C, i, j, k) over the clips, copied once.
    windows = np.ndarray(
        video.shape[:1] + feature_shape(video.shape[2:])
        + (video.shape[1],) + (KERNEL,) * 3,
        dtype=video.dtype,
        buffer=video,
        strides=(s_r, STRIDE * s_t, STRIDE * s_h, STRIDE * s_w, s_c, s_t, s_h, s_w),
    )
    return windows.reshape(-1, video.shape[1] * KERNEL**3)


def encode(video: np.ndarray, enc: ToyEncoder) -> tuple[np.ndarray, EncodeCache]:
    """Embed R clips with one im2col matmul, batched over *enc*'s leading axes ``...``.

    Parameters
    ----------
    video : (R, C, T, H, W) ndarray
        One clip per row; a single clip is a leading axis of 1.

    Returns
    -------
    (embeddings, cache)
        ``embeddings`` is (..., R, embed_dim), each row unit-norm (or zero
        when its projection vanishes).
    """
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 5:
        raise DimensionError(f"video must be (R, C, T, H, W), got {video.shape}")
    lead, (out_ch, in_ch) = enc.conv_weight.shape[:-5], enc.conv_weight.shape[-5:-3]
    if enc.conv_weight.shape[-3:] != (KERNEL,) * 3:
        raise DimensionError(
            f"conv_weight must end in a {KERNEL}x{KERNEL}x{KERNEL} kernel, "
            f"got shape {enc.conv_weight.shape}"
        )
    if video.shape[1] != in_ch:
        raise DimensionError(f"video has {video.shape[1]} channels, expected {in_ch}")
    if min(video.shape[2:]) < KERNEL:
        raise DimensionError(
            f"every video axis must be >= kernel {KERNEL}, got {video.shape[2:]}"
        )
    cols = _im2col(video)
    w_mat = enc.conv_weight.reshape(lead + (out_ch, -1))
    pre = cols @ np.swapaxes(w_mat, -1, -2)
    pre += enc.conv_bias[..., None, :]
    pre = pre.reshape(lead + video.shape[:1]
                      + feature_shape(video.shape[2:]) + (out_ch,))
    act = np.maximum(pre, 0.0).reshape(lead + (video.shape[0], -1, out_ch))
    pooled = act.sum(axis=-2) / act.shape[-2]
    # An overflowing projection or norm would make the embedding 0 or NaN and
    # the loss collapse to a constant instead of failing; the check raises on
    # either, so the products need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        embedding, norm = _normalise_rows(pooled @ np.swapaxes(enc.proj_weight, -1, -2)
                                          + enc.proj_bias[..., None, :])
    if not np.all(np.isfinite(norm)):
        raise NumericsError("non-finite embedding norm in encoder forward")
    cache = EncodeCache(cols=cols, video_shape=video.shape, conv_pre=pre,
                        pooled=pooled, embedding=embedding, norm=norm)
    return embedding, cache


def encode_backward(
    grad_embedding: np.ndarray,
    cache: EncodeCache,
    enc: ToyEncoder,
    input_grad: bool = True,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of :func:`encode` w.r.t. one encoder's weights and the clips.

    Parameters
    ----------
    grad_embedding : (R, embed_dim) ndarray
    input_grad : bool
        When False the clip gradient is not computed and None is returned
        in its place, for callers that would discard it.

    Returns
    -------
    (grads, grad_video)
        ``grads`` is keyed by the :class:`ToyEncoder` field names
        (``conv_weight``, ``conv_bias``, ``proj_weight``, ``proj_bias``), so
        ``replace(enc, **updated)`` applies an update; each gradient is summed
        over the rows.  ``grad_video`` matches the input clips' shape.

    The weight and clip gradients are read from the cache's im2col matrix and
    conv weights; the clips themselves are not needed.
    """
    if enc.conv_weight.ndim != 5:
        raise DimensionError(f"backward takes one encoder, got {enc.conv_weight.shape}")
    g_emb = np.asarray(grad_embedding, dtype=np.float64)
    if g_emb.shape != cache.embedding.shape:
        raise DimensionError(
            f"grad_embedding shape {g_emb.shape} does not match "
            f"{cache.embedding.shape}"
        )
    g_proj = _normalise_rows_backward(g_emb, cache.embedding, cache.norm)
    g_pooled = g_proj @ enc.proj_weight
    n_rows, n_t, n_h, n_w, out_ch = cache.conv_pre.shape
    pre = cache.conv_pre.reshape(n_rows, -1, out_ch)
    g_pre = np.where(pre > 0.0, (g_pooled / pre.shape[1])[:, None, :], 0.0)
    g_pre = g_pre.reshape(-1, out_ch)

    k, s = KERNEL, STRIDE
    grads = {
        "conv_weight": (g_pre.T @ cache.cols).reshape(enc.conv_weight.shape),
        "conv_bias": g_pre.sum(axis=0),
        "proj_weight": g_proj.T @ cache.pooled,
        "proj_bias": g_proj.sum(axis=0),
    }
    if not input_grad:
        return grads, None

    n_ch = cache.video_shape[1]
    g_cols = g_pre @ enc.conv_weight.reshape(out_ch, -1)
    # (R, t, h, w, C, i, j, l) -> (i, j, l, R, C, t, h, w): one strided add
    # per kernel tap.
    g_cols = g_cols.reshape(n_rows, n_t, n_h, n_w, n_ch, k, k, k)
    g_cols = g_cols.transpose(5, 6, 7, 0, 4, 1, 2, 3)
    grad_video = np.zeros(cache.video_shape)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                grad_video[
                    :,
                    :,
                    i : i + s * (n_t - 1) + 1 : s,
                    j : j + s * (n_h - 1) + 1 : s,
                    l : l + s * (n_w - 1) + 1 : s,
                ] += g_cols[i, j, l]
    return grads, grad_video
