"""Noise-to-crop-parameter generator and its adversarial training plumbing.

The generator is a deliberately small two-layer perceptron without biases:
``unit = sigmoid(relu(noise @ W1.T) @ W2.T)`` with noise drawn uniformly from
[0, 1).  It is batch-first: ``R`` noise rows in, ``(R, 6)`` unit-interval
draws out, of which a crop reads five (``simulator.CROP_COLUMNS``), and the
backward sums the weight gradients over the rows.  Leading weight axes stack
generators into one batched matmul, as for the training pair.  Because freshly
initialised weights are tiny, the pre-sigmoid outputs start near zero and
every unit parameter starts near 0.5 — the two crop branches therefore begin
almost identical and drift apart only as the adversarial signal pushes them.

The generator maximises the contrastive loss; rather than special-casing an
ascent optimiser, callers negate the incoming gradient with
:func:`reverse_gradient` and reuse ordinary SGD descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TypeVar

import numpy as np

from .errors import ConfigError, NumericsError, TrainingError

WEIGHT_INIT_SCALE = 0.01

Weights = TypeVar("Weights")


@dataclass(frozen=True)
class CropperState:
    """Weights of one generator (2-D), or of a stack of them on leading axes.

    The training pair stacks the view-A and view-B generators on axis 0; the
    run's ``TrainConfig.bounds`` map the units.
    """

    w1: np.ndarray  # (..., hidden_dim, noise_dim)
    w2: np.ndarray  # (..., 6, hidden_dim)

    @property
    def noise_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[-2]

    @classmethod
    def initialise(
        cls,
        rng: np.random.Generator,
        noise_dim: int,
        hidden_dim: int,
        init_scale: float = WEIGHT_INIT_SCALE,
    ) -> "CropperState":
        """Small-uniform random init so raw outputs start near zero."""
        if noise_dim < 1 or hidden_dim < 1:
            raise ConfigError(
                f"noise_dim and hidden_dim must be >= 1, "
                f"got {noise_dim} and {hidden_dim}"
            )
        w1 = rng.uniform(-init_scale, init_scale, size=(hidden_dim, noise_dim))
        w2 = rng.uniform(-init_scale, init_scale, size=(6, hidden_dim))
        return cls(w1=w1, w2=w2)

    @classmethod
    def stacked(cls, rngs, **kwargs) -> "CropperState":
        """One generator per rng, initialised in order, stacked on axis 0."""
        states = [cls.initialise(rng, **kwargs) for rng in rngs]
        return cls(w1=np.stack([s.w1 for s in states]),
                   w2=np.stack([s.w2 for s in states]))


@dataclass(frozen=True)
class MlpCache:
    """Forward intermediates needed by :func:`mlp_backward`, one row per draw."""

    noise: np.ndarray  # (..., R, noise_dim)
    hidden_pre: np.ndarray  # (..., R, hidden_dim)
    hidden: np.ndarray  # (..., R, hidden_dim)
    unit: np.ndarray  # (..., R, 6)


def sample_noise(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Draw *count* noise rows uniformly from [0, 1)^dim, shape (count, dim)."""
    if dim < 1:
        raise ConfigError(f"noise dimension must be >= 1, got {dim}")
    return rng.random((count, dim))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp() never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_forward(noise: np.ndarray, state: CropperState) -> tuple[np.ndarray, MlpCache]:
    """Map (..., R, noise_dim) noise rows to (..., R, 6) unit-interval params.

    *noise* must have the weights' leading axes; it is never broadcast.
    """
    noise = np.asarray(noise, dtype=np.float64)
    lead = state.w1.shape[:-2]
    if noise.ndim < 2 or noise.shape[:-2] != lead or noise.shape[-1] != state.noise_dim:
        raise ConfigError(
            f"noise shape {noise.shape} does not match generator input "
            f"{(*lead, 'R', state.noise_dim)}"
        )
    # Non-finite crop parameters would otherwise reach the sampler's integer
    # gather.  The sigmoid maps an infinite logit to a finite 0 or 1, so the
    # logits are checked; an infinite hidden unit makes them inf or NaN.  The
    # check raises on any overflow here, so the products need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        hidden_pre = noise @ np.swapaxes(state.w1, -1, -2)
        hidden = np.maximum(hidden_pre, 0.0)
        logits = hidden @ np.swapaxes(state.w2, -1, -2)
    if not np.all(np.isfinite(logits)):
        raise NumericsError("non-finite values in generator forward")
    unit = _stable_sigmoid(logits)
    return unit, MlpCache(noise=noise, hidden_pre=hidden_pre,
                          hidden=hidden, unit=unit)


def mlp_backward(
    grad_unit: np.ndarray, cache: MlpCache, state: CropperState
) -> dict[str, np.ndarray]:
    """Gradients of the generator weights given (..., R, 6) output gradients.

    Returns ``{"w1": ..., "w2": ...}``, keyed by the :class:`CropperState`
    field names, shaped like the weights and each summed over the R rows.
    The ReLU subgradient at exactly zero is taken as zero.
    """
    grad_unit = np.asarray(grad_unit, dtype=np.float64)
    v = cache.unit
    grad_raw = grad_unit * v * (1.0 - v)          # through the sigmoid
    grad_w2 = np.swapaxes(grad_raw, -1, -2) @ cache.hidden
    grad_pre = (grad_raw @ state.w2) * (cache.hidden_pre > 0.0)
    return {"w1": np.swapaxes(grad_pre, -1, -2) @ cache.noise, "w2": grad_w2}


def reverse_gradient(grad: np.ndarray) -> np.ndarray:
    """Exact sign flip (identity forward is implicit upstream).

    Negation is exact in IEEE-754, so descending on the reversed gradient is
    bit-for-bit identical to ascending on the original.
    """
    return -np.asarray(grad, dtype=np.float64)


@dataclass
class SgdMomentum:
    """Momentum SGD settings and per-field velocities for :func:`update_weights`."""

    lr: float
    momentum: float = 0.9
    velocities: dict[str, np.ndarray] = field(default_factory=dict)


def update_weights(
    state: Weights,
    grads: dict[str, np.ndarray],
    optimiser: SgdMomentum,
    step_index: int | None = None,
) -> Weights:
    """A copy of frozen weights *state* (generator or encoder) after one step.

    ``velocity = momentum * velocity + grad;  weight -= lr * velocity`` for
    each field named in *grads*; the velocities persist on *optimiser*.
    """
    updated: dict[str, np.ndarray] = {}
    for name, grad in grads.items():
        g = np.asarray(grad, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            where = "" if step_index is None else f" at step {step_index}"
            raise TrainingError(f"non-finite gradient for '{name}'{where}")
        vel = optimiser.velocities.get(name)
        vel = g if vel is None else optimiser.momentum * vel + g
        optimiser.velocities[name] = vel
        updated[name] = getattr(state, name) - optimiser.lr * vel
    return replace(state, **updated)
