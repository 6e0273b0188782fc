"""Noise-to-crop-parameter generator and its adversarial training plumbing.

The generator is a deliberately small two-layer perceptron without biases:
``unit = sigmoid(relu(noise @ W1.T) @ W2.T)`` with noise drawn uniformly from
[0, 1).  It is batch-first: ``R`` noise rows in, ``(R, 6)`` unit params out,
and the backward sums the weight gradients over the rows.  Because freshly
initialised weights are tiny, the pre-sigmoid outputs start near zero and
every unit parameter starts near 0.5 — the two crop branches therefore begin
almost identical and drift apart only as the adversarial signal pushes them.

The generator maximises the contrastive loss; rather than special-casing an
ascent optimiser, callers negate the incoming gradient with
:func:`reverse_gradient` and reuse ordinary SGD descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, TrainingError

DEFAULT_NOISE_DIM = 16
DEFAULT_HIDDEN_DIM = 32
WEIGHT_INIT_SCALE = 0.01


@dataclass(frozen=True)
class CropperState:
    """Weights of one generator; the run's ``TrainConfig.bounds`` map its units."""

    w1: np.ndarray  # (hidden_dim, noise_dim)
    w2: np.ndarray  # (6, hidden_dim)

    @property
    def noise_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def initialise(
        cls,
        rng: np.random.Generator,
        noise_dim: int = DEFAULT_NOISE_DIM,
        hidden_dim: int = DEFAULT_HIDDEN_DIM,
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


@dataclass(frozen=True)
class MlpCache:
    """Forward intermediates needed by :func:`mlp_backward`, one row per draw."""

    noise: np.ndarray  # (R, noise_dim)
    hidden_pre: np.ndarray  # (R, hidden_dim)
    hidden: np.ndarray  # (R, hidden_dim)
    unit: np.ndarray  # (R, 6)


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
    """Map (R, noise_dim) noise rows to (R, 6) unit-interval crop parameters."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 2 or noise.shape[1] != state.noise_dim:
        raise ConfigError(
            f"noise shape {noise.shape} does not match generator input "
            f"(R, {state.noise_dim})"
        )
    hidden_pre = noise @ state.w1.T
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ state.w2.T
    # Non-finite crop parameters would otherwise reach the sampler's integer
    # gather.  The sigmoid maps an infinite logit to a finite 0 or 1, so the
    # logits are checked; an infinite hidden unit makes them inf or NaN.
    if not np.all(np.isfinite(logits)):
        raise NumericsError("non-finite values in generator forward")
    unit = _stable_sigmoid(logits)
    return unit, MlpCache(noise=noise, hidden_pre=hidden_pre,
                          hidden=hidden, unit=unit)


def mlp_backward(
    grad_unit: np.ndarray, cache: MlpCache, state: CropperState
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the generator weights given (R, 6) gradients on the outputs.

    Returns ``(grad_w1, grad_w2)``, each summed over the R rows.  The ReLU
    subgradient at exactly zero is taken as zero.
    """
    grad_unit = np.asarray(grad_unit, dtype=np.float64)
    v = cache.unit
    grad_raw = grad_unit * v * (1.0 - v)          # through the sigmoid
    grad_w2 = grad_raw.T @ cache.hidden
    grad_pre = (grad_raw @ state.w2) * (cache.hidden_pre > 0.0)
    grad_w1 = grad_pre.T @ cache.noise
    return grad_w1, grad_w2


def reverse_gradient(grad: np.ndarray) -> np.ndarray:
    """Exact sign flip (identity forward is implicit upstream).

    Negation is exact in IEEE-754, so descending on the reversed gradient is
    bit-for-bit identical to ascending on the original.
    """
    return -np.asarray(grad, dtype=np.float64)


@dataclass
class SgdMomentum:
    """Classic momentum SGD over a named parameter dict.

    velocity = momentum * velocity + grad;  param -= lr * velocity
    """

    lr: float
    momentum: float = 0.9
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        step_index: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Return updated parameters; velocities persist on the optimiser."""
        out: dict[str, np.ndarray] = {}
        for name, value in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if not np.all(np.isfinite(g)):
                where = "" if step_index is None else f" at step {step_index}"
                raise TrainingError(f"non-finite gradient for '{name}'{where}")
            vel = self.velocities.get(name)
            vel = g if vel is None else self.momentum * vel + g
            self.velocities[name] = vel
            out[name] = value - self.lr * vel
        return out


def update_weights(
    state: CropperState,
    grad_w1: np.ndarray,
    grad_w2: np.ndarray,
    optimiser: SgdMomentum,
    step_index: int | None = None,
) -> CropperState:
    """One optimiser step on a generator; returns the new state."""
    updated = optimiser.step(
        {"w1": state.w1, "w2": state.w2},
        {"w1": grad_w1, "w2": grad_w2},
        step_index=step_index,
    )
    return CropperState(w1=updated["w1"], w2=updated["w2"])
