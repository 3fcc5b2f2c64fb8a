"""Input perturbations: adversarial attacks and smoothing samples.

Attacks differentiate a caller-supplied loss with respect to a fresh input
leaf; run them against a frozen parameter view so model gradients stay clean.
`loss_fn` maps a (B, D) Tensor leaf to a per-sample (B,) loss Tensor.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_NORM_FLOOR = 1e-12


class PerturbMethod(str, enum.Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"
    FGSM = "fgsm"
    PGD = "pgd"


@dataclass
class PerturbSpec:
    method: PerturbMethod = PerturbMethod.NONE
    radius: float = 0.0          # L2 budget per sample; inf = unconstrained
    epsilon_inf: float = 0.01    # FGSM step in the max norm
    step_size: float = 0.0       # PGD step; 0 = auto (2.5 * radius / steps)
    steps: int = 7
    sample_count: int = 8        # Gaussian smoothing draws
    sample_fraction: float = 1.0  # share of batch rows that get attacked

    def __post_init__(self):
        self.method = PerturbMethod(self.method)
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in [0, 1], got {self.sample_fraction}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not np.isfinite(self.epsilon_inf) or self.epsilon_inf < 0:
            raise ValueError(f"epsilon_inf must be finite and nonnegative, got {self.epsilon_inf}")

    def pgd_step_size(self) -> float:
        if self.step_size > 0:
            return self.step_size
        if np.isfinite(self.radius) and self.radius > 0:
            return 2.5 * self.radius / self.steps
        return 0.1


def project_ball(x_tilde: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Project each row back onto the L2 ball of the given radius around center."""
    if radius == 0:
        return center.copy()
    if not np.isfinite(radius):
        return x_tilde.copy()
    delta = x_tilde - center
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    factor = np.minimum(1.0, radius / np.maximum(norms, _NORM_FLOOR))
    return center + delta * factor


def _value_and_grad(loss_fn, x: np.ndarray):
    leaf = Tensor(x.copy(), requires_grad=True)
    per_sample = loss_fn(leaf)
    per_sample.sum().backward()
    return per_sample.data.copy(), leaf.grad.copy()


def fgsm(loss_fn, x: np.ndarray, spec: PerturbSpec) -> np.ndarray:
    """One signed-gradient step of size epsilon_inf, then L2-ball projection.

    radius=inf leaves the raw signed step unclipped.  Zero gradient rows come
    back unchanged (sign(0) = 0); that is the documented no-op, not an error.
    """
    if spec.radius == 0:
        return x.copy()
    _, grad = _value_and_grad(loss_fn, x)
    stepped = x + spec.epsilon_inf * np.sign(grad)
    return project_ball(stepped, x, spec.radius)


def pgd(loss_fn, x: np.ndarray, spec: PerturbSpec) -> np.ndarray:
    """Projected gradient ascent with L2-normalized steps.

    Keeps the best iterate per sample by recorded loss (the start point
    counts), so the returned loss never falls below the clean loss.  With
    steps=1 this is one L2-normalized ascent step, the normalized FGSM.
    """
    if spec.radius == 0:
        return x.copy()
    alpha = spec.pgd_step_size()
    current = x.copy()
    best = x.copy()
    best_val = None
    for _ in range(spec.steps):
        val, grad = _value_and_grad(loss_fn, current)
        if best_val is None:
            best_val = val
        else:
            improved = val > best_val
            best[improved] = current[improved]
            best_val = np.maximum(best_val, val)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        direction = np.where(norms > _NORM_FLOOR, grad / np.maximum(norms, _NORM_FLOOR), 0.0)
        current = project_ball(current + alpha * direction, x, spec.radius)
    final_val = loss_fn(Tensor(current)).data
    improved = final_val > best_val
    best[improved] = current[improved]
    return best


def gaussian_samples(x: np.ndarray, spec: PerturbSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """sample_count isotropic draws with per-coordinate sigma = radius / sqrt(d).

    The expected squared displacement matches radius^2; individual draws may
    leave the hard ball (smoothing samples are exempt from the budget).
    """
    d = x.shape[1]
    sigma = 0.0 if spec.radius == 0 else spec.radius / np.sqrt(d)
    return [x + rng.normal(scale=sigma, size=x.shape) if sigma else x.copy()
            for _ in range(spec.sample_count)]


def attacked_row_mask(batch: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded choice of which rows receive an attack at evaluation time."""
    n = int(round(fraction * batch))
    mask = np.zeros(batch, dtype=bool)
    if n:
        mask[rng.permutation(batch)[:n]] = True
    return mask
