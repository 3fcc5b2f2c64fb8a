"""Input perturbations: adversarial attacks and smoothing samples.

Attacks differentiate a caller-supplied loss with respect to a fresh input
leaf; run them against a frozen parameter view so model gradients stay clean.
`loss_fn` maps a (B, D) Tensor leaf to a per-sample (B,) loss Tensor.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .rules import check, ruled
from .tensor import Tensor

_NORM_FLOOR = 1e-12


def _row_norms(v: np.ndarray) -> np.ndarray:
    """(B, 1) L2 norms of v's rows: np.linalg.norm(v, axis=1, keepdims=True)'s operations."""
    return np.sqrt(np.add.reduce(v * v, 1, keepdims=True))


class PerturbMethod(str, enum.Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"
    FGSM = "fgsm"
    PGD = "pgd"


@dataclass
class PerturbSpec:
    method: PerturbMethod = ruled(PerturbMethod, PerturbMethod.NONE)
    radius: float = ruled(float, 0.0, least=0.0, finite=False)  # L2 budget; inf = unconstrained
    epsilon_inf: float = ruled(float, 0.01, least=0.0)   # FGSM step in the max norm
    steps: int = ruled(int, 7, least=1)
    sample_count: int = ruled(int, 8, least=1)           # Gaussian smoothing draws
    sample_fraction: float = ruled(float, 1.0, least=0.0, most=1.0)  # share of eval rows attacked

    __post_init__ = check


def project_ball(x_tilde: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Project each row back onto the L2 ball of the given radius around center."""
    if radius == 0:
        return center.copy()
    if not np.isfinite(radius):
        return x_tilde.copy()
    delta = x_tilde - center
    norms = _row_norms(delta)
    factor = np.minimum(1.0, radius / np.maximum(norms, _NORM_FLOOR))
    return center + delta * factor


def _value_and_grad(loss_fn, x: np.ndarray):
    leaf = Tensor(x, requires_grad=True)  # nothing writes a leaf's data
    per_sample = loss_fn(leaf)
    per_sample.sum().backward()
    return per_sample.data, leaf.grad  # the leaf and its graph die with this call


def fgsm(loss_fn, x: np.ndarray, spec: PerturbSpec) -> np.ndarray:
    """One signed-gradient step of size epsilon_inf, then L2-ball projection.

    radius=inf leaves the raw signed step unclipped.  Zero gradient rows come
    back unchanged (sign(0) = 0); that is the documented no-op, not an error.
    """
    _, grad = _value_and_grad(loss_fn, x)
    stepped = x + spec.epsilon_inf * np.sign(grad)
    return project_ball(stepped, x, spec.radius)


def pgd(loss_fn, x: np.ndarray, spec: PerturbSpec) -> np.ndarray:
    """Projected gradient ascent with L2-normalized steps of 2.5 * radius / steps
    (0.1 for an infinite radius).

    Keeps the best iterate per sample by recorded loss (the start point
    counts), so the returned loss never falls below the clean loss.  With
    steps=1 this is one L2-normalized ascent step, the normalized FGSM.
    """
    alpha = 2.5 * spec.radius / spec.steps if np.isfinite(spec.radius) else 0.1
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
        norms = _row_norms(grad)
        direction = np.where(norms > _NORM_FLOOR, grad / np.maximum(norms, _NORM_FLOOR), 0.0)
        current = project_ball(current + alpha * direction, x, spec.radius)
    final_val = loss_fn(Tensor(current)).data
    improved = final_val > best_val
    best[improved] = current[improved]
    return best


def searches(spec: PerturbSpec) -> bool:
    """Whether `attack` searches under this spec: FGSM or PGD over a positive radius."""
    return spec.radius > 0 and spec.method in (PerturbMethod.FGSM, PerturbMethod.PGD)


def attack(loss_fn, x: np.ndarray, spec: PerturbSpec) -> np.ndarray:
    """The spec's search around x, or a copy of x where it `searches` nothing;
    `fgsm` and `pgd` are looked up per call, so a wrapper bound over them runs."""
    if not searches(spec):
        return x.copy()
    return (fgsm if spec.method is PerturbMethod.FGSM else pgd)(loss_fn, x, spec)


def gaussian_samples(x: np.ndarray, spec: PerturbSpec, rng: np.random.Generator) -> np.ndarray:
    """sample_count isotropic draws around the (B, D) x, as one (K, B, D) array.

    Per-coordinate sigma is radius / sqrt(D), so the expected squared
    displacement matches radius^2; individual draws may leave the hard ball
    (smoothing samples are exempt from the budget).  The K draws come from one
    standard-normal call, the same stream as K calls of shape (B, D) in turn,
    scaled and shifted in place: the bytes of x + rng.normal(scale=sigma, ...).
    """
    d = x.shape[1]
    sigma = 0.0 if spec.radius == 0 else spec.radius / np.sqrt(d)
    if not sigma:
        return np.repeat(x[None], spec.sample_count, axis=0)
    draws = rng.standard_normal((spec.sample_count, *x.shape))
    draws *= sigma
    draws += x
    return draws


def attacked_row_mask(batch: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded choice of which rows receive an attack at evaluation time."""
    n = int(round(fraction * batch))
    mask = np.zeros(batch, dtype=bool)
    if n:
        mask[rng.permutation(batch)[:n]] = True
    return mask
