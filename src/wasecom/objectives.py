"""Penalized worst-case training objectives over Wasserstein balls.

Both training phases minimize the same penalized dual form

    penalty + E_batch[ sup_v { loss(v) - dual_var * ||v - center||^2 } ]

with penalty = dual_var * radius^2.  The inner phase perturbs the source
samples and scores reconstruction fidelity; the outer phase perturbs the
received signal and scores the channel codec.  The sup is found either by
projected gradient ascent (hard path) or replaced by a temperature-smoothed
log-sum-exp over Gaussian samples.  Perturbations enter the final graph as
constant offsets added to the live forward pass, so parameters upstream of
the perturbation point still receive gradients (the envelope/Danskin rule).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import models as M
from . import tensor as T
from .channel import ChannelConfig, ChannelRealization, realization_for, transmit
from .perturb import PerturbSpec, attack, gaussian_samples
from .rules import check, ruled
from .tensor import Tensor


@dataclass
class RobustnessConfig:
    # each finite: an infinite radius or dual variable makes the penalty lam * rho^2 inf or NaN
    rho: float = ruled(float, 0.0, least=0.0)             # source-side ball radius
    mu: float = ruled(float, 0.0, least=0.0)              # signal-side ball radius
    lam: float = ruled(float, 1.0, least=0.0)             # inner dual variable
    gamma: float = ruled(float, 1.0, least=0.0)           # outer dual variable
    epsilon_temp: float = ruled(float, 1.0, above=0.0)    # LSE temperature
    use_lse: bool = ruled(bool, False)
    lambda_learnable: bool = ruled(bool, True)

    __post_init__ = check


@dataclass
class DualObjectiveValue:
    total: Tensor               # differentiable scalar: penalty + expectation
    penalty_term: float         # dual_var * radius^2
    expectation_term: float
    mean_cost: float            # cost weight for the envelope dual update
    worst_case: np.ndarray | None = None


def lse_combine(scored: Tensor, epsilon_temp: float) -> Tensor:
    """In-graph per-sample LSE over axis 0 of a (K, B) score tensor; max is detached.

    Column b is epsilon * log(mean_k exp(v_kb / epsilon)), which sits in the
    sandwich max_k(v_kb) - epsilon*log(K) <= result <= max_k(v_kb).
    """
    m = Tensor(scored.data.max(axis=0))
    shifted = T.exp(T.scale(scored - m, 1.0 / epsilon_temp))
    mean_exp = T.scale(shifted.sum(axis=0), 1.0 / scored.data.shape[0])
    return m + T.scale(T.log(mean_exp), epsilon_temp)


def penalized_sup_hard(per_sample_loss_fn, x: np.ndarray, dual_var: float,
                       spec: PerturbSpec) -> np.ndarray:
    """Ascend loss(v) - dual_var * ||v - x||^2 by the spec's `attack`; return v*."""

    def scored(leaf: Tensor) -> Tensor:
        return per_sample_loss_fn(leaf) - T.scale(T.row_sq_dist(leaf, x), dual_var)

    return attack(scored, x, spec)


# ----------------------------------------------------------------- pipelines
def _stack(rows: np.ndarray, k: int) -> np.ndarray:
    """k stacked copies of a (B, D) array; for k = 1 the array itself, which no pass writes."""
    return rows if k == 1 else np.tile(rows, (k, 1))


def _tile(realization: ChannelRealization, k: int) -> ChannelRealization:
    """The same per-row channel draw for k stacked copies of the batch."""
    return ChannelRealization(h=_stack(realization.h, k), w=_stack(realization.w, k))


def clean_inner_loss(bundle, x, channel_cfg: ChannelConfig, rng) -> Tensor:
    """Plain reconstruction loss through one stochastic channel draw."""
    u = M.encode_signal(bundle, M.source_points(bundle, x))
    out = M.decode_signal(bundle, u, realization_for(channel_cfg, u.data, rng))
    return M.per_sample_reconstruction_loss(bundle, x, out).mean()


def clean_outer_loss(bundle, x, channel_cfg: ChannelConfig, rng) -> Tensor:
    """Channel-codec distortion on a frozen semantic target."""
    frozen = bundle.frozen()
    s0 = M.semantic_encode(frozen, x).data
    u = M.channel_encode(bundle, Tensor(s0))
    z, _ = transmit(channel_cfg, u, rng)
    s_hat = M.channel_decode(bundle, z)
    return M.per_sample_channel_loss(Tensor(s0), s_hat).mean()


# ----------------------------------------------------------- dual objectives
def _penalized_objective(loss_at, bundle, frozen, live_center: Tensor, dual_var: float,
                         radius: float, rob: RobustnessConfig, spec: PerturbSpec,
                         draw_rng: np.random.Generator) -> DualObjectiveValue:
    """penalty + E_batch[sup_v loss(v) - dual_var * ||v - center||^2] for one phase.

    `loss_at(view, points, k)` is the phase's (k*B,) per-sample loss under
    `bundle` or its `frozen` view at (k*B, D) points, k stacked copies of the
    batch.  The points are the live (B, D) center plus constant offsets: K
    Gaussian draws on the LSE path, whose scores are smoothed over their
    maximum, or the single optimum that `penalized_sup_hard` finds on the
    frozen view (hard path; the center itself where the spec searches nothing).
    """
    center = live_center.data
    spec = dataclasses.replace(spec, radius=radius)
    worst = None
    if rob.use_lse:
        offsets = gaussian_samples(center, spec, draw_rng) - center
    else:
        worst = penalized_sup_hard(lambda v: loss_at(frozen, v, 1), center, dual_var, spec)
        offsets = (worst - center)[None]

    k, b, d = offsets.shape
    points = (live_center.reshape(1, b, d) + Tensor(offsets)).reshape(k * b, d)
    cost = np.sum(offsets**2, axis=2)
    scored = loss_at(bundle, points, k).reshape(k, b) - T.scale(Tensor(cost), dual_var)
    if rob.use_lse:
        expectation = lse_combine(scored, rob.epsilon_temp).mean()
        # envelope weight: softmax of scores at the optimum
        soft = np.exp((scored.data - scored.data.max(axis=0)) / rob.epsilon_temp)
        soft /= soft.sum(axis=0)
        mean_cost = float(np.mean(np.sum(soft * cost, axis=0)))
    else:
        expectation = scored.mean()
        mean_cost = float(np.mean(cost))

    penalty = dual_var * radius**2
    total = expectation + Tensor(penalty)
    return DualObjectiveValue(total=total, penalty_term=penalty,
                              expectation_term=float(expectation.data),
                              mean_cost=mean_cost, worst_case=worst)


def inner_dual_loss(bundle, x, channel_cfg: ChannelConfig, rob: RobustnessConfig,
                    spec: PerturbSpec, rng: np.random.Generator,
                    attack_rng: np.random.Generator | None = None) -> DualObjectiveValue:
    """Source-side robust objective; gradients feed the semantic codec.

    One channel realization is drawn against the clean pass and reused for the
    attack search and the final differentiable pass.  The search runs around
    the live source points, so for text the embedding table gets gradient.
    """
    frozen = bundle.frozen()
    center = M.source_points(bundle, x)
    u0 = M.channel_encode(frozen, M.semantic_encode(frozen, x))
    realization = realization_for(channel_cfg, u0.data, rng)

    def loss_at(view, points: Tensor, k: int) -> Tensor:
        out = M.pipeline(view, points, _tile(realization, k))
        return M.per_sample_reconstruction_loss(view, _stack(x, k), out)

    return _penalized_objective(loss_at, bundle, frozen, center, rob.lam, rob.rho, rob, spec,
                                attack_rng or rng)


def outer_dual_loss(bundle, x, channel_cfg: ChannelConfig, rob: RobustnessConfig,
                    spec: PerturbSpec, rng: np.random.Generator,
                    attack_rng: np.random.Generator | None = None) -> DualObjectiveValue:
    """Signal-side robust objective; gradients feed the channel codec.

    The semantic vector is held fixed; the received signal is perturbed inside
    a ball of radius mu.  The offsets re-enter the graph on top of the
    transmitted signal so the channel encoder keeps its gradient path.
    """
    frozen = bundle.frozen()
    s0 = M.semantic_encode(frozen, x).data
    u = M.channel_encode(bundle, Tensor(s0))
    z, _ = transmit(channel_cfg, u, rng)

    def loss_at(view, points: Tensor, k: int) -> Tensor:
        return M.per_sample_channel_loss(Tensor(_stack(s0, k)), M.channel_decode(view, points))

    return _penalized_objective(loss_at, bundle, frozen, z, rob.gamma, rob.mu, rob, spec,
                                attack_rng or rng)


def update_duals(rob: RobustnessConfig, dual_lr: float,
                 inner_cost: float | None = None,
                 outer_cost: float | None = None) -> RobustnessConfig:
    """Projected gradient step on the dual variables.

    The envelope derivative of the penalized objective in the dual variable is
    radius^2 - E[cost at the optimizer], so descent moves the variable by its
    negation and clips at zero.
    """
    lam, gamma = rob.lam, rob.gamma
    if rob.lambda_learnable and inner_cost is not None:
        lam = max(0.0, lam - dual_lr * (rob.rho**2 - inner_cost))
    if rob.lambda_learnable and outer_cost is not None:
        gamma = max(0.0, gamma - dual_lr * (rob.mu**2 - outer_cost))
    return dataclasses.replace(rob, lam=lam, gamma=gamma)
