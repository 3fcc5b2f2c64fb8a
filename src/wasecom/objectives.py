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
from .channel import ChannelConfig, ChannelRealization, transmit
from .perturb import PerturbMethod, PerturbSpec, fgsm, gaussian_samples, pgd
from .tensor import Tensor


@dataclass
class RobustnessConfig:
    rho: float = 0.0            # source-side ball radius
    mu: float = 0.0             # signal-side ball radius
    lam: float = 1.0            # inner dual variable
    gamma: float = 1.0          # outer dual variable
    epsilon_temp: float = 1.0   # LSE temperature
    use_lse: bool = False
    lambda_learnable: bool = True

    def __post_init__(self):
        if self.rho < 0 or self.mu < 0:
            raise ValueError("radii must be nonnegative")
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("dual variables must be nonnegative")
        if self.epsilon_temp <= 0:
            raise ValueError("epsilon_temp must be positive")


@dataclass
class DualObjectiveValue:
    total: Tensor               # differentiable scalar: penalty + expectation
    penalty_term: float         # dual_var * radius^2
    expectation_term: float
    mean_cost: float            # cost weight for the envelope dual update
    worst_case: np.ndarray | None = None


def transport_cost(a, b) -> np.ndarray:
    """Per-sample squared Euclidean ground cost between row-aligned batches."""
    da = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=float)
    db = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=float)
    if da.shape != db.shape:
        raise ValueError(f"transport_cost: shape mismatch {da.shape} vs {db.shape}")
    d = (da - db).reshape(len(da), -1)
    return np.sum(d * d, axis=1)


def _cost_in_graph(leaf: Tensor, center: np.ndarray) -> Tensor:
    return (leaf - Tensor(center)).square().sum(axis=1)


def lse_smooth(values, epsilon_temp: float) -> float:
    """epsilon * log(mean_k exp(v_k / epsilon)), stabilized by max subtraction.

    Sits in the sandwich max(v) - epsilon*log(K) <= result <= max(v).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("lse_smooth of an empty value set")
    if epsilon_temp <= 0:
        raise ValueError("epsilon_temp must be positive")
    m = v.max()
    return float(m + epsilon_temp * np.log(np.mean(np.exp((v - m) / epsilon_temp))))


def lse_combine(scored: Tensor, epsilon_temp: float) -> Tensor:
    """In-graph per-sample LSE over axis 0 of a (K, B) score tensor; max is detached."""
    m = Tensor(scored.data.max(axis=0))
    shifted = T.exp(T.scale(scored - m, 1.0 / epsilon_temp))
    mean_exp = T.scale(shifted.sum(axis=0), 1.0 / scored.data.shape[0])
    return m + T.scale(T.log(mean_exp), epsilon_temp)


def penalized_sup_hard(per_sample_loss_fn, x: np.ndarray, dual_var: float,
                       spec: PerturbSpec) -> np.ndarray:
    """Ascend loss(v) - dual_var * ||v - x||^2 inside the spec's ball; return v*."""

    def scored(leaf: Tensor) -> Tensor:
        return per_sample_loss_fn(leaf) - T.scale(_cost_in_graph(leaf, x), dual_var)

    if spec.method is PerturbMethod.FGSM:
        return fgsm(scored, x, spec)
    return pgd(scored, x, spec)


# ----------------------------------------------------------------- pipelines
def _tile(realization: ChannelRealization, k: int) -> ChannelRealization:
    """The same per-row channel draw for k stacked copies of the batch."""
    return ChannelRealization(h=np.tile(realization.h, (k, 1)),
                              w=np.tile(realization.w, (k, 1)), sigma2=realization.sigma2)


def clean_inner_loss(bundle, x, channel_cfg: ChannelConfig, rng) -> Tensor:
    """Plain reconstruction loss through one stochastic channel draw."""
    u = M.channel_encode(bundle, M.semantic_encode(bundle, x))
    z, _ = transmit(channel_cfg, u, rng)
    out = M.semantic_decode(bundle, M.channel_decode(bundle, z))
    return M.per_sample_reconstruction_loss(bundle, x, out).mean()


def clean_outer_loss(bundle, x, channel_cfg: ChannelConfig, rng) -> Tensor:
    """Channel-codec distortion on a frozen semantic target."""
    s0 = M.semantic_encode(bundle.frozen(), x).data
    u = M.channel_encode(bundle, Tensor(s0))
    z, _ = transmit(channel_cfg, u, rng)
    s_hat = M.channel_decode(bundle, z)
    return M.per_sample_channel_loss(Tensor(s0), s_hat).mean()


# ----------------------------------------------------------- dual objectives
def _penalized_objective(live_scored, frozen_loss, center: np.ndarray, dual_var: float,
                         radius: float, rob: RobustnessConfig, spec: PerturbSpec,
                         draw_rng: np.random.Generator) -> DualObjectiveValue:
    """penalty + E_batch[sup_v loss(v) - dual_var * ||v - center||^2] for one phase.

    `live_scored` maps (K, B, D) offsets from `center` to the (K, B) in-graph
    scores and their costs, in one stacked pass over K copies of the batch.
    The LSE path scores K Gaussian draws and smooths their maximum; the hard
    path scores the single optimum that `penalized_sup_hard` finds on the
    frozen `frozen_loss`.
    """
    spec = dataclasses.replace(spec, radius=radius)
    if rob.use_lse:
        draws = np.stack(gaussian_samples(center, spec, draw_rng))
        scored, cost = live_scored(draws - center)
        expectation = lse_combine(scored, rob.epsilon_temp).mean()
        # envelope weight: softmax of scores at the optimum
        soft = np.exp((scored.data - scored.data.max(axis=0)) / rob.epsilon_temp)
        soft /= soft.sum(axis=0)
        mean_cost = float(np.mean(np.sum(soft * cost, axis=0)))
        worst = None
    else:
        if spec.method in (PerturbMethod.NONE, PerturbMethod.GAUSSIAN) or radius == 0:
            worst = center.copy()
        else:
            worst = penalized_sup_hard(frozen_loss, center, dual_var, spec)
        scored, cost = live_scored((worst - center)[None])
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
    attack search and the final differentiable pass.
    """
    frozen = bundle.frozen()
    is_text = bundle.task is M.TaskKind.TEXT
    center = M.embed_tokens(frozen, x).data if is_text else np.asarray(x, dtype=float)
    u0 = M.encode_signal(frozen, Tensor(center))
    _, realization = transmit(channel_cfg, u0, rng)
    lam = rob.lam

    def frozen_loss(leaf: Tensor) -> Tensor:
        return M.per_sample_reconstruction_loss(frozen, x, M.pipeline(frozen, leaf, realization))

    def live_scored(offsets: np.ndarray):
        k, b = offsets.shape[:2]
        cost = np.sum(offsets.reshape(k, b, -1) ** 2, axis=2)
        if is_text:
            # the live embedding lookup stays in the graph, so the table gets gradient
            emb = M.embed_tokens(bundle, x)
            inputs = (emb.reshape(1, *emb.shape) + Tensor(offsets)).reshape(k * b, emb.shape[1])
        else:
            inputs = Tensor((center + offsets).reshape(k * b, -1))
        out = M.pipeline(bundle, inputs, _tile(realization, k))
        loss = M.per_sample_reconstruction_loss(bundle, np.tile(x, (k, 1)), out)
        return loss.reshape(k, b) - T.scale(Tensor(cost), lam), cost

    return _penalized_objective(live_scored, frozen_loss, center, lam, rob.rho, rob, spec,
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
    gamma = rob.gamma

    def frozen_loss(leaf: Tensor) -> Tensor:
        return M.per_sample_channel_loss(Tensor(s0), M.channel_decode(frozen, leaf))

    def live_scored(offsets: np.ndarray):
        k, b, d = offsets.shape
        cost = np.sum(offsets**2, axis=2)
        s_hat = M.channel_decode(bundle, (z.reshape(1, b, d) + Tensor(offsets)).reshape(k * b, d))
        loss = M.per_sample_channel_loss(Tensor(np.tile(s0, (k, 1))), s_hat)
        return loss.reshape(k, b) - T.scale(Tensor(cost), gamma), cost

    return _penalized_objective(live_scored, frozen_loss, z.data, gamma, rob.mu, rob, spec,
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
