"""Alternating bilevel training, the plain-ERM baseline, and evaluation.

One loop serves both trainers.  Each minibatch runs the OUTER phase first
(received-signal uncertainty, updating the channel codec) and then the INNER
phase (source uncertainty, updating the semantic codec through the
just-updated channel codec).  WaSeCom scores the phases with the penalized
dual objectives and follows them with a projected dual-variable step; ERM
scores them with the clean losses and takes no dual step.  Each phase calls
its loss on a view of the bundle that differentiates only the group its
optimizer owns, so the inner backward computes no channel-codec gradient.
Randomness is drawn from per-purpose child streams keyed as
[seed, tag, step, ...], so the robust loop with both radii at zero consumes
exactly the same channel draws as the ERM loop and their parameter
trajectories match bit for bit.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import models as M
from . import perturb
from .channel import (ChannelConfig, ChannelKind, ChannelRealization, UnitDraws, draw_units,
                      scale_units, signal_power)
from .data import Dataset
from .metrics import MetricsRecord, bleu, psnr_from_mse, ssim
from .models import ModelBundle, ModelDims, TaskKind, save_checkpoint
from .objectives import (DualObjectiveValue, RobustnessConfig, clean_inner_loss,
                         clean_outer_loss, inner_dual_loss, outer_dual_loss, update_duals)
from .optim import Adam
from .perturb import PerturbMethod, PerturbSpec, attacked_row_mask
from .perturb import fgsm  # noqa: F401  bound for perfbench, whose tracer test checks it is wrapped
from .rules import check, ruled, rules
from .tensor import Tensor


class Mode(Enum):
    WASECOM = "wasecom"
    ERM = "erm"


# child-stream tags: one integer namespace per purpose, so no phase or mode
# can shift another's draws
TAG_SHUFFLE = 1
TAG_OUTER_CHANNEL = 2
TAG_INNER_CHANNEL = 3
TAG_OUTER_ATTACK = 4
TAG_INNER_ATTACK = 5
TAG_EVAL_CHANNEL = 6
TAG_EVAL_ATTACK = 7


def _stream(seed: int, tag: int, *rest: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, *rest])


@dataclass
class TrainConfig:
    epochs: int = ruled(int, 2, least=0)
    batch_size: int = ruled(int, 32, least=1)
    lr: float = ruled(float, 1e-3, least=0.0)
    seed: int = ruled(int, 0, least=0)
    mode: Mode = ruled(Mode, Mode.WASECOM)
    dual_lr: float = ruled(float, 0.01, least=0.0)
    checkpoint_every: int = ruled(int, 0, least=0)
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    channel: ChannelConfig = field(default_factory=lambda: ChannelConfig(ChannelKind.AWGN, 10.0))
    perturb_inner: PerturbSpec = field(
        default_factory=lambda: PerturbSpec(PerturbMethod.PGD, radius=0.1, steps=5))
    perturb_outer: PerturbSpec = field(
        default_factory=lambda: PerturbSpec(PerturbMethod.FGSM, radius=0.1))

    def __post_init__(self):
        check(self)
        # the LSE objective reads only Gaussian draws, and only it reads them
        gaussian = [spec.method is PerturbMethod.GAUSSIAN
                    for spec in (self.perturb_inner, self.perturb_outer)]
        if self.robustness.use_lse and not all(gaussian):
            raise ValueError("use_lse requires method 'gaussian' in perturb_inner and perturb_outer")
        if any(gaussian) and not self.robustness.use_lse:
            raise ValueError("method 'gaussian' requires use_lse")


TRAIN_LOG_HEADER = "step,phase,total,penalty,expectation,lambda,gamma,wall_ms"


@dataclass
class StepRecord:
    step: int
    phase: str
    total: float
    penalty: float
    expectation: float
    lam: float
    gamma: float
    wall_ms: float      # forward, backward and optimizer step

    def csv_row(self) -> str:
        return (f"{self.step},{self.phase},{self.total!r},{self.penalty!r},"
                f"{self.expectation!r},{self.lam!r},{self.gamma!r},{self.wall_ms:.3f}")


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def append(self, rec: StepRecord):
        if self.records and rec.step < self.records[-1].step:
            raise ValueError("step index must be monotone")
        self.records.append(rec)


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or (with `param` set) a non-finite gradient of that parameter."""

    def __init__(self, record: StepRecord, param: str | None = None):
        self.record = record
        self.param = param
        if param is None:
            super().__init__(
                f"non-finite loss at step {record.step} ({record.phase}): "
                f"total={record.total}, penalty={record.penalty}, "
                f"expectation={record.expectation}")
        else:
            super().__init__(
                f"non-finite gradient at step {record.step} ({record.phase}) "
                f"in parameter {param}")


def default_dims(data: Dataset, semantic_dim: int | None = None, signal_dim: int | None = None,
                 hidden_dim: int | None = None, embed_dim: int = 8) -> ModelDims:
    """Model sizes derived from the dataset; a size that is given overrides its default."""
    def given(size, default):
        return default if size is None else size

    if data.task is TaskKind.IMAGE:
        d = data.feature_dim
        return ModelDims(d, given(semantic_dim, max(8, d // 4)), given(signal_dim, max(8, d // 4)),
                         given(hidden_dim, max(16, d // 2)))
    seq = data.train.shape[1]
    sem = given(semantic_dim, 4 * seq)
    return ModelDims(seq * embed_dim, sem, given(signal_dim, sem), given(hidden_dim, 64),
                     vocab_size=data.vocab_size, seq_len=seq, embed_dim=embed_dim)


def _minibatches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _check_grads(opt, bundle: ModelBundle, rec: StepRecord):
    """Raise TrainingDiverged naming the first parameter of the group with a non-finite gradient."""
    if not np.isfinite(opt.grad).all():
        group = {id(p) for p in opt.params}
        name = next(n for n, p in bundle.named_params()
                    if id(p) in group and not np.isfinite(p.grad).all())
        raise TrainingDiverged(rec, name)


def _train_alternating(cfg: TrainConfig, data: Dataset, dims, bundle, checkpoint_dir,
                       on_step, robust: bool):
    """The one training loop: per minibatch, the OUTER then the INNER phase.

    `robust` picks the objective pair: the penalized dual losses and a dual
    step per minibatch, or the clean losses without.  Each phase's attack
    stream feeds the LSE objective's Gaussian draws and is built for it alone.
    """
    if bundle is None:
        bundle = ModelBundle(data.task, dims or default_dims(data), seed=cfg.seed)
    outer_opt = Adam(bundle.channel_params(), cfg.lr)
    inner_opt = Adam(bundle.semantic_params(), cfg.lr)
    # each phase scores its loss on a view that differentiates its own group alone, built
    # after both optimizers have rebound the parameters to their buffers; the losses are
    # read from the module per call, so a patched global takes effect
    phases = (("outer", outer_opt, bundle.view(outer_opt.params), outer_dual_loss,
               clean_outer_loss, cfg.perturb_outer, TAG_OUTER_CHANNEL, TAG_OUTER_ATTACK),
              ("inner", inner_opt, bundle.view(inner_opt.params), inner_dual_loss,
               clean_inner_loss, cfg.perturb_inner, TAG_INNER_CHANNEL, TAG_INNER_ATTACK))
    rob = cfg.robustness
    log = TrainLog()
    step = 0
    for epoch in range(cfg.epochs):
        for idx in _minibatches(len(data.train), cfg.batch_size, _stream(cfg.seed, TAG_SHUFFLE, epoch)):
            x = data.train[idx]
            mean_cost = {}
            for phase, opt, view, dual_loss, clean_loss, spec, channel_tag, attack_tag in phases:
                t0 = time.perf_counter()
                opt.zero_grad()
                # the trailing 0 of the key keeps every draw, and so every trajectory, as pinned
                rng = _stream(cfg.seed, channel_tag, step, 0)
                if robust:
                    attack_rng = _stream(cfg.seed, attack_tag, step, 0) if rob.use_lse else None
                    val = dual_loss(view, x, cfg.channel, rob, spec, rng=rng, attack_rng=attack_rng)
                else:  # no penalty, and no cost for a dual step to read
                    loss = clean_loss(view, x, cfg.channel, rng=rng)
                    val = DualObjectiveValue(loss, 0.0, float(loss.data), float("nan"))
                rec = StepRecord(step, phase, float(val.total.data), val.penalty_term,
                                 val.expectation_term, rob.lam, rob.gamma, 0.0)
                log.append(rec)
                if not np.isfinite(rec.total):
                    raise TrainingDiverged(rec)
                val.total.backward()
                _check_grads(opt, bundle, rec)
                opt.step()
                rec.wall_ms = (time.perf_counter() - t0) * 1e3
                mean_cost[phase] = val.mean_cost
                # drop this phase's tape now, not when the next phase has built its own
                val = loss = None
            if robust:
                rob = update_duals(rob, cfg.dual_lr, mean_cost["inner"], mean_cost["outer"])
            step += 1
            if on_step:
                on_step(step, bundle)
            if checkpoint_dir and cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0:
                save_checkpoint(bundle, Path(checkpoint_dir) / f"ckpt_step{step:06d}.bin")
    return bundle, log


def train_wasecom(cfg: TrainConfig, data: Dataset, dims: ModelDims | None = None,
                  bundle: ModelBundle | None = None, checkpoint_dir=None, on_step=None):
    """Alternating robust training; returns (bundle, log).

    Per minibatch: OUTER — perturb the received signal within radius mu and
    step the channel codec; INNER — perturb the source within radius rho, run
    the full pipeline through the just-updated channel codec, and step the
    semantic codec; then a projected descent step on the dual variables,
    lam <- max(0, lam - eta * (rho^2 - E[cost])), and gamma likewise with mu.
    """
    return _train_alternating(cfg, data, dims, bundle, checkpoint_dir, on_step, robust=True)


def train_erm(cfg: TrainConfig, data: Dataset, dims: ModelDims | None = None,
              bundle: ModelBundle | None = None, checkpoint_dir=None, on_step=None):
    """Clean alternating baseline: the same loop shape and random streams as
    the robust trainer, with plain reconstruction losses and no dual updates."""
    return _train_alternating(cfg, data, dims, bundle, checkpoint_dir, on_step, robust=False)


def train(cfg: TrainConfig, data: Dataset, **kwargs):
    fn = train_wasecom if cfg.mode is Mode.WASECOM else train_erm
    return fn(cfg, data, **kwargs)


# ------------------------------------------------------------------ evaluate
def _attacking(attack: PerturbSpec | None) -> bool:
    """Whether `evaluate` perturbs any input under this spec; otherwise the cell runs clean."""
    return attack is not None and attack.sample_fraction > 0 and perturb.searches(attack)


def _attack_label(attack: PerturbSpec | None) -> str:
    if not _attacking(attack):
        return "clean"
    return f"{attack.method.value}(eps={attack.radius:g};frac={attack.sample_fraction:g})"


# Entries each eval draw cache holds.  A grid that cycles through more keys than
# an LRU cache holds misses on every cell; an audit-style grid cycles through
# 2 bundles x 2 channel kinds.
EVAL_CACHE_ENTRIES = 8


@functools.lru_cache(maxsize=EVAL_CACHE_ENTRIES)
def _eval_unit_draws(seed: int, kind: ChannelKind, rows: int, batch_size: int,
                     dim: int) -> tuple[UnitDraws, ...]:
    """Each eval batch's unit channel draws, from its stream [seed, TAG_EVAL_CHANNEL, bi]."""
    draws = tuple(draw_units(kind, min(batch_size, rows - start), dim,
                             _stream(seed, TAG_EVAL_CHANNEL, bi))
                  for bi, start in enumerate(range(0, rows, batch_size)))
    for units in draws:
        for array in (units.fade, units.noise):
            if array is not None:
                array.setflags(write=False)
    return draws


@functools.lru_cache(maxsize=EVAL_CACHE_ENTRIES)
def _eval_attacked_rows(seed: int, rows: int, batch_size: int, fraction: float) -> np.ndarray:
    """The split's attacked row indices, each batch's chosen on [seed, TAG_EVAL_ATTACK, bi]."""
    picked = np.concatenate([
        start + np.flatnonzero(attacked_row_mask(min(batch_size, rows - start), fraction,
                                                 _stream(seed, TAG_EVAL_ATTACK, bi)))
        for bi, start in enumerate(range(0, rows, batch_size))])
    picked.setflags(write=False)
    return picked


def _attack_rows(frozen: ModelBundle, samples, realization: ChannelRealization,
                 spec: PerturbSpec, rows: np.ndarray):
    """The attacked source points of `rows`, each row against its own channel draw.

    Every per-sample loss depends on its own row alone, so the attack runs on
    those rows' slice of the source points, references and realization.
    """
    sub = ChannelRealization(h=realization.h[rows], w=realization.w[rows])
    ref = samples[rows]
    loss_fn = lambda leaf: M.per_sample_reconstruction_loss(
        frozen, ref, M.pipeline(frozen, leaf, sub))
    return perturb.attack(loss_fn, M.source_points(frozen, ref).data, spec)


def evaluate(bundle: ModelBundle, data: Dataset, channel_cfg: ChannelConfig,
             attack: PerturbSpec | None = None, seed: int = 0,
             batch_size: int = 64) -> MetricsRecord:
    """Run the frozen pipeline over a dataset's eval split and aggregate metrics.

    The whole split is encoded once, attacked once and decoded once, so memory
    grows with the split.  The clean encode takes ids through the embedding
    table (`models.semantic_encode`); only the attacked rows become source points.
    `batch_size` sets the granularity of everything drawn or summed: each
    batch of rows gets its own channel realization, from its own clean signal
    power, and its own seeded choice of attacked rows, and the metric sums run
    batch by batch.  The clean and attacked passes
    share the realization, so the attack measures input sensitivity rather
    than noise luck.  For text the `mse` column carries the mean token NLL.
    The bundle's parameters are never written: all passes run on its frozen
    view and attack gradients stop at the perturbation leaf.

    The draws depend on neither the model nor the SNR, so each process keeps
    its latest ones in two LRU caches of EVAL_CACHE_ENTRIES entries each: the
    batches' unit fades and noise by (seed, channel kind, rows, batch_size,
    signal_dim), an entry about the size of the split's transmit signal
    (rows x signal_dim floats), and the attacked row indices by (seed, rows,
    batch_size, sample_fraction).  Each cell still checks and measures every
    batch's signal, then scales the cached draws by its power and SNR, so
    the records are those of fresh draws.  A grid of cells saves the repeated
    draws; a single cell, such as `wasecom eval`, gains nothing.
    """
    for name, value in (("seed", seed), ("batch_size", batch_size)):
        rules(TrainConfig)[name].check(name, value)
    seed = int(seed)  # an np.int64 seed shares the plain int's cache entries
    task, samples = bundle.task, data.eval  # Dataset has checked the split's shape and ids
    if data.task is not task:
        raise ValueError(f"dataset task {data.task.value!r} differs from the model's {task.value!r}")
    width, dim_name = ((bundle.dims.seq_len, "seq_len") if task is TaskKind.TEXT
                       else (bundle.dims.input_dim, "input_dim"))
    if samples.shape[1] != width:
        raise ValueError(f"samples have shape {samples.shape}, but the model's {dim_name} is {width}")
    if task is TaskKind.TEXT and samples.max() >= bundle.dims.vocab_size:
        raise ValueError(f"token id {samples.max()} is outside the model's "
                         f"vocab_size {bundle.dims.vocab_size}")
    frozen = bundle.frozen()
    n = len(samples)
    starts = range(0, n, batch_size)
    side = int(round(np.sqrt(bundle.dims.input_dim)))
    has_ssim = task is TaskKind.IMAGE and side * side == bundle.dims.input_dim

    u0 = M.channel_encode(frozen, M.semantic_encode(frozen, samples))
    units = _eval_unit_draws(seed, channel_cfg.kind, n, batch_size, bundle.dims.signal_dim)
    draws = [scale_units(channel_cfg, unit, signal_power(u0.data[start:start + batch_size]))
             for unit, start in zip(units, starts)]
    realization = ChannelRealization(h=np.concatenate([r.h for r in draws]),
                                     w=np.concatenate([r.w for r in draws]))
    u = u0
    if _attacking(attack):
        rows = _eval_attacked_rows(seed, n, batch_size, attack.sample_fraction)
        if len(rows):  # re-encode the attacked rows only, into a copy of the clean signal
            attacked = _attack_rows(frozen, samples, realization, attack, rows)
            signal = u0.data.copy()
            signal[rows] = M.encode_signal(frozen, Tensor(attacked)).data
            u = Tensor(signal)
    out = M.decode_signal(frozen, u, realization)

    # pixel MSE for images, mean token NLL for text
    per_sample = M.per_sample_reconstruction_loss(frozen, samples, out).data
    if task is TaskKind.TEXT:
        decoded = M.greedy_decode(out.data, n, bundle.dims.seq_len)
    loss_sum = ssim_sum = bleu_sum = 0.0
    for start in starts:
        batch = slice(start, start + batch_size)
        refs = samples[batch]
        loss_sum += float(per_sample[batch].sum())
        if has_ssim:
            imgs = out.data[batch].reshape(-1, side, side)
            ssim_sum += ssim(refs.reshape(-1, side, side), imgs, window=min(8, side)) * len(refs)
        elif task is TaskKind.TEXT:
            bleu_sum += bleu(decoded[batch], refs) * len(refs)

    label = _attack_label(attack)
    if task is TaskKind.IMAGE:
        mean_mse = loss_sum / n
        return MetricsRecord(task=task.value, snr_db=channel_cfg.snr_db, attack=label,
                             mse=mean_mse, psnr_db=psnr_from_mse(mean_mse),
                             ssim=ssim_sum / n if has_ssim else None, n=n)
    return MetricsRecord(task=task.value, snr_db=channel_cfg.snr_db, attack=label,
                         mse=loss_sum / n, bleu=bleu_sum / n, n=n)
