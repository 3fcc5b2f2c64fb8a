"""Alternating bilevel training, the plain-ERM baseline, and evaluation.

One loop serves both trainers.  Each minibatch runs the OUTER phase first
(received-signal uncertainty, updating the channel codec) and then the INNER
phase (source uncertainty, updating the semantic codec through the
just-updated channel codec).  WaSeCom scores the phases with the penalized
dual objectives and follows them with a projected dual-variable step; ERM
scores them with the clean losses and takes no dual step.  Randomness is drawn
from per-purpose child streams keyed as [seed, tag, step, ...], so the robust
loop with both radii at zero consumes exactly the same channel draws as the
ERM loop and their parameter trajectories match bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import models as M
from .channel import ChannelConfig, ChannelKind, draw_realization
from .data import Dataset
from .metrics import MetricsRecord, bleu, psnr_from_mse, ssim
from .models import ModelBundle, ModelDims, TaskKind, save_checkpoint
from .objectives import (DualObjectiveValue, RobustnessConfig, clean_inner_loss,
                         clean_outer_loss, inner_dual_loss, outer_dual_loss, update_duals)
from .optim import Adam, Sgd
from .perturb import PerturbMethod, PerturbSpec, attacked_row_mask, fgsm, pgd
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
    epochs: int = 2
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    mode: Mode = Mode.WASECOM
    sub_steps: int = 1
    dual_lr: float = 0.01
    checkpoint_every: int = 0
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    channel: ChannelConfig = field(default_factory=lambda: ChannelConfig(ChannelKind.AWGN, 10.0))
    perturb_inner: PerturbSpec = field(
        default_factory=lambda: PerturbSpec(PerturbMethod.PGD, radius=0.1, steps=5))
    perturb_outer: PerturbSpec = field(
        default_factory=lambda: PerturbSpec(PerturbMethod.FGSM, radius=0.1))

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.sub_steps < 1:
            raise ValueError("sub_steps must be at least 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not np.isfinite(self.lr) or self.lr < 0:
            raise ValueError("lr must be finite and nonnegative")
        if not np.isfinite(self.dual_lr) or self.dual_lr < 0:
            raise ValueError("dual_lr must be finite and nonnegative")


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
    evals: list = field(default_factory=list)   # (step, MetricsRecord)

    def append(self, rec: StepRecord):
        if self.records and rec.step < self.records[-1].step:
            raise ValueError("step index must be monotone")
        self.records.append(rec)

    def rows(self):
        return [TRAIN_LOG_HEADER] + [r.csv_row() for r in self.records]

    def write_csv(self, path):
        Path(path).write_text("\n".join(self.rows()) + "\n")


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
    if data.task is TaskKind.IMAGE:
        d = data.feature_dim
        return ModelDims(d, semantic_dim or max(8, d // 4), signal_dim or max(8, d // 4),
                         hidden_dim or max(16, d // 2))
    seq = data.train.shape[1]
    sem = semantic_dim or 4 * seq
    return ModelDims(seq * embed_dim, sem, signal_dim or sem, hidden_dim or 64,
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

    `robust` picks the objective pair: the penalized dual losses with their
    attack streams and a dual step per minibatch, or the clean losses without.
    """
    if bundle is None:
        bundle = ModelBundle(data.task, dims or default_dims(data), seed=cfg.seed)
    kind = Adam if cfg.optimizer == "adam" else Sgd
    # the losses are read from the module per call, so a patched global takes effect
    phases = (("outer", kind(bundle.channel_params(), cfg.lr), outer_dual_loss,
               clean_outer_loss, cfg.perturb_outer, TAG_OUTER_CHANNEL, TAG_OUTER_ATTACK),
              ("inner", kind(bundle.semantic_params(), cfg.lr), inner_dual_loss,
               clean_inner_loss, cfg.perturb_inner, TAG_INNER_CHANNEL, TAG_INNER_ATTACK))
    rob = cfg.robustness
    log = TrainLog()
    step = 0
    for epoch in range(cfg.epochs):
        for idx in _minibatches(len(data.train), cfg.batch_size, _stream(cfg.seed, TAG_SHUFFLE, epoch)):
            x = data.train[idx]
            mean_cost = {}
            for phase, opt, dual_loss, clean_loss, spec, channel_tag, attack_tag in phases:
                for k in range(cfg.sub_steps):
                    t0 = time.perf_counter()
                    opt.zero_grad()
                    rng = _stream(cfg.seed, channel_tag, step, k)
                    if robust:
                        val = dual_loss(bundle, x, cfg.channel, rob, spec, rng=rng,
                                        attack_rng=_stream(cfg.seed, attack_tag, step, k))
                    else:  # no penalty, and no cost for a dual step to read
                        loss = clean_loss(bundle, x, cfg.channel, rng=rng)
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
    semantic codec; then a projected ascent step on the dual variables.
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
    return (attack is not None and attack.radius > 0 and attack.sample_fraction > 0
            and attack.method not in (PerturbMethod.NONE, PerturbMethod.GAUSSIAN))


def _attack_label(attack: PerturbSpec | None) -> str:
    if not _attacking(attack):
        return "clean"
    return f"{attack.method.value}(eps={attack.radius:g},frac={attack.sample_fraction:g})"


def _run_attack(loss_fn, centers: np.ndarray, attack: PerturbSpec, mask: np.ndarray):
    runner = pgd if attack.method is PerturbMethod.PGD else fgsm
    adv = runner(loss_fn, centers, attack)
    return np.where(mask[:, None], adv, centers)


def evaluate(bundle: ModelBundle, data, channel_cfg: ChannelConfig,
             attack: PerturbSpec | None = None, seed: int = 0,
             batch_size: int = 64) -> MetricsRecord:
    """Run the frozen pipeline over an evaluation set and aggregate metrics.

    Accepts a Dataset (its eval split is used) or a plain sample array.  One
    channel realization is drawn per batch from the clean signal power and
    shared between the clean and attacked passes, so the attack measures input
    sensitivity rather than noise luck.  For text the `mse` column carries the
    mean token NLL.  The bundle is never mutated: all passes run on a frozen
    view and attack gradients stop at the perturbation leaf.
    """
    samples = data.eval if isinstance(data, Dataset) else np.asarray(data)
    if len(samples) == 0:
        raise ValueError("empty evaluation set")
    frozen = bundle.frozen()
    task = bundle.task
    attacking = _attacking(attack)
    side = int(round(np.sqrt(bundle.dims.input_dim)))
    has_ssim = task is TaskKind.IMAGE and side * side == bundle.dims.input_dim

    se_sum = ssim_sum = nll_sum = bleu_sum = 0.0
    for bi, start in enumerate(range(0, len(samples), batch_size)):
        batch = samples[start:start + batch_size]
        rng = _stream(seed, TAG_EVAL_CHANNEL, bi)
        if task is TaskKind.IMAGE:
            centers = np.asarray(batch, dtype=float)
        else:
            centers = M.embed_tokens(frozen, batch).data
        u0 = M.encode_signal(frozen, Tensor(centers))
        power = float(np.mean(u0.data**2))
        realization = draw_realization(channel_cfg, len(batch), bundle.dims.signal_dim,
                                       power, rng)
        if attacking:
            mask = attacked_row_mask(len(batch), attack.sample_fraction,
                                     _stream(seed, TAG_EVAL_ATTACK, bi))
            loss_fn = lambda leaf: M.per_sample_reconstruction_loss(
                frozen, batch, M.pipeline(frozen, leaf, realization))
            inputs = _run_attack(loss_fn, centers, attack, mask)
            out = M.pipeline(frozen, Tensor(inputs), realization)
        else:
            out = M.decode_signal(frozen, u0, realization)

        if task is TaskKind.IMAGE:
            per_sample = np.mean((out.data - np.asarray(batch)) ** 2, axis=1)
            se_sum += float(per_sample.sum())
            if has_ssim:
                imgs = out.data.reshape(-1, side, side)
                refs = np.asarray(batch).reshape(-1, side, side)
                window = min(8, side)
                ssim_sum += ssim(refs, imgs, window=window) * len(refs)
        else:
            nll = M.per_sample_reconstruction_loss(frozen, batch, out)
            nll_sum += float(nll.data.sum())
            decoded = M.greedy_decode(out.data, len(batch), bundle.dims.seq_len)
            bleu_sum += bleu(decoded, batch) * len(batch)

    n = len(samples)
    label = _attack_label(attack)
    if task is TaskKind.IMAGE:
        mean_mse = se_sum / n
        return MetricsRecord(task=task.value, snr_db=channel_cfg.snr_db, attack=label,
                             mse=mean_mse, psnr_db=psnr_from_mse(mean_mse),
                             ssim=ssim_sum / n if has_ssim else None, n=n)
    return MetricsRecord(task=task.value, snr_db=channel_cfg.snr_db, attack=label,
                         mse=nll_sum / n, bleu=bleu_sum / n, n=n)
