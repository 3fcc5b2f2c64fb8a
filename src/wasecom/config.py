"""Experiment configuration: strict JSON in, canonical JSON out.

Every run is described by one JSON document.  Parsing is schema-checked —
unknown keys are rejected with their section named — and serialization is
canonical (sorted keys, two-space indent), so `serialize(parse(text))` is a
fixed point.  The JSON key "lambda" maps to the `lam` field because `lambda`
is reserved in Python.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelConfig
from .data import (Dataset, generate_synthetic_images, generate_synthetic_text,
                   ingest_cifar10_binary, ingest_text_lines)
from .models import ModelDims, TaskKind
from .objectives import RobustnessConfig
from .perturb import PerturbSpec
from .training import Mode, TrainConfig, default_dims


class ConfigError(ValueError):
    """Schema violation: unknown key, bad type, or invalid value."""


@dataclass
class DatasetSpec:
    kind: str = "synthetic"      # synthetic | cifar10 | text-lines
    n: int = 512
    side: int = 8
    vocab_size: int = 32
    max_len: int = 12
    path: str | None = None


@dataclass
class ModelSpec:
    semantic_dim: int | None = None   # None = derived from the dataset
    signal_dim: int | None = None
    hidden_dim: int | None = None
    embed_dim: int = 8


@dataclass
class EvalPlan:
    snr_db: list = field(default_factory=lambda: [0.0, 10.0, 20.0])
    attack_eps: list = field(default_factory=lambda: [0.0, 0.1])
    attack_fraction: float = 0.1
    batch_size: int = 64


@dataclass
class ExperimentConfig:
    run_id: str = "run"
    out_dir: str = "runs/run"
    task: TaskKind = TaskKind.IMAGE
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_plan: EvalPlan = field(default_factory=EvalPlan)


_SECTION_KEYS = {
    "top level": {"run_id", "out_dir", "seed", "mode", "task", "dataset", "model",
                  "train", "channel", "robustness", "perturb_inner", "perturb_outer",
                  "eval"},
    "dataset": {"kind", "n", "side", "vocab_size", "max_len", "path"},
    "model": {"semantic_dim", "signal_dim", "hidden_dim", "embed_dim"},
    "train": {"epochs", "batch_size", "lr", "optimizer", "sub_steps", "dual_lr",
              "checkpoint_every"},
    "channel": {"kind", "snr_db"},
    "robustness": {"rho", "mu", "lambda", "gamma", "epsilon_temp", "use_lse",
                   "lambda_learnable"},
    "perturb": {"method", "radius", "epsilon_inf", "step_size", "steps",
                "sample_count", "sample_fraction"},
    "eval": {"snr_db", "attack_eps", "attack_fraction", "batch_size"},
}


def _checked(section: dict, name: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    allowed = _SECTION_KEYS["perturb" if name.startswith("perturb") else name]
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    return section


def _build(factory, kwargs: dict, name: str):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: {err}") from err


def parse_config(source) -> ExperimentConfig:
    """Parse a JSON string/dict (or a path to one) into an ExperimentConfig."""
    if isinstance(source, Path):
        source = source.read_text()
    if isinstance(source, str):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}") from err
    else:
        raw = dict(source)
    _checked(raw, "top level")

    rob_raw = dict(_checked(raw.get("robustness", {}), "robustness"))
    if "lambda" in rob_raw:
        rob_raw["lam"] = rob_raw.pop("lambda")
    robustness = _build(RobustnessConfig, rob_raw, "robustness")
    channel = _build(ChannelConfig, _checked(raw.get("channel", {}), "channel"), "channel")
    p_in = _build(PerturbSpec, _checked(raw.get("perturb_inner", {}), "perturb_inner"),
                  "perturb_inner")
    p_out = _build(PerturbSpec, _checked(raw.get("perturb_outer", {}), "perturb_outer"),
                   "perturb_outer")

    try:
        mode = Mode(raw.get("mode", "wasecom"))
    except ValueError as err:
        raise ConfigError(f"mode: {err}") from err
    try:
        task = TaskKind(raw.get("task", "image"))
    except ValueError as err:
        raise ConfigError(f"task: {err}") from err

    train = _build(TrainConfig,
                   dict(_checked(raw.get("train", {}), "train"),
                        seed=int(raw.get("seed", 0)), mode=mode,
                        robustness=robustness, channel=channel,
                        perturb_inner=p_in, perturb_outer=p_out),
                   "train")
    return ExperimentConfig(
        run_id=str(raw.get("run_id", "run")),
        out_dir=str(raw.get("out_dir", "runs/run")),
        task=task,
        dataset=_build(DatasetSpec, _checked(raw.get("dataset", {}), "dataset"), "dataset"),
        model=_build(ModelSpec, _checked(raw.get("model", {}), "model"), "model"),
        train=train,
        eval_plan=_build(EvalPlan, _checked(raw.get("eval", {}), "eval"), "eval"),
    )


def to_canonical_dict(cfg: ExperimentConfig) -> dict:
    rob = cfg.train.robustness
    return {
        "run_id": cfg.run_id,
        "out_dir": cfg.out_dir,
        "seed": cfg.train.seed,
        "mode": cfg.train.mode.value,
        "task": cfg.task.value,
        "dataset": {"kind": cfg.dataset.kind, "n": cfg.dataset.n, "side": cfg.dataset.side,
                    "vocab_size": cfg.dataset.vocab_size, "max_len": cfg.dataset.max_len,
                    "path": cfg.dataset.path},
        "model": {"semantic_dim": cfg.model.semantic_dim, "signal_dim": cfg.model.signal_dim,
                  "hidden_dim": cfg.model.hidden_dim, "embed_dim": cfg.model.embed_dim},
        "train": {"epochs": cfg.train.epochs, "batch_size": cfg.train.batch_size,
                  "lr": cfg.train.lr, "optimizer": cfg.train.optimizer,
                  "sub_steps": cfg.train.sub_steps, "dual_lr": cfg.train.dual_lr,
                  "checkpoint_every": cfg.train.checkpoint_every},
        "channel": {"kind": cfg.train.channel.kind.value, "snr_db": cfg.train.channel.snr_db},
        "robustness": {"rho": rob.rho, "mu": rob.mu, "lambda": rob.lam, "gamma": rob.gamma,
                       "epsilon_temp": rob.epsilon_temp, "use_lse": rob.use_lse,
                       "lambda_learnable": rob.lambda_learnable},
        "perturb_inner": _perturb_dict(cfg.train.perturb_inner),
        "perturb_outer": _perturb_dict(cfg.train.perturb_outer),
        "eval": {"snr_db": list(cfg.eval_plan.snr_db),
                 "attack_eps": list(cfg.eval_plan.attack_eps),
                 "attack_fraction": cfg.eval_plan.attack_fraction,
                 "batch_size": cfg.eval_plan.batch_size},
    }


def _perturb_dict(spec: PerturbSpec) -> dict:
    return {"method": spec.method.value, "radius": spec.radius,
            "epsilon_inf": spec.epsilon_inf, "step_size": spec.step_size,
            "steps": spec.steps, "sample_count": spec.sample_count,
            "sample_fraction": spec.sample_fraction}


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(to_canonical_dict(cfg), indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------- materializers
def build_dataset(cfg: ExperimentConfig) -> Dataset:
    ds = cfg.dataset
    if ds.kind == "synthetic":
        if cfg.task is TaskKind.IMAGE:
            return generate_synthetic_images(ds.n, side=ds.side, seed=cfg.train.seed)
        return generate_synthetic_text(ds.n, vocab_size=ds.vocab_size,
                                       max_len=ds.max_len, seed=cfg.train.seed)
    if ds.kind == "cifar10":
        if not ds.path:
            raise ConfigError("dataset.path is required for kind 'cifar10'")
        return ingest_cifar10_binary(ds.path, side=ds.side)
    if ds.kind == "text-lines":
        if not ds.path:
            raise ConfigError("dataset.path is required for kind 'text-lines'")
        counts = Counter(Path(ds.path).read_text().split())
        vocab = ["<unk>"] + [w for w, _ in counts.most_common(ds.vocab_size - 1)]
        return ingest_text_lines(ds.path, vocab, max_len=ds.max_len)
    raise ConfigError(f"unknown dataset kind {ds.kind!r}")


def model_dims(cfg: ExperimentConfig, data: Dataset) -> ModelDims:
    m = cfg.model
    return default_dims(data, m.semantic_dim, m.signal_dim, m.hidden_dim, m.embed_dim)
