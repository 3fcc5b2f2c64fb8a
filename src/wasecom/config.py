"""Experiment configuration: strict JSON in, canonical JSON out.

Every run is described by one JSON document.  Parsing is schema-checked —
unknown keys are rejected with their section named — and serialization is
canonical (sorted keys, two-space indent), so `serialize(parse(text))` is a
fixed point.  The JSON key "lambda" maps to the `lam` field because `lambda`
is reserved in Python.  Each section's keys are its dataclass's fields.  The
kind and range of each field is declared once, in the field (`rules.py`): the
parser holds each value to its field's kind, and the dataclass, built from
JSON or from Python alike, holds it to the whole rule.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .channel import SNR_CAP_DB, ChannelConfig
from .data import (Dataset, generate_synthetic_images, generate_synthetic_text,
                   ingest_cifar10_binary, ingest_text_lines)
from .models import MAX_SEQ_LEN, MAX_VOCAB_SIZE, ModelDims, TaskKind
from .objectives import RobustnessConfig
from .perturb import PerturbSpec
from .rules import check, ruled, rules
from .training import TrainConfig, default_dims


class ConfigError(ValueError):
    """Schema violation: unknown key, bad type, or invalid value."""


# the task of each file-backed dataset kind; "synthetic" generates either task
_FILE_KIND_TASK = {"cifar10": TaskKind.IMAGE, "text-lines": TaskKind.TEXT}


@dataclass
class DatasetSpec:
    kind: str = ruled(str, "synthetic")      # synthetic | cifar10 | text-lines
    n: int = ruled(int, 512, least=1)
    side: int = ruled(int, 8, least=2)
    vocab_size: int = ruled(int, 32, least=2, most=MAX_VOCAB_SIZE)
    max_len: int = ruled(int, 12, least=2, most=MAX_SEQ_LEN)
    path: str | None = ruled(str, None)

    def __post_init__(self):
        check(self)
        if self.kind != "synthetic" and self.kind not in _FILE_KIND_TASK:
            raise ValueError(f"kind must be synthetic, cifar10 or text-lines, got {self.kind!r}")
        if self.kind in _FILE_KIND_TASK and not self.path:
            raise ValueError(f"path is required for kind {self.kind!r}")
        if self.kind == "cifar10" and 32 % self.side:
            raise ValueError(f"side must divide 32 for kind 'cifar10', got {self.side}")


@dataclass
class ModelSpec:
    semantic_dim: int | None = ruled(int, None, least=1)   # None = derived from the dataset
    signal_dim: int | None = ruled(int, None, least=1)
    hidden_dim: int | None = ruled(int, None, least=1)
    embed_dim: int = ruled(int, 8, least=1)

    __post_init__ = check


@dataclass
class EvalPlan:
    snr_db: list = ruled(list, factory=lambda: [0.0, 10.0, 20.0], least=-SNR_CAP_DB, most=SNR_CAP_DB)
    attack_eps: list = ruled(list, factory=lambda: [0.0, 0.1], least=0.0)
    attack_fraction: float = ruled(float, 0.1, least=0.0, most=1.0)
    batch_size: int = ruled(int, 64, least=1)

    def __post_init__(self):
        check(self)
        for name in ("snr_db", "attack_eps"):
            if not getattr(self, name):
                raise ValueError(f"{name} must list at least one value")


@dataclass
class ExperimentConfig:
    run_id: str = ruled(str, "run")
    out_dir: str = ruled(str, "runs/run")
    task: TaskKind = ruled(TaskKind, TaskKind.IMAGE)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_plan: EvalPlan = field(default_factory=EvalPlan)

    def __post_init__(self):
        try:
            check(self)
        except ValueError as err:
            raise ConfigError(f"top level: {err}") from None
        for name in ("run_id", "out_dir"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be a non-empty string, got ''")
        task = _FILE_KIND_TASK.get(self.dataset.kind, self.task)
        if task is not self.task:
            raise ConfigError(f"dataset: kind {self.dataset.kind!r} holds {task.value} data, "
                              f"but task is {self.task.value!r}")
        # every text dataset holds sequences of dataset.max_len tokens
        sem, seq_len = self.model.semantic_dim, self.dataset.max_len
        if self.task is TaskKind.TEXT and sem is not None and sem % seq_len:
            raise ConfigError(f"model: semantic_dim must be a multiple of dataset.max_len "
                              f"({seq_len}) for text, got {sem}")


# The sections nested in TrainConfig that the JSON holds at the top level.
_TRAIN_SECTIONS = {"robustness": RobustnessConfig, "channel": ChannelConfig,
                   "perturb_inner": PerturbSpec, "perturb_outer": PerturbSpec}
_JSON_KEY = {"lam": "lambda"}
_FIELD = {key: name for name, key in _JSON_KEY.items()}


def _checked(section: dict, name: str, *classes) -> dict:
    """`section` if it is a JSON object of known keys, each value of its field's kind."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(section) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    for key, value in section.items():
        for cls in classes:
            rule = rules(cls).get(_FIELD.get(key, key))
            error = rule and rule.kind_error(key, value)
            if error:
                raise ConfigError(f"{name}: {error}")
    return section


def _parse_section(raw: dict, name: str, factory, **extra):
    section = _checked(raw.get(name, {}), name, factory)
    try:
        return factory(**{_FIELD.get(k, k): v for k, v in section.items()}, **extra)
    except ValueError as err:  # a field's error names it by its JSON key
        field_name, _, rest = str(err).partition(" ")
        raise ConfigError(f"{name}: {_JSON_KEY.get(field_name, field_name)} {rest}") from err


def read_config_json(source) -> dict:
    """The top-level JSON object of a config given as a path, JSON text or dict."""
    if isinstance(source, Path):
        source = source.read_text()
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}") from err
    return _checked(source, "top level", ExperimentConfig, TrainConfig)


def parse_config(source) -> ExperimentConfig:
    """Parse a JSON string/dict (or a path to one) into an ExperimentConfig."""
    raw = read_config_json(source)
    sections = {name: _parse_section(raw, name, factory)
                for name, factory in _TRAIN_SECTIONS.items()}
    train = _parse_section(raw, "train", TrainConfig, seed=raw.get("seed", 0),
                           mode=raw.get("mode", "wasecom"), **sections)
    return ExperimentConfig(
        run_id=raw.get("run_id", "run"),
        out_dir=raw.get("out_dir", "runs/run"),
        task=raw.get("task", "image"),
        dataset=_parse_section(raw, "dataset", DatasetSpec),
        model=_parse_section(raw, "model", ModelSpec),
        train=train,
        eval_plan=_parse_section(raw, "eval", EvalPlan),
    )


def _section(obj, skip=()) -> dict:
    """A dataclass's fields under their JSON keys, enums by value."""
    out = {}
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            out[_JSON_KEY.get(f.name, f.name)] = value.value if isinstance(value, Enum) else value
    return out


def to_canonical_dict(cfg: ExperimentConfig) -> dict:
    train = cfg.train
    return {
        "run_id": cfg.run_id,
        "out_dir": cfg.out_dir,
        "seed": train.seed,
        "mode": train.mode.value,
        "task": cfg.task.value,
        "dataset": _section(cfg.dataset),
        "model": _section(cfg.model),
        "train": _section(train, skip={"seed", "mode", *_TRAIN_SECTIONS}),
        **{name: _section(getattr(train, name), skip={"sample_fraction"})
           for name in _TRAIN_SECTIONS},
        "eval": _section(cfg.eval_plan),
    }


# The schema is what serialization writes: the top-level keys and those of each
# section of the default config's canonical form.
_DEFAULT_CANONICAL = to_canonical_dict(ExperimentConfig())
_SECTION_KEYS = {"top level": set(_DEFAULT_CANONICAL)} | {
    name: set(section) for name, section in _DEFAULT_CANONICAL.items() if isinstance(section, dict)}


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
        return ingest_cifar10_binary(ds.path, side=ds.side)
    counts = Counter(Path(ds.path).read_text().split())  # text-lines
    vocab = ["<unk>"] + [w for w, _ in counts.most_common(ds.vocab_size - 1)]
    return ingest_text_lines(ds.path, vocab, max_len=ds.max_len)


def model_dims(cfg: ExperimentConfig, data: Dataset) -> ModelDims:
    m = cfg.model
    return default_dims(data, m.semantic_dim, m.signal_dim, m.hidden_dim, m.embed_dim)
