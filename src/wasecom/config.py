"""Experiment configuration: strict JSON in, canonical JSON out.

Every run is described by one JSON document.  Parsing is schema-checked —
unknown keys are rejected with their section named — and serialization is
canonical (sorted keys, two-space indent), so `serialize(parse(text))` is a
fixed point.  The JSON key "lambda" maps to the `lam` field because `lambda`
is reserved in Python.  Each section's keys are its dataclass's fields, and
each value must have the JSON type of its field's annotation.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

from .channel import ChannelConfig
from .data import (Dataset, generate_synthetic_images, generate_synthetic_text,
                   ingest_cifar10_binary, ingest_text_lines)
from .models import MAX_SEQ_LEN, MAX_VOCAB_SIZE, ModelDims, TaskKind
from .objectives import RobustnessConfig
from .perturb import PerturbSpec
from .training import Mode, TrainConfig, default_dims


class ConfigError(ValueError):
    """Schema violation: unknown key, bad type, or invalid value."""


# the task of each file-backed dataset kind; "synthetic" generates either task
_FILE_KIND_TASK = {"cifar10": TaskKind.IMAGE, "text-lines": TaskKind.TEXT}


@dataclass
class DatasetSpec:
    kind: str = "synthetic"      # synthetic | cifar10 | text-lines
    n: int = 512
    side: int = 8
    vocab_size: int = 32
    max_len: int = 12
    path: str | None = None

    def __post_init__(self):
        if self.kind != "synthetic" and self.kind not in _FILE_KIND_TASK:
            raise ValueError(f"kind must be synthetic, cifar10 or text-lines, got {self.kind!r}")
        if self.kind in _FILE_KIND_TASK and not self.path:
            raise ValueError(f"path is required for kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.side < 2:
            raise ValueError(f"side must be at least 2, got {self.side}")
        if self.kind == "cifar10" and 32 % self.side:
            raise ValueError(f"side must divide 32 for kind 'cifar10', got {self.side}")
        if not 2 <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise ValueError(f"vocab_size must be in 2..{MAX_VOCAB_SIZE}, got {self.vocab_size}")
        if not 2 <= self.max_len <= MAX_SEQ_LEN:
            raise ValueError(f"max_len must be in 2..{MAX_SEQ_LEN}, got {self.max_len}")


@dataclass
class ModelSpec:
    semantic_dim: int | None = None   # None = derived from the dataset
    signal_dim: int | None = None
    hidden_dim: int | None = None
    embed_dim: int = 8

    def __post_init__(self):
        for name in ("semantic_dim", "signal_dim", "hidden_dim", "embed_dim"):
            size = getattr(self, name)
            if size is not None and size <= 0:
                raise ValueError(f"{name} must be positive, got {size}")


@dataclass
class EvalPlan:
    snr_db: list = field(default_factory=lambda: [0.0, 10.0, 20.0])
    attack_eps: list = field(default_factory=lambda: [0.0, 0.1])
    attack_fraction: float = 0.1
    batch_size: int = 64

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ValueError(f"attack_fraction must lie in [0, 1], got {self.attack_fraction}")
        for name in ("snr_db", "attack_eps"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must list at least one value")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {values}")
        if any(eps < 0 for eps in self.attack_eps):
            raise ValueError(f"attack_eps radii must be nonnegative, got {self.attack_eps}")
        for snr in self.snr_db:  # the channel's own range check
            ChannelConfig(snr_db=snr)


@dataclass
class ExperimentConfig:
    run_id: str = "run"
    out_dir: str = "runs/run"
    task: TaskKind = TaskKind.IMAGE
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_plan: EvalPlan = field(default_factory=EvalPlan)

    def __post_init__(self):
        for name in ("run_id", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON type, as an error names it, and its test, for each field annotation
_JSON_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    type(None): ("null", lambda v: v is None),
}


def _json_types(hint) -> list:
    """The (name, test) of each JSON type a field annotated `hint` takes."""
    if isinstance(hint, UnionType):  # X | None
        return [t for arg in get_args(hint) for t in _json_types(arg)]
    return [_JSON_TYPES[str if issubclass(hint, Enum) else hint]]  # enums by value


def _checked(section: dict, name: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(section) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    for key, value in section.items():
        types = _key_types(name).get(key)
        if types and not any(test(value) for _, test in types):
            expected = " or ".join(type_name for type_name, _ in types)
            raise ConfigError(f"{name}: {key} must be {expected}, got {value!r}")
    return section


def _parse_section(raw: dict, name: str, factory, **extra):
    section = _checked(raw.get(name, {}), name)
    try:
        return factory(**{_FIELD.get(k, k): v for k, v in section.items()}, **extra)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: {err}") from err


def read_config_json(source) -> dict:
    """The top-level JSON object of a config given as a path, JSON text or dict."""
    if isinstance(source, Path):
        source = source.read_text()
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}") from err
    return _checked(source, "top level")


def parse_config(source) -> ExperimentConfig:
    """Parse a JSON string/dict (or a path to one) into an ExperimentConfig."""
    raw = read_config_json(source)
    sections = {name: _parse_section(raw, name, factory)
                for name, factory in _TRAIN_SECTIONS.items()}
    try:
        mode = Mode(raw.get("mode", "wasecom"))
    except ValueError as err:
        raise ConfigError(f"mode: {err}") from err
    try:
        task = TaskKind(raw.get("task", "image"))
    except ValueError as err:
        raise ConfigError(f"task: {err}") from err

    train = _parse_section(raw, "train", TrainConfig, seed=raw.get("seed", 0), mode=mode,
                           **sections)
    return ExperimentConfig(
        run_id=raw.get("run_id", "run"),
        out_dir=raw.get("out_dir", "runs/run"),
        task=task,
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


_SECTION_CLASSES = {"top level": (TrainConfig, ExperimentConfig), "dataset": (DatasetSpec,),
                    "model": (ModelSpec,), "train": (TrainConfig,), "eval": (EvalPlan,),
                    **{name: (cls,) for name, cls in _TRAIN_SECTIONS.items()}}


@functools.cache  # evaluating the annotations takes about 1 ms; no import should pay it
def _key_types(name: str) -> dict:
    """The JSON types of each key of a section that holds a value, from its
    field's annotation; a key that holds a section is checked as a section."""
    hints = {_JSON_KEY.get(k, k): hint
             for cls in _SECTION_CLASSES[name] for k, hint in get_type_hints(cls).items()}
    return {key: _json_types(hint) for key, hint in hints.items()
            if key in _SECTION_KEYS[name] and key not in _SECTION_KEYS}


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
