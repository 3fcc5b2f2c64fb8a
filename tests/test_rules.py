"""Every field of every config dataclass is held to one rule, from Python and
from JSON alike.  The cases come from the fields' own rules, so a new field is
covered without editing this file."""
import dataclasses
import json
import math
import re
from enum import Enum

import numpy as np
import pytest

from wasecom import config as C
from wasecom.channel import ChannelConfig
from wasecom.models import ModelDims
from wasecom.objectives import RobustnessConfig
from wasecom.perturb import PerturbSpec
from wasecom.rules import Rule, rules
from wasecom.training import Mode, TrainConfig

# every dataclass whose __post_init__ applies its rules, with the arguments it
# needs besides the field under test
CLASSES = {C.DatasetSpec: {}, C.ModelSpec: {}, C.EvalPlan: {}, C.ExperimentConfig: {},
           TrainConfig: {}, RobustnessConfig: {}, ChannelConfig: {}, PerturbSpec: {},
           ModelDims: {"input_dim": 4, "semantic_dim": 4, "signal_dim": 4, "hidden_dim": 4}}
# the JSON section of each class; TrainConfig and ExperimentConfig hold top-level keys too
SECTIONS = {"dataset": C.DatasetSpec, "model": C.ModelSpec, "train": TrainConfig,
            "eval": C.EvalPlan, "robustness": RobustnessConfig, "channel": ChannelConfig,
            "perturb_inner": PerturbSpec, "perturb_outer": PerturbSpec}
JSON_KEY = {"lam": "lambda"}
CANONICAL = json.loads(C.serialize_config(C.ExperimentConfig()))


def _bad_values(rule: Rule) -> list:
    """Values of the wrong kind, non-finite where the rule wants finite, and
    just out of range on each bounded side."""
    if issubclass(rule.kind, Enum):
        return ["nonsense", 2]
    if rule.kind in (bool, str):
        return {bool: ["false", 0], str: [7]}[rule.kind]
    bad = [True, 2.5] if rule.kind is int else [True, "1"]
    step = 1 if rule.kind is int else 0.5
    bounds = [rule.least - step if rule.least is not None else None,
              rule.above, rule.most + step if rule.most is not None else None]
    values = bad + [math.nan] * rule.finite + [v for v in bounds if v is not None]
    return [[v] for v in values] if rule.kind is list else values


CASES = [(cls, name, value) for cls in CLASSES for name, rule in rules(cls).items()
         for value in _bad_values(rule)]


def _case_id(case) -> str:
    cls, name, value = case
    return f"{cls.__name__}.{name}={value!r}"


def test_every_field_but_a_nested_section_has_a_rule():
    for cls, base in CLASSES.items():
        obj = cls(**base)
        plain = {f.name for f in dataclasses.fields(cls)
                 if not dataclasses.is_dataclass(getattr(obj, f.name))}
        assert plain == set(rules(cls)), cls.__name__


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_a_library_call_rejects_a_value_that_breaks_its_fields_rule(case):
    # TrainConfig(batch_size=True) trained as batch size 1, and PerturbSpec(steps=2.5)
    # and every ModelDims size set to True once constructed without error
    cls, name, value = case
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        cls(**{**CLASSES[cls], name: value})


def _json_cases():
    for section, cls in SECTIONS.items():
        for cls_, name, value in CASES:
            key = JSON_KEY.get(name, name)
            if cls_ is cls and key in CANONICAL[section]:
                yield section, key, value
    for cls in (TrainConfig, C.ExperimentConfig):
        for cls_, name, value in CASES:
            if cls_ is cls and name in CANONICAL and not isinstance(CANONICAL[name], dict):
                yield "top level", name, value


JSON_CASES = list(_json_cases())


@pytest.mark.parametrize("section,key,value", JSON_CASES,
                         ids=[f"{s}.{k}={v!r}" for s, k, v in JSON_CASES])
def test_a_json_value_that_breaks_its_fields_rule_names_section_and_key(section, key, value):
    doc = {key: value} if section == "top level" else {section: {key: value}}
    # a top-level key of TrainConfig's is kind-checked at the top level, range-checked in train
    where = "(top level|train)" if section == "top level" else re.escape(section)
    with pytest.raises(C.ConfigError, match=rf"^{where}: {key} must"):
        C.parse_config(doc)


def test_every_section_key_holding_a_value_is_covered():
    covered = {(s, k) for s, k, _ in JSON_CASES}
    for section, value in CANONICAL.items():
        if isinstance(value, dict):
            assert {(section, k) for k in value} <= covered
        else:
            assert ("top level", section) in covered


def test_enum_fields_take_their_string_values():
    # ExperimentConfig(task="image") once failed to serialize, and
    # TrainConfig(mode="wasecom") trained as ERM
    for cls, base in CLASSES.items():
        for name, rule in rules(cls).items():
            if issubclass(rule.kind, Enum):
                for member in rule.kind:
                    assert getattr(cls(**{**base, name: member.value}), name) is member
    assert (C.serialize_config(C.ExperimentConfig(task="image"))
            == C.serialize_config(C.ExperimentConfig()))
    assert TrainConfig(mode="erm").mode is Mode.ERM


def test_numbers_take_numpy_scalars_and_ints_take_no_float():
    cfg = TrainConfig(seed=np.int64(3), batch_size=np.int32(8), lr=np.float32(0.5), dual_lr=1)
    assert (cfg.seed, cfg.batch_size, cfg.lr, cfg.dual_lr) == (3, 8, 0.5, 1)
    for value in (np.float64(3.0), 3.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrainConfig(seed=value)


def test_an_open_bound_excludes_only_the_bound_and_inf_is_range_checked():
    assert RobustnessConfig(epsilon_temp=5e-324).epsilon_temp == 5e-324
    assert PerturbSpec(radius=math.inf).radius == math.inf
    for value in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            PerturbSpec(radius=value)
