import json

import pytest

from wasecom import config as C
from wasecom import training as TR
from wasecom.models import TaskKind
from wasecom.training import Mode


FULL = """
{
  "run_id": "demo",
  "out_dir": "runs/demo",
  "seed": 11,
  "mode": "wasecom",
  "task": "image",
  "dataset": {"kind": "synthetic", "n": 64, "side": 8},
  "model": {"semantic_dim": 16},
  "train": {"epochs": 3, "batch_size": 16, "lr": 0.002, "optimizer": "adam"},
  "channel": {"kind": "rayleigh", "snr_db": 15.0},
  "robustness": {"rho": 0.1, "mu": 0.05, "lambda": 2.0, "use_lse": false},
  "perturb_inner": {"method": "pgd", "radius": 0.1, "steps": 4},
  "perturb_outer": {"method": "fgsm", "radius": 0.05},
  "eval": {"snr_db": [0, 10], "attack_eps": [0.0, 0.1], "attack_fraction": 0.3}
}
"""


def test_full_document_parses():
    cfg = C.parse_config(FULL)
    assert cfg.run_id == "demo"
    assert cfg.task is TaskKind.IMAGE
    assert cfg.train.mode is Mode.WASECOM
    assert cfg.train.seed == 11
    assert cfg.train.channel.snr_db == 15.0
    assert cfg.train.robustness.lam == 2.0        # JSON "lambda"
    assert cfg.train.perturb_inner.steps == 4
    assert cfg.eval_plan.attack_fraction == 0.3


def test_empty_document_gets_defaults():
    cfg = C.parse_config("{}")
    assert cfg.train.epochs >= 0
    assert cfg.train.mode is Mode.WASECOM
    assert cfg.task is TaskKind.IMAGE


def test_unknown_keys_rejected_with_section():
    with pytest.raises(C.ConfigError, match="top level.*typo"):
        C.parse_config('{"typo": 1}')
    with pytest.raises(C.ConfigError, match="robustness.*rho_typo"):
        C.parse_config('{"robustness": {"rho_typo": 0.1}}')
    with pytest.raises(C.ConfigError, match="perturb_inner"):
        C.parse_config('{"perturb_inner": {"radius": 0.1, "extra": 2}}')


def test_invalid_values_become_config_errors():
    with pytest.raises(C.ConfigError, match="mode"):
        C.parse_config('{"mode": "sgd-mystery"}')
    with pytest.raises(C.ConfigError, match="robustness"):
        C.parse_config('{"robustness": {"rho": -1}}')
    with pytest.raises(C.ConfigError, match="train"):
        C.parse_config('{"train": {"batch_size": 0}}')
    with pytest.raises(C.ConfigError, match="invalid JSON"):
        C.parse_config("{nope")


def test_round_trip_is_canonical_fixed_point():
    canonical = C.serialize_config(C.parse_config(FULL))
    assert C.serialize_config(C.parse_config(canonical)) == canonical
    # canonical text is sorted-key JSON
    keys = list(json.loads(canonical))
    assert keys == sorted(keys)


def test_round_trip_preserves_equality():
    cfg = C.parse_config(FULL)
    again = C.parse_config(C.serialize_config(cfg))
    assert again == cfg


def test_build_dataset_synthetic_image_and_text():
    cfg = C.parse_config('{"dataset": {"kind": "synthetic", "n": 20, "side": 6}}')
    ds = C.build_dataset(cfg)
    assert ds.task is TaskKind.IMAGE and ds.feature_dim == 36
    cfg = C.parse_config(
        '{"task": "text", "dataset": {"kind": "synthetic", "n": 20, "vocab_size": 16, "max_len": 6}}')
    ds = C.build_dataset(cfg)
    assert ds.task is TaskKind.TEXT and ds.vocab_size == 16


def test_build_dataset_from_files(tmp_path):
    lines = tmp_path / "corpus.txt"
    lines.write_text("alpha beta alpha\nbeta gamma alpha beta\n")
    cfg = C.parse_config(json.dumps({
        "task": "text",
        "dataset": {"kind": "text-lines", "path": str(lines), "vocab_size": 3, "max_len": 5},
    }))
    ds = C.build_dataset(cfg)
    assert ds.vocab_size == 3  # <unk> + two most common words
    cfg = C.parse_config('{"dataset": {"kind": "cifar10"}}')
    with pytest.raises(C.ConfigError, match="path"):
        C.build_dataset(cfg)
    cfg = C.parse_config('{"dataset": {"kind": "nonsense"}}')
    with pytest.raises(C.ConfigError, match="nonsense"):
        C.build_dataset(cfg)


def test_model_dims_derivation_and_override():
    cfg = C.parse_config('{"dataset": {"kind": "synthetic", "n": 8, "side": 8}}')
    data = C.build_dataset(cfg)
    dims = C.model_dims(cfg, data)
    assert dims.input_dim == 64 and dims.semantic_dim == 16
    cfg = C.parse_config(
        '{"model": {"semantic_dim": 24, "hidden_dim": 40}, '
        '"dataset": {"kind": "synthetic", "n": 8, "side": 8}}')
    dims = C.model_dims(cfg, data)
    assert dims.semantic_dim == 24 and dims.hidden_dim == 40
    cfg = C.parse_config(
        '{"task": "text", "dataset": {"kind": "synthetic", "n": 8, "vocab_size": 16, "max_len": 6}}')
    data = C.build_dataset(cfg)
    dims = C.model_dims(cfg, data)
    assert dims.seq_len == 6 and dims.semantic_dim % dims.seq_len == 0
    assert dims.input_dim == 6 * cfg.model.embed_dim


def test_model_dims_without_overrides_are_the_training_defaults():
    for doc in ('{"dataset": {"kind": "synthetic", "n": 8, "side": 8}}',
                '{"task": "text", "dataset": {"kind": "synthetic", "n": 8, "max_len": 6}}'):
        cfg = C.parse_config(doc)
        data = C.build_dataset(cfg)
        assert C.model_dims(cfg, data) == TR.default_dims(data)
