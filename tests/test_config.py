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
  "train": {"epochs": 3, "batch_size": 16, "lr": 0.002},
  "channel": {"kind": "rayleigh", "snr_db": 15.0},
  "robustness": {"rho": 0.1, "mu": 0.05, "lambda": 2.0, "use_lse": false},
  "perturb_inner": {"method": "pgd", "radius": 0.1, "steps": 4},
  "perturb_outer": {"method": "fgsm", "radius": 0.05},
  "eval": {"snr_db": [0, 10], "attack_eps": [0.0, 0.1], "attack_fraction": 0.3}
}
"""

# the config example in README.md
README_EXAMPLE = """
{
  "run_id": "demo",
  "task": "image",
  "seed": 0,
  "mode": "wasecom",
  "dataset": {"kind": "synthetic", "n": 2048, "side": 8},
  "model": {"semantic_dim": 16, "signal_dim": 16, "hidden_dim": 32},
  "train": {"epochs": 20, "batch_size": 32, "lr": 0.002},
  "channel": {"kind": "awgn", "snr_db": 10.0},
  "robustness": {"rho": 0.5, "mu": 0.1, "lambda": 1.0, "gamma": 1.0},
  "perturb_inner": {"method": "pgd", "radius": 0.5, "epsilon_inf": 1.0, "steps": 3},
  "perturb_outer": {"method": "fgsm", "radius": 0.1, "epsilon_inf": 1.0},
  "eval": {"snr_db": [0, 10, 20], "attack_eps": [0.0, 1.0], "attack_fraction": 0.3}
}
"""

DEFAULT_CANONICAL = """\
{
  "channel": {
    "kind": "awgn",
    "snr_db": 10.0
  },
  "dataset": {
    "kind": "synthetic",
    "max_len": 12,
    "n": 512,
    "path": null,
    "side": 8,
    "vocab_size": 32
  },
  "eval": {
    "attack_eps": [
      0.0,
      0.1
    ],
    "attack_fraction": 0.1,
    "batch_size": 64,
    "snr_db": [
      0.0,
      10.0,
      20.0
    ]
  },
  "mode": "wasecom",
  "model": {
    "embed_dim": 8,
    "hidden_dim": null,
    "semantic_dim": null,
    "signal_dim": null
  },
  "out_dir": "runs/run",
  "perturb_inner": {
    "epsilon_inf": 0.01,
    "method": "pgd",
    "radius": 0.1,
    "sample_count": 8,
    "steps": 5
  },
  "perturb_outer": {
    "epsilon_inf": 0.01,
    "method": "fgsm",
    "radius": 0.1,
    "sample_count": 8,
    "steps": 7
  },
  "robustness": {
    "epsilon_temp": 1.0,
    "gamma": 1.0,
    "lambda": 1.0,
    "lambda_learnable": true,
    "mu": 0.0,
    "rho": 0.0,
    "use_lse": false
  },
  "run_id": "run",
  "seed": 0,
  "task": "image",
  "train": {
    "batch_size": 32,
    "checkpoint_every": 0,
    "dual_lr": 0.01,
    "epochs": 2,
    "lr": 0.001
  }
}
"""

README_CANONICAL = """\
{
  "channel": {
    "kind": "awgn",
    "snr_db": 10.0
  },
  "dataset": {
    "kind": "synthetic",
    "max_len": 12,
    "n": 2048,
    "path": null,
    "side": 8,
    "vocab_size": 32
  },
  "eval": {
    "attack_eps": [
      0.0,
      1.0
    ],
    "attack_fraction": 0.3,
    "batch_size": 64,
    "snr_db": [
      0,
      10,
      20
    ]
  },
  "mode": "wasecom",
  "model": {
    "embed_dim": 8,
    "hidden_dim": 32,
    "semantic_dim": 16,
    "signal_dim": 16
  },
  "out_dir": "runs/run",
  "perturb_inner": {
    "epsilon_inf": 1.0,
    "method": "pgd",
    "radius": 0.5,
    "sample_count": 8,
    "steps": 3
  },
  "perturb_outer": {
    "epsilon_inf": 1.0,
    "method": "fgsm",
    "radius": 0.1,
    "sample_count": 8,
    "steps": 7
  },
  "robustness": {
    "epsilon_temp": 1.0,
    "gamma": 1.0,
    "lambda": 1.0,
    "lambda_learnable": true,
    "mu": 0.1,
    "rho": 0.5,
    "use_lse": false
  },
  "run_id": "demo",
  "seed": 0,
  "task": "image",
  "train": {
    "batch_size": 32,
    "checkpoint_every": 0,
    "dual_lr": 0.01,
    "epochs": 20,
    "lr": 0.002
  }
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
    for section, key in (("train", "sub_steps"), ("train", "optimizer"),
                         ("perturb_inner", "step_size"), ("perturb_outer", "step_size"),
                         ("perturb_inner", "sample_fraction"),
                         ("perturb_outer", "sample_fraction")):
        with pytest.raises(C.ConfigError, match=f"unknown key.*{section}.*{key}"):
            C.parse_config({section: {key: 1}})


def test_invalid_values_become_config_errors():
    with pytest.raises(C.ConfigError, match="mode"):
        C.parse_config('{"mode": "sgd-mystery"}')
    with pytest.raises(C.ConfigError, match="robustness"):
        C.parse_config('{"robustness": {"rho": -1}}')
    with pytest.raises(C.ConfigError, match="train"):
        C.parse_config('{"train": {"batch_size": 0}}')
    for seed in ("abc", None, 1.7, 2.0, True):  # not a JSON integer
        with pytest.raises(C.ConfigError, match="top level: seed must be an integer"):
            C.parse_config({"seed": seed})
    with pytest.raises(C.ConfigError, match="train: seed must be a nonnegative integer"):
        C.parse_config({"seed": -3})
    with pytest.raises(C.ConfigError, match="robustness.*mu"):
        C.parse_config('{"robustness": {"mu": NaN}}')
    for key in ("semantic_dim", "signal_dim", "hidden_dim", "embed_dim"):
        for size in (0, -4):
            with pytest.raises(C.ConfigError, match=f"model.*{key}"):
                C.parse_config({"model": {key: size}})
    for section, key, value in (("eval", "batch_size", 0), ("eval", "attack_fraction", 2.0),
                                ("eval", "attack_fraction", -0.1),
                                ("eval", "attack_fraction", float("nan")),
                                ("eval", "snr_db", [0.0, float("inf")]),
                                ("eval", "snr_db", [0.0, -200.5]),
                                ("channel", "snr_db", 250.0),
                                ("eval", "attack_eps", [float("nan")]),
                                ("eval", "attack_eps", [0.0, -0.5]),
                                ("eval", "snr_db", []), ("eval", "attack_eps", []),
                                ("train", "checkpoint_every", -1),
                                ("dataset", "n", 0), ("dataset", "side", 1),
                                ("dataset", "vocab_size", 100), ("dataset", "vocab_size", 65),
                                ("dataset", "vocab_size", 1), ("dataset", "max_len", 20),
                                ("dataset", "max_len", 17), ("dataset", "max_len", 1)):
        with pytest.raises(C.ConfigError, match=f"{section}: {key}"):
            C.parse_config({section: {key: value}})
    gaussian = {"method": "gaussian"}
    for doc in ({"robustness": {"use_lse": True}},
                {"robustness": {"use_lse": True}, "perturb_inner": gaussian},
                {"perturb_inner": gaussian, "perturb_outer": gaussian},
                {"perturb_outer": gaussian}):
        with pytest.raises(C.ConfigError, match="train: .*use_lse"):
            C.parse_config(doc)
    C.parse_config({"robustness": {"use_lse": True}, "perturb_inner": gaussian,
                    "perturb_outer": gaussian})
    with pytest.raises(C.ConfigError, match="dataset: side must divide 32"):
        C.parse_config({"dataset": {"kind": "cifar10", "side": 6, "path": "batch.bin"}})
    for vocab, max_len in ((2, 2), (64, 16)):  # the bounds themselves are accepted
        C.parse_config({"dataset": {"vocab_size": vocab, "max_len": max_len}})
    C.parse_config({"dataset": {"kind": "cifar10", "side": 16, "path": "batch.bin"}})
    for kind, path in (("nonsense", None), ("cifar10", None), ("cifar10", ""),
                       ("text-lines", None)):
        with pytest.raises(C.ConfigError, match="dataset: (kind|path)"):
            C.parse_config({"dataset": {"kind": kind, "path": path}})
    for task, kind in (("text", "cifar10"), ("image", "text-lines")):
        with pytest.raises(C.ConfigError, match=f"dataset: kind '{kind}'.*task is '{task}'"):
            C.parse_config({"task": task, "dataset": {"kind": kind, "path": "data.bin"}})
    C.parse_config({"task": "text", "dataset": {"kind": "text-lines", "path": "corpus.txt"}})
    for key in ("run_id", "out_dir"):
        for value in (None, [1], 7):
            with pytest.raises(C.ConfigError, match=f"top level: {key} must be a string"):
                C.parse_config({key: value})
        with pytest.raises(C.ConfigError, match=f"{key} must be a non-empty string"):
            C.parse_config({key: ""})
    with pytest.raises(C.ConfigError, match="invalid JSON"):
        C.parse_config("{nope")


@pytest.mark.parametrize("doc,message", [
    ({"robustness": {"lambda_learnable": "false"}},
     "robustness: lambda_learnable must be true or false, got 'false'"),
    ({"robustness": {"use_lse": 0}}, "robustness: use_lse must be true or false"),
    ({"train": {"epochs": 2.5}}, "train: epochs must be an integer, got 2.5"),
    ({"train": {"lr": True}}, "train: lr must be a number, got True"),
    ({"perturb_inner": {"steps": 3.0}}, "perturb_inner: steps must be an integer"),
    ({"perturb_outer": {"method": 2}}, "perturb_outer: method must be a string"),
    ({"model": {"hidden_dim": "32"}}, "model: hidden_dim must be an integer or null"),
    ({"dataset": {"path": 7}}, "dataset: path must be a string or null"),
    ({"channel": {"snr_db": "10"}}, "channel: snr_db must be a number"),
    ({"eval": {"attack_eps": [True]}}, r"eval: attack_eps must be a list of numbers, got \[True\]"),
    ({"eval": {"snr_db": 5}}, "eval: snr_db must be a list of numbers, got 5"),
    ({"mode": 1}, "top level: mode must be a string"),
    ({"task": None}, "top level: task must be a string")])
def test_values_must_have_their_fields_json_type(doc, message):
    # "false" once parsed as true, and 2.5 epochs failed only inside the training loop
    with pytest.raises(C.ConfigError, match=message):
        C.parse_config(doc)


def test_number_fields_take_ints_and_nullable_fields_take_null():
    cfg = C.parse_config({"train": {"lr": 1}, "eval": {"snr_db": [0, 2.5]},
                          "model": {"hidden_dim": None}, "dataset": {"path": None}})
    assert (cfg.train.lr, cfg.eval_plan.snr_db, cfg.model.hidden_dim) == (1, [0, 2.5], None)


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
    # a file kind without a path and an unknown kind fail at parse time
    with pytest.raises(C.ConfigError, match="dataset: path is required for kind 'cifar10'"):
        C.parse_config('{"dataset": {"kind": "cifar10"}}')
    with pytest.raises(C.ConfigError, match="dataset: kind must be .*'nonsense'"):
        C.parse_config('{"dataset": {"kind": "nonsense"}}')


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


def test_a_text_semantic_dim_must_split_into_one_vector_per_position():
    # every text dataset holds sequences of max_len tokens
    doc = {"task": "text", "model": {"semantic_dim": 30}, "dataset": {"max_len": 8}}
    with pytest.raises(C.ConfigError, match=r"model: semantic_dim .*max_len \(8\) for text, got 30"):
        C.parse_config(doc)
    assert C.parse_config({**doc, "model": {"semantic_dim": 32}}).model.semantic_dim == 32
    assert C.parse_config({**doc, "task": "image"}).model.semantic_dim == 30


def test_the_snr_cap_itself_is_legal():
    cfg = C.parse_config({"channel": {"snr_db": -200.0}, "eval": {"snr_db": [-200, 200.0]}})
    assert (cfg.train.channel.snr_db, cfg.eval_plan.snr_db) == (-200.0, [-200, 200.0])


def test_model_dims_without_overrides_are_the_training_defaults():
    for doc in ('{"dataset": {"kind": "synthetic", "n": 8, "side": 8}}',
                '{"task": "text", "dataset": {"kind": "synthetic", "n": 8, "max_len": 6}}'):
        cfg = C.parse_config(doc)
        data = C.build_dataset(cfg)
        assert C.model_dims(cfg, data) == TR.default_dims(data)
        # a given size is used as given, never read as "derive"
        with pytest.raises(ValueError, match="semantic_dim"):
            TR.default_dims(data, semantic_dim=0)


def test_canonical_text_is_pinned():
    # the exact bytes config.json gets, for the defaults and the README example
    assert C.serialize_config(C.ExperimentConfig()) == DEFAULT_CANONICAL
    assert C.serialize_config(C.parse_config(README_EXAMPLE)) == README_CANONICAL
