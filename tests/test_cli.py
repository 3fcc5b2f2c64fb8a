import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wasecom import cli
from wasecom.cli import main
from wasecom.config import _SECTION_KEYS, parse_config, to_canonical_dict
from wasecom.perturb import fgsm

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = {
    "run_id": "t",
    "seed": 3,
    "mode": "erm",
    "task": "image",
    "dataset": {"kind": "synthetic", "n": 16, "side": 6},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.002},
    "channel": {"kind": "awgn", "snr_db": 12.0},
    "eval": {"snr_db": [0, 10, 20], "attack_eps": [0.0, 0.1],
             "attack_fraction": 0.5, "batch_size": 32},
}


def _cfg_file(tmp_path, name="cfg.json", **over):
    doc = {**TINY, "out_dir": str(tmp_path / "out"), **over}
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert {"config.json", "version.txt", "model.ckpt",
            "train_log.csv", "metrics.csv"} <= names
    assert (out / "version.txt").read_text().startswith("wasecom 0.1.0")
    snapshot = parse_config((out / "config.json").read_text())
    assert snapshot.train.seed == 3
    log_lines = (out / "train_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("step,phase,total")
    assert len(log_lines) > 1
    printed = capsys.readouterr().out
    assert printed.strip().startswith("image,")


def test_train_then_eval_reproduces_metrics(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    trained_row = (out / "metrics.csv").read_text().splitlines()[1]
    out2 = tmp_path / "out2"
    assert main(["eval", "--config", str(cfg), "--ckpt", str(out / "model.ckpt"),
                 "--out", str(out2)]) == 0
    eval_row = (out2 / "metrics.csv").read_text().splitlines()[1]
    assert eval_row == trained_row


def test_sweep_grid_has_snr_times_attack_rows(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "model.ckpt"
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--ckpt", str(ckpt),
                 "--out", str(sweep_dir)]) == 0
    lines = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2  # header + |snr| x |eps|
    assert lines[0].startswith("task,snr_db,attack")
    attacked = [ln for ln in lines[1:] if "fgsm" in ln]
    assert len(attacked) == 3


def test_sweep_flag_overrides_and_workers_match_serial(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "model.ckpt"
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    argv = ["sweep", "--config", str(cfg), "--ckpt", str(ckpt),
            "--snr", "0,10", "--attack-eps", "0.1"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2), "--workers", "2"]) == 0
    rows1 = (d1 / "sweep.csv").read_text()
    rows2 = (d2 / "sweep.csv").read_text()
    assert rows1 == rows2
    assert len(rows1.splitlines()) == 3
    # without --ckpt the sweep trains first, and its cells run on the trained bundle
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    argv = ["sweep", "--config", str(cfg), "--snr", "0,10", "--attack-eps", "0,0.1"]
    assert main(argv + ["--out", str(t1)]) == 0
    assert main(argv + ["--out", str(t2), "--workers", "2"]) == 0
    for name in ("sweep.csv", "model.ckpt"):
        assert (t1 / name).read_bytes() == (t2 / name).read_bytes(), name
    assert len((t1 / "sweep.csv").read_text().splitlines()) == 1 + 2 * 2


def test_a_sweep_that_trains_writes_what_train_writes(tmp_path):
    # it once saved only model.ckpt: no step log, and checkpoint_every did nothing
    cfg = _cfg_file(tmp_path, train={**TINY["train"], "epochs": 2, "checkpoint_every": 2})
    t, s = tmp_path / "t", tmp_path / "s"
    assert main(["train", "--config", str(cfg), "--out", str(t)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(s)]) == 0
    steps = ["ckpt_step000002.bin", "ckpt_step000004.bin"]
    for out in (t, s):
        assert sorted(p.name for p in out.glob("ckpt_step*")) == steps
    for name in ["model.ckpt", *steps]:
        assert (s / name).read_bytes() == (t / name).read_bytes(), name

    def all_but_wall_ms(path):  # wall_ms is the last column
        return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]

    assert all_but_wall_ms(s / "train_log.csv") == all_but_wall_ms(t / "train_log.csv")
    assert len(all_but_wall_ms(t / "train_log.csv")) == 1 + 4 * 2   # header + steps x phases


@pytest.mark.parametrize("workers", ["1", "2"])
def test_serial_sweep_builds_its_dataset_once(tmp_path, monkeypatch, workers):
    # a pool's workers get the parent's dataset and bundle; none builds or loads its own
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    calls = []
    for name in ("build_dataset", "load_checkpoint"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    argv = ["sweep", "--config", str(cfg), "--ckpt", str(tmp_path / "out" / "model.ckpt"),
            "--snr", "0,10", "--attack-eps", "0,0.1", "--out", str(tmp_path / "s"),
            "--workers", workers]
    assert main(argv) == 0
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 1 + 2 * 2
    assert sorted(calls) == ["build_dataset", "load_checkpoint"]   # not once per cell or worker


def test_sweep_pool_gets_one_chunk_of_cells_per_worker(tmp_path, monkeypatch):
    # the pool pickles the cell's inputs once per chunk, so a chunk per worker
    # sends them once per worker; the rows keep the serial order
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    argv = ["sweep", "--config", str(cfg), "--ckpt", str(tmp_path / "out" / "model.ckpt"),
            "--snr", "0,10,20", "--attack-eps", "0,0.1"]
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers, self.chunksizes = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            self.chunksizes.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(argv + ["--out", str(tmp_path / "pool"), "--workers", "4"]) == 0
    assert [(p.max_workers, p.chunksizes) for p in pools] == [(4, [2])]   # 6 cells, 4 workers
    assert ((tmp_path / "pool" / "sweep.csv").read_bytes()
            == (tmp_path / "serial" / "sweep.csv").read_bytes())


def test_sweep_attack_radii_above_the_signed_step_still_bind(tmp_path):
    # with a fixed FGSM step of 0.01 per pixel (0.06 in L2 here), every radius
    # above 0.06 gave the same cell
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    argv = ["sweep", "--config", str(cfg), "--ckpt", str(tmp_path / "out" / "model.ckpt"),
            "--snr", "10", "--attack-eps", "0.1,0.5,1", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
    mse = [float(row.split(",")[3]) for row in rows]
    assert mse[0] < mse[1] < mse[2]


@pytest.mark.parametrize("eps", [0.05, 0.5, 5.0])
def test_attack_radius_is_the_fgsm_step_length(eps):
    x = np.random.default_rng(0).normal(size=(6, 36))
    spec = cli._attack_for(eps, 1.0)
    moved = fgsm(lambda leaf: leaf.square().sum(axis=1), x, spec)
    assert np.allclose(np.linalg.norm(moved - x, axis=1), eps, rtol=0, atol=1e-12)


def test_flag_dests_name_config_keys():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("train", "eval", "sweep"):
        for action in commands.choices[command]._actions:
            if action.dest in cli._NOT_CONFIG | {"help"}:
                continue
            *section, key = action.dest.split(".")
            assert key in _SECTION_KEYS[section[0] if section else "top level"], action.dest


@pytest.mark.parametrize("argv,keys", [
    (["train", "--snr", "5", "--rho", "0.2", "--seed", "4"],
     {("channel", "snr_db"): 5.0, ("robustness", "rho"): 0.2, ("seed",): 4}),
    (["eval", "--snr", "5", "--attack-eps", "0.3"],
     {("channel", "snr_db"): 5.0, ("eval", "attack_eps"): [0.3]}),
    (["eval"], {("eval", "attack_eps"): [0.0]}),
    (["sweep", "--snr", "0,10", "--attack-eps", "0.1"],
     {("eval", "snr_db"): [0.0, 10.0], ("eval", "attack_eps"): [0.1]})])
def test_config_json_records_the_flags(tmp_path, argv, keys):
    cfg = _cfg_file(tmp_path)
    if argv[0] != "train":
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ck")]) == 0
        argv = argv + ["--ckpt", str(tmp_path / "ck" / "model.ckpt")]
    assert main(argv + ["--config", str(cfg)]) == 0
    snapshot = to_canonical_dict(parse_config((tmp_path / "out" / "config.json").read_text()))
    for path, value in keys.items():
        node = snapshot
        for name in path:
            node = node[name]
        assert node == value, path


def test_bad_configs_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"mystery_key": 1}')
    assert main(["train", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["eval", "--config", str(_cfg_file(tmp_path))]) == 2  # no --ckpt


@pytest.mark.parametrize("section,value", [("model", {"hidden_dim": -4}),
                                           ("robustness", {"rho": float("nan")}),
                                           ("eval", {"batch_size": 0}),
                                           ("eval", {"attack_fraction": 2.0}),
                                           ("dataset", {"n": 0}),
                                           ("robustness", {"mu": float("inf")}),
                                           ("dataset", {"vocab_size": 100}),
                                           ("dataset", {"max_len": 20}),
                                           ("dataset", {"vocab_size": 1}),
                                           ("dataset", {"max_len": 1}),
                                           ("dataset", {"kind": "cifar10", "side": 6,
                                                        "path": "batch.bin"}),
                                           ("eval", {"attack_eps": [-0.5, 0.0, 0.5]}),
                                           ("train", {"checkpoint_every": -1}),
                                           ("dataset", {"kind": "nonsense"}),
                                           ("dataset", {"kind": "cifar10"}),
                                           ("dataset", {"kind": "text-lines",
                                                        "path": "corpus.txt"}),
                                           ("eval", {"snr_db": []}),
                                           ("eval", {"attack_eps": []}),
                                           ("robustness", {"lambda_learnable": "false"}),
                                           ("train", {"epochs": 2.5}),
                                           ("train", {"batch_size": 8.0}),
                                           ("train", {"checkpoint_every": 1.0}),
                                           ("perturb_inner", {"steps": 2.0}),
                                           ("perturb_outer", {"sample_count": 4.0}),
                                           ("dataset", {"n": 16.0}),
                                           ("model", {"hidden_dim": 8.0}),
                                           ("eval", {"batch_size": 32.0}),
                                           ("channel", {"snr_db": True}),
                                           ("eval", {"attack_eps": [True]}),
                                           ("eval", {"snr_db": 5})])
def test_bad_values_are_config_errors(tmp_path, capsys, section, value):
    assert main(["train", "--config", str(_cfg_file(tmp_path, **{section: value}))]) == 2
    assert f"config error: {section}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [{"seed": 2.0}, {"seed": True}, {"mode": 1},
                                   {"run_id": 7}])
def test_bad_top_level_values_are_config_errors(tmp_path, capsys, value):
    assert main(["train", "--config", str(_cfg_file(tmp_path, **value))]) == 2
    assert f"config error: top level: {next(iter(value))}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [["--snr", "nan"], ["--rho", "nan"], ["--mu", "inf"],
                                      ["--rho", "-1"], ["--seed", "-3"]])
def test_bad_train_overrides_are_config_errors(tmp_path, capsys, override):
    # a flag is a config key, so the check of the key's section rejects it
    section = {"--snr": "channel", "--rho": "robustness", "--mu": "robustness",
               "--seed": "train"}[override[0]]
    assert main(["train", "--config", str(_cfg_file(tmp_path))] + override) == 2
    assert f"config error: {section}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_flag_over_a_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    assert main(["train", "--config", str(_cfg_file(tmp_path, channel=5)), "--snr", "3"]) == 2
    assert "config error: channel must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["sweep", "--snr", ""], ["sweep", "--attack-eps", ""]])
def test_an_empty_eval_grid_fails_before_any_work(tmp_path, capsys, argv):
    # a grid of no cells is no work: fail before training, loading or writing anything
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    assert main(argv + ["--config", str(_cfg_file(tmp_path)), "--ckpt", str(junk)]) == 2
    assert "config error: eval" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_empty_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory, so an empty out_dir must not reach it
    cfg = _cfg_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", ""]) == 2
    assert "config error: out_dir must be a non-empty string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("argv", [["sweep", "--snr", "nan", "--attack-eps", "0"],
                                  ["sweep", "--snr", "10", "--attack-eps", "0,inf"],
                                  ["eval", "--attack-eps", "nan"]])
def test_non_finite_eval_flags_fail_before_any_work(tmp_path, capsys, argv):
    # the checkpoint is junk, so an error raised only after loading it exits 1
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    cfg = _cfg_file(tmp_path)
    ckpt = ["--ckpt", str(junk)] if argv[0] == "eval" else []
    assert main(argv + ["--config", str(cfg)] + ckpt) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,section", [(["train", "--snr", "4000"], "channel"),
                                          (["sweep", "--snr", "0,-4000"], "eval")])
def test_snrs_beyond_the_cap_fail_before_any_work(tmp_path, capsys, argv, section):
    # 10^(snr_db/10) once overflowed or divided by zero at the first channel
    # draw, after a sweep had trained and saved its model
    assert main(argv + ["--config", str(_cfg_file(tmp_path))]) == 2
    assert (f"config error: {section}: snr_db must lie in [-200, 200]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["sweep", "--attack-eps=-0.5,0,0.5"],
                                  ["eval", "--attack-eps", "-0.5"]])
def test_negative_attack_radii_fail_before_any_work(tmp_path, capsys, argv):
    # a negative radius once ran as a clean cell; the junk checkpoint is never read
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    assert main(argv + ["--config", str(_cfg_file(tmp_path)), "--ckpt", str(junk)]) == 2
    assert "must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_on_a_checkpoint_of_another_size_names_both(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)  # side 6: 36 pixels
    assert main(["train", "--config", str(cfg)]) == 0
    small = _cfg_file(tmp_path, name="small.json", dataset={**TINY["dataset"], "side": 4})
    ckpt = tmp_path / "out" / "model.ckpt"
    assert main(["eval", "--config", str(small), "--ckpt", str(ckpt)]) == 1
    assert "samples have shape (4, 16), but the model's input_dim is 36" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_a_model_size_other_than_the_checkpoints_fails_before_any_output(tmp_path, capsys,
                                                                         command):
    # it once exited 0 and recorded the config's size, not the model's
    trained = tmp_path / "trained"
    sizes = {"semantic_dim": 12, "signal_dim": 10, "hidden_dim": 24}
    assert main(["train", "--config", str(_cfg_file(tmp_path, out_dir=str(trained),
                                                    model=sizes))]) == 0
    ckpt = ["--ckpt", str(trained / "model.ckpt")]
    for key in sizes:
        other = _cfg_file(tmp_path, name="other.json", model={key: sizes[key] + 1})
        assert main([command, "--config", str(other)] + ckpt) == 2
        err = capsys.readouterr().err
        assert f"config error: model: {key} is {sizes[key] + 1}, but the checkpoint's is " \
               f"{sizes[key]}" in err
        assert not (tmp_path / "out").exists()
    # the checkpoint's own sizes, or none given, run
    assert main([command, "--config", str(_cfg_file(tmp_path, model=sizes))] + ckpt) == 0
    snapshot = json.loads((tmp_path / "out" / "config.json").read_text())
    assert {k: snapshot["model"][k] for k in sizes} == sizes
    assert main([command, "--config", str(_cfg_file(tmp_path))] + ckpt) == 0


def test_sweep_rejects_a_bad_eval_plan_before_training(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, eval={"attack_fraction": 2.0})
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "config error: eval" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_sample_count_is_a_config_error(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, mode="wasecom", robustness={"use_lse": True},
                    perturb_inner={"method": "gaussian", "sample_count": 0})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "sample_count" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    assert main(["eval", "--config", str(cfg), "--ckpt", str(junk)]) == 1
    assert "error" in capsys.readouterr().err


def test_check_theory_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "theory"
    assert main(["check-theory", "--samples", "10", "--out", str(out)]) == 0
    lines = (out / "theory.csv").read_text().splitlines()
    assert len(lines) >= 13  # header + 12 instances + lemma row
    assert "all" in capsys.readouterr().out


def test_gradcheck_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--graphs", "6", "--out", str(out)]) == 0
    lines = (out / "gradcheck.csv").read_text().splitlines()
    assert len(lines) == 7
    assert "all gradients agree" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["check-theory", "--samples", "-3"],
                                  ["check-theory", "--samples", "0"],
                                  ["gradcheck", "--graphs", "-2"],
                                  ["gradcheck", "--graphs", "0"],
                                  ["gradcheck", "--graphs", "two"],
                                  ["sweep", "--workers", "0"],
                                  ["sweep", "--workers", "-2"],
                                  ["check-theory", "--seed", "-1"],
                                  ["gradcheck", "--seed", "-1"]])
def test_checks_without_work_are_usage_errors(argv, capsys):
    # a check that samples no plan or builds no graph must not report a pass
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err.lower()
    assert "passed" not in captured.out and "agree" not in captured.out


def test_log_env_is_accepted(monkeypatch):
    monkeypatch.setenv("WASECOM_LOG", "debug")
    assert main(["gradcheck", "--graphs", "2"]) == 0


def _child_env() -> dict:
    # a child process does not inherit pytest's pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "wasecom.cli", "--version"],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert "wasecom 0.1.0" in proc.stdout


# Imports every wasecom module in a fresh interpreter and prints the top-level
# names it added to sys.modules that are not standard library.  Names loaded
# before the import (the interpreter's own start-up modules) do not count, nor
# does __mp_main__, the alias multiprocessing makes of __main__.
_THIRD_PARTY_SCRIPT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import wasecom
for info in pkgutil.iter_modules(wasecom.__path__, "wasecom."):
    importlib.import_module(info.name)
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(",".join(sorted(added - set(sys.stdlib_module_names) - {"__mp_main__"})))
"""


def test_the_runtime_imports_only_numpy():
    proc = subprocess.run([sys.executable, "-c", _THIRD_PARTY_SCRIPT],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy,wasecom"
