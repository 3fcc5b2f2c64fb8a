import json
import subprocess
import sys

import pytest

from wasecom.cli import main
from wasecom.config import parse_config

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


def test_bad_configs_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"mystery_key": 1}')
    assert main(["train", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["eval", "--config", str(_cfg_file(tmp_path))]) == 2  # no --ckpt


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


def test_log_env_is_accepted(monkeypatch):
    monkeypatch.setenv("WASECOM_LOG", "debug")
    assert main(["gradcheck", "--graphs", "2"]) == 0


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "wasecom.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "wasecom 0.1.0" in proc.stdout
