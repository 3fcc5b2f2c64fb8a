"""Tests of the benchmark's own machinery: span self time, family totals, the
wrappers' transparency, and the result line's contract."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from layertrace import SpanLog, SpanTotals, Tracer  # noqa: E402

import wasecom.ot as ot  # noqa: E402
import wasecom.perturb as perturb  # noqa: E402
import wasecom.tensor as T  # noqa: E402
import wasecom.training as training  # noqa: E402
from wasecom.channel import ChannelConfig, ChannelKind  # noqa: E402
from wasecom.data import generate_synthetic_images  # noqa: E402
from wasecom.models import ModelBundle, ModelDims, TaskKind  # noqa: E402


def _nested_log():
    """A [0,10] holds B [1,4] and C [5,9]; C holds D [6,7]."""
    log = SpanLog(clock=iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0]).__next__)
    a = log.open("A")
    b = log.open("B")
    log.close(b)
    c = log.open("C")
    d = log.open("D")
    log.close(d)
    log.close(c)
    log.close(a)
    return log


def test_self_time_subtracts_direct_children_only():
    log = _nested_log()
    assert log.parent == [-1, 0, 0, 2]
    assert list(log.durations()) == [10.0, 3.0, 4.0, 1.0]
    assert list(log.self_times()) == [3.0, 3.0, 3.0, 1.0]


def test_family_totals_count_outermost_spans_once():
    log = _nested_log()
    totals = SpanTotals(log, {"A": "f", "B": "g", "C": "g", "D": "g"}, in_step=False)
    assert totals.family_calls == {"f": 1, "g": 2}
    assert totals.family_seconds["g"] == 7.0          # B + C; D lies inside C
    assert totals.family_self_seconds["g"] == 7.0     # 3 + 3 + 1
    assert totals.calls["D"] == 1


def test_in_step_totals_skip_spans_outside_steps():
    log = SpanLog(clock=iter([0.0, 1.0, 2.0, 4.0]).__next__)
    log.close(log.open("X"))
    log.step_id = 0
    log.close(log.open("X"))
    totals = SpanTotals(log, {"X": "x"}, in_step=True)
    assert totals.calls["X"] == 1 and totals.seconds["X"] == 2.0


def _small_image_case():
    data = generate_synthetic_images(40, side=4, seed=0)
    bundle = ModelBundle(TaskKind.IMAGE, ModelDims(16, 8, 8, 12), seed=0)
    attack = perturb.PerturbSpec(perturb.PerturbMethod.FGSM, radius=0.5, epsilon_inf=1.0,
                                 sample_fraction=0.5)
    return data, bundle, attack


def _calls(data, bundle, attack):
    x = data.train[:6]
    loss = lambda leaf: (leaf - T.Tensor(x * 0.5)).square().mean(axis=1)  # noqa: E731
    pgd_spec = perturb.PerturbSpec(perturb.PerturbMethod.PGD, radius=0.3, steps=3)
    return {
        "add": (T.Tensor(x) + T.Tensor(x[::-1])).data,
        "pgd": perturb.pgd(loss, x, pgd_spec),
        "evaluate": training.evaluate(bundle, data, ChannelConfig(ChannelKind.RAYLEIGH, 5.0),
                                      attack, seed=3),
        "worst_case_risk": ot.worst_case_risk(ot.dirac([0.0]), lambda v: float(v[0]), 0.5,
                                              ot.grid_1d(-1.0, 1.0, 41))[0],
    }


def test_wrappers_leave_results_unchanged_and_uninstall_restores():
    data, bundle, attack = _small_image_case()
    originals = (T.add, perturb.fgsm, training.fgsm, T.Tensor.__init__, T.Tensor.backward)
    plain = _calls(data, bundle, attack)
    log = SpanLog()
    with Tracer(log):
        assert training.fgsm is perturb.fgsm is not originals[1]
        traced = _calls(data, bundle, attack)
    assert (T.add, perturb.fgsm, training.fgsm, T.Tensor.__init__,
            T.Tensor.backward) == originals
    np.testing.assert_array_equal(traced["add"], plain["add"])
    np.testing.assert_array_equal(traced["pgd"], plain["pgd"])
    assert traced["evaluate"] == plain["evaluate"]
    assert traced["worst_case_risk"] == plain["worst_case_risk"]
    names = set(log.name)
    assert {"tensor.add", "perturb.pgd", "perturb.fgsm", "training.evaluate",
            "ot.worst_case_risk", "metrics.ssim", "tensor.Tensor.backward"} <= names
    assert all(e >= s for s, e in zip(log.start, log.end))


def test_attack_observer_measures_budget_and_moved_rows():
    log = SpanLog()
    x = np.zeros((4, 3))
    spec = perturb.PerturbSpec(perturb.PerturbMethod.FGSM, radius=2.0)
    result = x.copy()
    result[0, 0] = 1.0        # uses a quarter of the squared budget
    result[1] = [2.0, 0, 0]   # uses all of it
    layertrace._observe_attack(log, (None, x, spec), {}, result)
    assert log.attacks == [(-1, (0.25 + 1.0) / 4, 2, 4)]


def test_layer_metrics_names_match_benchmark_json():
    log = _nested_log()
    families = {"A": "training.loop", "B": "g", "C": "g", "D": "g"}
    out = layertrace.layer_metrics(log, SpanLog(), families, n_steps=1, n_cells=0,
                                   n_passes=0)
    assert list(out) + ["trace.overhead_ratio"] == list(layertrace.PER_LAYER)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.PER_LAYER


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "train-image-erm", "--seed", "7", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("args", [["--workload", "nope"], ["--seconds", "0"]])
def test_rejects_bad_arguments(args):
    base = {"--workload": "audit", "--seed": "1", "--seconds": "1", "--trace": "0"}
    base.update(dict(zip(args[::2], args[1::2])))
    proc = _run(ROOT, *[x for kv in base.items() for x in kv])
    assert proc.returncode == 2
