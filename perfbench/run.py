"""wasecom benchmark: one workload, one process, single-threaded BLAS.

    python3 perfbench/run.py --workload train-text-robust --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run writes its inputs as a config in the CLI's JSON schema
(the seed is the workload seed), parses it with ``wasecom.config`` and calls
the library's public functions in a closed loop with a single caller.

``--trace 0`` times the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced work units (training episodes, or audit
passes) and reports the per-layer metrics, the tracing overhead and a
determinism check across the units.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment and parameter hashes, goes to ``perfbench/out/``.  The exit code
is 0 only when every operation succeeded and every correctness check held.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: the benchmark measures one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

EVAL_SEED = 123          # fixed evaluate() seed, as in the acceptance tests
SETUP_REPEATS = 7        # set-ups per run; setup_s reports the fastest
# The calibration loop's fastest time on a quiet 2-vCPU Intel Xeon host: the
# timing metrics are scaled to the machine speed at which it takes this long.
REFERENCE_CALIBRATION_S = 0.016

# The acceptance-test configurations, in the CLI's JSON config schema.
IMAGE = {"task": "image",
         "dataset": {"kind": "synthetic", "n": 2048, "side": 8},
         "model": {"semantic_dim": 16, "signal_dim": 16, "hidden_dim": 32},
         "channel": {"kind": "awgn", "snr_db": 10.0}}
TEXT = {"task": "text",
        "dataset": {"kind": "synthetic", "n": 2048, "vocab_size": 8, "max_len": 8},
        "model": {"semantic_dim": 32, "signal_dim": 96, "hidden_dim": 64, "embed_dim": 8},
        "channel": {"kind": "awgn", "snr_db": 3.0}}
IMAGE_ROBUST = {"robustness": {"rho": 0.5, "mu": 0.1},
                "perturb_inner": {"method": "pgd", "radius": 0.5, "epsilon_inf": 1.0, "steps": 3},
                "perturb_outer": {"method": "fgsm", "radius": 0.1, "epsilon_inf": 1.0}}
TEXT_ROBUST = {"robustness": {"rho": 0.05, "mu": 0.3},
               "perturb_inner": {"method": "pgd", "radius": 0.05, "epsilon_inf": 1.0, "steps": 3},
               "perturb_outer": {"method": "fgsm", "radius": 0.3, "epsilon_inf": 1.0}}
# The audit evaluates less data than the acceptance tests (256 image and 128
# text eval samples a cell), so that a 20 s run repeats every cell 12 times
# or more.  Its text uses the library's default vocabulary of 32: a cell's BLEU
# cost follows the distinct n-grams of the eval set, and with 8 tokens their
# count varies by 30 % between seeds (2.5 % with 32).
AUDIT_IMAGE = {**IMAGE, "dataset": {**IMAGE["dataset"], "n": 1024}}
AUDIT_TEXT = {**TEXT, "dataset": {**TEXT["dataset"], "n": 512, "vocab_size": 32}}
IMAGE_LSE = {"robustness": {"rho": 0.5, "mu": 0.1, "use_lse": True},
             "perturb_inner": {"method": "gaussian", "radius": 0.5, "sample_count": 8},
             "perturb_outer": {"method": "gaussian", "radius": 0.1, "sample_count": 8}}


@dataclass(frozen=True)
class Workload:
    """What a workload runs, and how many of its first units the timing
    metrics take their minimum over: a fixed count, the fewest a 20 s run
    reached on a loaded 2-vCPU host, so that commits of similar speed are
    measured over the same number of repeats."""
    kind: str                 # "train" or "audit"
    best_of: int
    arms: tuple


@dataclass(frozen=True)
class Arm:
    """One configuration a workload trains: task base, mode, robust arm, epochs."""
    base: dict
    mode: str
    arm: dict
    epochs: int               # per training episode (train) or set-up training (audit)
    attack_radius: float = 0.0  # FGSM radius of the audit's attacked cells

    def config(self, seed: int) -> dict:
        return {"run_id": "bench", "out_dir": "perfbench/out", "seed": seed, "mode": self.mode,
                **self.base, **self.arm,
                "train": {"epochs": self.epochs, "batch_size": 32, "lr": 2e-3}}


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "train-text-robust": Workload("train", 26, (Arm(TEXT, "wasecom", TEXT_ROBUST, 1),)),
    "train-image-erm": Workload("train", 66, (Arm(IMAGE, "erm", {}, 2),)),
    "train-image-lse": Workload("train", 22, (Arm(IMAGE, "wasecom", IMAGE_LSE, 1),)),
    "audit": Workload("audit", 12, (Arm(AUDIT_IMAGE, "wasecom", IMAGE_ROBUST, 1, attack_radius=1.0),
                                    Arm(AUDIT_TEXT, "wasecom", TEXT_ROBUST, 1,
                                        attack_radius=0.01))),
}

W = None  # the wasecom package, once _import_program() has run

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "samples_per_s": "1/s", "peak_rss_mb": "MB"}


# The modules a run imports; the import probe times the same imports.
PROGRAM_MODULES = ("channel", "config", "gradcheck", "models", "ot", "perturb", "training")


def _import_program():
    """Import wasecom from the checkout's src/, or exit 2 when it is absent."""
    if not (SRC / "wasecom" / "__init__.py").is_file():
        print(f"error: no wasecom package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    global W
    for name in PROGRAM_MODULES:
        importlib.import_module(f"wasecom.{name}")
    W = sys.modules["wasecom"]


def import_probe_s() -> float:
    """Wall time of a fresh interpreter that does this run's imports and exits.

    A process imports once, so each set-up measures its import share this way.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            + "; ".join(f"import wasecom.{name}" for name in PROGRAM_MODULES))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Wall time of a fixed loop of small numpy ops: the program's mix of
    Python dispatch and 32-row float64 arrays, with none of its code."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 64))
    b = rng.standard_normal((64, 64)) * 0.1
    x = a
    t0 = time.perf_counter()
    for _ in range(1000):
        z = np.tanh(x @ b)
        x = z + a * 0.5
        float(z.sum())
    return time.perf_counter() - t0


# --------------------------------------------------------------------- set-up
@dataclass
class Prepared:
    arm: Arm
    cfg: object
    data: object
    dims: object
    bundle: object            # audit: the checkpoint-loaded bundle
    trained: object = None    # audit: the bundle before the round trip


def set_up(name: str, seed: int, trace: int) -> list[Prepared]:
    """Config write + parse, data generation and bundle init for every arm; for
    `audit` also the brief training and the checkpoint round trip."""
    kind, arms = WORKLOADS[name].kind, WORKLOADS[name].arms
    OUT.mkdir(parents=True, exist_ok=True)
    preps = []
    for arm in arms:
        stem = OUT / f"{name}-seed{seed}-trace{trace}-{arm.base['task']}"
        path = stem.with_suffix(".config.json")
        path.write_text(json.dumps(arm.config(seed), indent=2, sort_keys=True))
        cfg = W.config.parse_config(path)
        data = W.config.build_dataset(cfg)
        dims = W.config.model_dims(cfg, data)
        bundle = W.models.ModelBundle(data.task, dims, seed=cfg.train.seed)
        prep = Prepared(arm, cfg, data, dims, bundle)
        if kind == "audit":
            prep.trained, _ = W.training.train(cfg.train, data, dims=dims, bundle=bundle)
            ckpt = stem.with_suffix(".ckpt")
            W.models.save_checkpoint(prep.trained, ckpt)
            prep.bundle = W.models.load_checkpoint(ckpt)
            ckpt.unlink()
        preps.append(prep)
    return preps


def _digest(*bundles) -> str:
    h = hashlib.sha256()
    for b in bundles:
        h.update(b.param_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ work units
@dataclass
class Unit:
    """What one work unit did: op times, throughput inputs, outcome, checks."""
    op_ms: list = field(default_factory=list)
    seconds: float = 0.0
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)
    fixed_s: dict = field(default_factory=dict)   # timed parts outside op_ms
    bundle: object = None                         # a train episode's result


def train_episode(prep: Prepared, log=None) -> Unit:
    """One train() call from a fresh bundle; each step is timed by on_step."""
    cfg, data = prep.cfg, prep.data
    bundle = W.models.ModelBundle(data.task, prep.dims, seed=cfg.train.seed)
    stamps = []

    def on_step(step, _bundle):
        stamps.append(time.perf_counter())
        if log is not None:
            log.step_id = step

    if log is not None:
        log.step_id = 0
    unit = Unit()
    t0 = time.perf_counter()
    try:
        bundle, train_log = W.training.train(cfg.train, data, dims=prep.dims, bundle=bundle,
                                             on_step=on_step)
    except W.training.TrainingDiverged as err:
        train_log = None
        unit.failed = 1
        unit.problems.append(f"step diverged: {err}")
    unit.seconds = time.perf_counter() - t0
    if log is not None:
        log.step_id = -1
    unit.op_ms = list(np.diff([t0] + stamps) * 1e3)
    unit.attempted = len(stamps) + unit.failed
    n, bs = len(data.train), cfg.train.batch_size
    sizes = [min(bs, n - s) for s in range(0, n, bs)] * cfg.train.epochs
    unit.samples = sum(sizes[:len(stamps)])
    if train_log is not None:
        bad = [r for r in train_log.records if not np.isfinite(r.total)]
        if bad:
            unit.failed += len(bad)
            unit.problems.append(f"{len(bad)} logged totals are not finite")
        unit.digest = _digest(bundle)
        unit.bundle = bundle
    return unit


def _finite_record(rec) -> bool:
    values = [rec.mse, rec.psnr_db, rec.ssim, rec.bleu]
    return all(v is None or np.isfinite(v) for v in values)


def audit_pass(preps: list[Prepared], seed: int, log=None, calibrations=None) -> Unit:
    """The evaluate grid for both bundles, the theory suite and gradcheck.

    With a `calibrations` list, the calibration loop runs before each pair of
    cells, outside the pass's measured time, and its times are appended."""
    unit = Unit()
    h = hashlib.sha256()
    t_pass = time.perf_counter()
    calibrating_s = 0.0
    for prep in preps:
        attack = W.perturb.PerturbSpec(W.perturb.PerturbMethod.FGSM, radius=prep.arm.attack_radius,
                                       epsilon_inf=1.0, sample_fraction=0.3)
        for kind in (W.channel.ChannelKind.AWGN, W.channel.ChannelKind.RAYLEIGH):
            for snr in (0.0, 10.0, 20.0):
                if calibrations is not None:
                    calibrations.append(calibration_s())
                    calibrating_s += calibrations[-1]
                for atk in (None, attack):
                    if log is not None:
                        log.step_id = len(unit.op_ms)
                    t0 = time.perf_counter()
                    rec = W.training.evaluate(prep.bundle, prep.data,
                                              W.channel.ChannelConfig(kind, snr), atk,
                                              seed=EVAL_SEED,
                                              batch_size=prep.cfg.eval_plan.batch_size)
                    unit.op_ms.append((time.perf_counter() - t0) * 1e3)
                    if log is not None:
                        log.step_id = -1
                    unit.attempted += 1
                    unit.samples += rec.n
                    if not _finite_record(rec):
                        unit.failed += 1
                        unit.problems.append(f"non-finite eval cell: {rec}")
                    h.update(rec.csv_row().encode())

    t0 = time.perf_counter()
    reports = W.ot.run_theory_suite(n_ball_samples=100, seed=seed)
    # the lemma-1 sandwich, as `wasecom check-theory` runs it
    pair = W.ot.DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([0.5, 0.5]))
    family = [lambda x: float(x[0]), lambda x: 0.5 * float(x[0]) + 0.1, lambda x: -float(x[0])]
    reports.append(W.ot.check_lemma1(pair, family, member=0, rho=0.3, lam=4.0,
                                     grid=W.ot.grid_1d(-1.5, 1.5, 301), lipschitz=1.0,
                                     rng=np.random.default_rng(seed)))
    unit.fixed_s["theory_suite_s"] = time.perf_counter() - t0
    for rep in reports:
        unit.attempted += 1
        if not rep.passed:
            unit.failed += 1
            unit.problems.append(f"theory check failed: {rep.row()}")
        h.update(rep.row().encode())

    t0 = time.perf_counter()
    results = W.gradcheck.random_graph_suite(n_graphs=50, seed=seed)
    unit.fixed_s["gradcheck_s"] = time.perf_counter() - t0
    for res in results:
        unit.attempted += 1
        if not res.ok:
            unit.failed += 1
            unit.problems.append(f"gradcheck failed: {res}")
        h.update(f"{res.name},{res.max_abs_err!r},{res.max_rel_err!r}".encode())
    unit.seconds = time.perf_counter() - t_pass - calibrating_s
    unit.digest = h.hexdigest()
    return unit


def run_unit(kind: str, preps: list[Prepared], seed: int, log=None, calibrations=None) -> Unit:
    """One work unit.  A training episode cannot be interrupted between steps
    without timing the interruption, so `calibrations` gets one time before it;
    an audit pass, which lasts several times longer, calibrates inside."""
    if kind == "train":
        if calibrations is not None:
            calibrations.append(calibration_s())
        return train_episode(preps[0], log)
    return audit_pass(preps, seed, log, calibrations)


# ------------------------------------------------------------------ the modes
@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    details: dict


def audit_setup_checks(preps: list[Prepared]) -> Unit:
    """Each checkpoint round trip is one operation: the loaded bundle must have
    the trained parameters and evaluate to the same record, float for float."""
    unit = Unit(attempted=len(preps))
    cfg = W.channel.ChannelConfig(W.channel.ChannelKind.AWGN, 10.0)
    for prep in preps:
        task = prep.arm.base["task"]
        before = W.training.evaluate(prep.trained, prep.data, cfg, None, seed=EVAL_SEED)
        after = W.training.evaluate(prep.bundle, prep.data, cfg, None, seed=EVAL_SEED)
        if prep.bundle.param_bytes() != prep.trained.param_bytes() or after != before:
            unit.failed += 1
            unit.problems.append(f"{task}: checkpoint round trip changed the model: "
                                 f"{before} vs {after}")
    return unit


def timed_run(name: str, seed: int, seconds: float) -> Outcome:
    kind, best_of = WORKLOADS[name].kind, WORKLOADS[name].best_of
    setup_times, digests = [], []

    def timed_set_up():
        gc.collect()
        probe_s = import_probe_s()
        t0 = time.perf_counter()
        preps = set_up(name, seed, trace=0)
        setup_times.append(probe_s + time.perf_counter() - t0)
        if kind == "audit":
            digests.append(_digest(*(p.trained for p in preps)))
        return preps

    preps = timed_set_up()
    checks = audit_setup_checks(preps) if kind == "audit" else Unit()
    # The other set-ups run between the first units, so that they sample the
    # machine at different moments; they are not measured time.
    units, calibrations = [], []   # calibration times of each unit
    t_start = time.perf_counter()
    while not units or sum(u.seconds for u in units) < seconds:
        gc.collect()   # every unit starts from the same heap
        calibrations.append([])
        unit = run_unit(kind, preps, seed, calibrations=calibrations[-1])
        if units:
            unit.bundle = None   # every episode ends with the first one's parameters
        units.append(unit)
        if len(setup_times) < SETUP_REPEATS:
            timed_set_up()
    while len(setup_times) < SETUP_REPEATS:
        timed_set_up()
    window_s = time.perf_counter() - t_start
    if len(set(digests)) > 1:
        checks.problems.append(f"set-up training is not deterministic: {sorted(set(digests))}")

    op_ms = [x for u in units for x in u.op_ms]
    attempted = checks.attempted + sum(u.attempted for u in units)
    failed = checks.failed + sum(u.failed for u in units)
    problems = checks.problems + [p for u in units for p in u.problems]
    unit_digests = sorted({u.digest for u in units})
    if len(unit_digests) != 1:
        problems.append(f"repeated work units differ: {unit_digests}")

    # Episodes (and audit passes) repeat the same operations bit for bit, so
    # each operation's fastest repeat is its time with the least interference
    # from the rest of the machine; the timing metrics are taken over those,
    # within the workload's first `best_of` units.  A neighbour can slow the
    # core for longer than a whole run, so every time is then scaled by the
    # fastest calibration of the same units to the reference machine speed.
    same = [u for u in units[:best_of] if len(u.op_ms) == len(units[0].op_ms)]
    best_ms = np.min([u.op_ms for u in same], axis=0)
    best_unit_s = best_ms.sum() / 1e3 + sum(min(u.fixed_s[k] for u in same)
                                            for k in units[0].fixed_s)
    best_calibration_s = min(c for cal in calibrations[:best_of] for c in cal)
    scale = REFERENCE_CALIBRATION_S / best_calibration_s
    unscaled = {
        "setup_s": min(setup_times),
        "op_ms_p50": float(np.median(best_ms)),
        "op_ms_p90": float(np.percentile(best_ms, 90)),
        "samples_per_s": units[0].samples / best_unit_s,
    }
    metrics = {k: v / scale if k == "samples_per_s" else v * scale for k, v in unscaled.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {"unscaled": unscaled, "best_calibration_s": best_calibration_s, "scale": scale,
               "calibrations_s": calibrations,
               "setup_repeats_s": setup_times, "setup_median_s": statistics.median(setup_times),
               "window_s": window_s, "units": len(units), "units_in_best": len(same),
               "ops_per_unit": len(best_ms), "ops": len(op_ms),
               "unit_digest": unit_digests[0],
               "raw_op_ms_p50": float(np.median(op_ms)),
               "raw_op_ms_p95": float(np.percentile(op_ms, 95)),
               "raw_samples_per_s": sum(u.samples for u in units) / sum(u.seconds for u in units)}
    details["param_sha256"] = _param_digest(kind, preps, units[0])
    if kind == "train":
        prep = preps[0]
        details["steps_per_episode"] = len(units[0].op_ms)
        bundle = units[0].bundle
        if bundle is not None:
            rec = W.training.evaluate(bundle, prep.data, prep.cfg.train.channel, None,
                                      seed=EVAL_SEED)
            key = "eval_psnr_db" if prep.arm.base["task"] == "image" else "eval_bleu"
            details[key] = rec.psnr_db if key == "eval_psnr_db" else rec.bleu
    else:
        details["eval_cell_ms_p50"] = float(np.median(best_ms))
        details.update({k: min(u.fixed_s[k] for u in same) for k in units[0].fixed_s})
    return Outcome(metrics, attempted, failed, problems, details)


def _param_digest(kind: str, preps: list[Prepared], unit: Unit) -> str:
    """sha256 of the trained parameters: the episode's, or audit's two bundles."""
    return unit.digest if kind == "train" else _digest(*(p.trained for p in preps))


# Per-layer counts that must repeat exactly between two traced units.
def _repeating_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if (k.startswith("tensor.") and layertrace.PER_LAYER[k] == "count")
            or k == "perturb.grad_evals_per_step"}


def traced_run(name: str, seed: int, seconds: float) -> Outcome:
    """Alternate untraced and traced units for `seconds` (at least two pairs).

    The per-layer metrics come from the fastest traced unit; the overhead is
    the fastest traced unit over the fastest untraced one.  Every unit must
    end with the same digest and every traced unit with the same counts.
    """
    kind = WORKLOADS[name].kind
    setup_log = layertrace.SpanLog()
    with layertrace.Tracer(setup_log) as tracer:
        preps = set_up(name, seed, trace=1)
    families = tracer.families
    units = [audit_setup_checks(preps) if kind == "audit" else Unit()]
    plain_s, counts, best = [], [], None
    t_start = time.perf_counter()
    while len(counts) < 2 or time.perf_counter() - t_start < seconds:
        gc.collect()
        units.append(run_unit(kind, preps, seed))
        plain_s.append(units[-1].seconds)
        gc.collect()
        log = layertrace.SpanLog()
        with layertrace.Tracer(log):
            unit = run_unit(kind, preps, seed, log)
        units.append(unit)
        metrics = layer_metrics_of(kind, log, setup_log, families, unit)
        counts.append(_repeating_counts(metrics))
        if best is None or unit.seconds < best[0].seconds:
            best = (unit, log, metrics)
    unit, log, metrics = best
    metrics["trace.overhead_ratio"] = unit.seconds / min(plain_s)

    problems = [p for u in units for p in u.problems]
    digests = sorted({u.digest for u in units[1:]})
    if len(digests) != 1:
        problems.append(f"traced and untraced units differ: {digests}")
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced units")
    OUT.mkdir(parents=True, exist_ok=True)
    log.write_csv(OUT / f"{name}-seed{seed}-spans.csv")
    setup_log.write_csv(OUT / f"{name}-seed{seed}-setup-spans.csv")
    details = {"unit_digest": digests[0], "param_sha256": _param_digest(kind, preps, unit),
               "steps": len(unit.op_ms), "pairs": len(plain_s),
               "untraced_s_min": min(plain_s), "traced_s_min": unit.seconds, "spans": len(log)}
    return Outcome(metrics, sum(u.attempted for u in units), sum(u.failed for u in units),
                   problems, details)


def layer_metrics_of(kind: str, log, setup_log, families, unit: Unit) -> dict:
    n_ops = len(unit.op_ms)
    return layertrace.layer_metrics(log, setup_log, families, n_steps=n_ops,
                                    n_cells=n_ops if kind == "audit" else 0,
                                    n_passes=int(kind == "audit"))


# --------------------------------------------------------------------- output
def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas_version(), "blas_threads": BLAS_THREADS,
            "git_rev": _git_rev(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _import_program()
    if args.trace:
        out = traced_run(args.workload, args.seed, args.seconds)
        metric_units = layertrace.PER_LAYER
    else:
        out = timed_run(args.workload, args.seed, args.seconds)
        metric_units = END_TO_END
    correct = out.failed == 0 and not out.problems
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": float(out.metrics[k]), "unit": u}
                          for k, u in metric_units.items()}}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "error_rate": out.failed / out.attempted,
              "problems": out.problems, "details": out.details,
              "environment": environment(args.seed)}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{out.attempted} operations, error_rate={out.failed / out.attempted:g}")
    for key, val in out.details.items():
        if not isinstance(val, (list, dict)):
            print(f"  {key} = {val}")
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
