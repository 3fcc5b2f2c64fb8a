"""Span tracing of wasecom's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper on every
binding a caller can look it up through: the defining module, every wasecom
module that imported it by name (``training`` imports ``fgsm``, ``pgd``,
``ssim`` and ``bleu``; ``objectives`` imports ``fgsm``, ``pgd``, ``transmit``
and ``apply_realization``), and class attributes for methods.  ``Tensor``'s
operators resolve ``wasecom.tensor.add`` and friends at call time, so the
module binding covers them.  `uninstall()` puts every original back.

A span records its name, start, end, parent span and the step id the
benchmark set when it opened.  Spans stay in memory in parallel lists and are
written out once, at the end of a run.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

TENSOR_OPS = ("add", "sub", "mul", "scale", "matmul", "relu", "tanh", "exp", "log",
              "square", "power", "tsum", "tmean", "reshape", "gather_rows",
              "select_columns", "logsumexp")

# (module, attribute, family).  A family groups spans that the per-layer
# metrics report together; nested spans of one family count once.
TRACED = (
    [("wasecom.tensor", op, "tensor.op") for op in TENSOR_OPS]
    + [
        ("wasecom.tensor", "Tensor.backward", "tensor.backward"),
        ("wasecom.models", "semantic_encode", "models.semantic_encode"),
        ("wasecom.models", "semantic_encode_from_embeddings", "models.semantic_encode"),
        ("wasecom.models", "channel_encode", "models.channel_encode"),
        ("wasecom.models", "channel_decode", "models.channel_decode"),
        ("wasecom.models", "semantic_decode", "models.semantic_decode"),
        ("wasecom.models", "per_sample_reconstruction_loss", "models.loss"),
        ("wasecom.models", "reconstruction_loss", "models.loss"),
        ("wasecom.models", "per_sample_channel_loss", "models.loss"),
        ("wasecom.models", "ModelBundle.frozen", "models.frozen"),
        ("wasecom.models", "save_checkpoint", "models.checkpoint_save"),
        ("wasecom.models", "load_checkpoint", "models.checkpoint_load"),
        ("wasecom.channel", "transmit", "channel"),
        ("wasecom.channel", "draw_realization", "channel"),
        ("wasecom.channel", "apply_realization", "channel"),
        ("wasecom.perturb", "fgsm", "perturb.attack"),
        ("wasecom.perturb", "pgd", "perturb.attack"),
        ("wasecom.perturb", "_value_and_grad", "perturb.grad_eval"),
        ("wasecom.perturb", "gaussian_samples", "perturb.gaussian_samples"),
        ("wasecom.perturb", "attacked_row_mask", "perturb.row_mask"),
        ("wasecom.objectives", "clean_inner_loss", "objectives"),
        ("wasecom.objectives", "clean_outer_loss", "objectives"),
        ("wasecom.objectives", "inner_dual_loss", "objectives"),
        ("wasecom.objectives", "outer_dual_loss", "objectives"),
        ("wasecom.objectives", "penalized_sup_hard", "objectives"),
        ("wasecom.objectives", "lse_combine", "objectives"),
        ("wasecom.objectives", "update_duals", "objectives"),
        ("wasecom.optim", "Adam.step", "optim.step"),
        ("wasecom.optim", "Sgd.step", "optim.step"),
        ("wasecom.optim", "Adam.zero_grad", "optim.zero_grad"),
        ("wasecom.optim", "Sgd.zero_grad", "optim.zero_grad"),
        ("wasecom.training", "train", "training.train"),
        ("wasecom.training", "train_wasecom", "training.loop"),
        ("wasecom.training", "train_erm", "training.loop"),
        ("wasecom.training", "evaluate", "training.evaluate"),
        ("wasecom.metrics", "ssim", "metrics.ssim"),
        ("wasecom.metrics", "bleu", "metrics.bleu"),
        ("wasecom.metrics", "psnr_from_mse", "metrics.psnr"),
        ("wasecom.ot", "worst_case_risk", "ot.worst_case_risk"),
        ("wasecom.ot", "dual_value", "ot.dual_value"),
        ("wasecom.ot", "sample_plans_in_ball", "ot.sample_plans_in_ball"),
        ("wasecom.ot", "check_lemma1", "ot.check_lemma1"),
        ("wasecom.ot", "run_theory_suite", "ot.run_theory_suite"),
        ("wasecom.gradcheck", "check_case", "gradcheck.check_case"),
        ("wasecom.gradcheck", "numeric_gradients", "gradcheck.numeric_gradients"),
        ("wasecom.gradcheck", "random_graph_suite", "gradcheck.random_graph_suite"),
        ("wasecom.data", "generate_synthetic_images", "data.generate"),
        ("wasecom.data", "generate_synthetic_text", "data.generate"),
        ("wasecom.config", "parse_config", "config.parse"),
    ]
)


class SpanLog:
    """Spans in parallel lists; parent is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.step_id = -1            # set by the caller at step boundaries
        self.tensors_created: dict[int, int] = defaultdict(int)   # by step id
        self.attacks: list[tuple[int, float, float, int]] = []    # step, budget, moved, rows
        self.duals: list[tuple[float, float, float]] = []         # lam in, lam out, gamma out
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def __len__(self):
        return len(self.name)

    def durations(self) -> np.ndarray:
        return np.asarray(self.end) - np.asarray(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time covered by its direct children.

        Spans come from one thread and nest, so direct children never overlap
        and their durations add up to the covered time.
        """
        dur = self.durations()
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def write_csv(self, path):
        t0 = self.start[0] if self.start else 0.0
        rows = ["index,name,start_ms,end_ms,parent,step"]
        rows += [f"{i},{n},{(s - t0) * 1e3:.4f},{(e - t0) * 1e3:.4f},{p},{k}"
                 for i, (n, s, e, p, k) in enumerate(zip(self.name, self.start, self.end,
                                                         self.parent, self.step))]
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def _observe_attack(log: SpanLog, args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    delta = (np.asarray(result) - x).reshape(len(x), -1)
    moved = int(np.count_nonzero(np.any(delta != 0, axis=1)))
    radius = float(spec.radius)
    budget = 0.0
    if np.isfinite(radius) and radius > 0:
        budget = float(np.mean(np.sum(delta * delta, axis=1)) / radius**2)
    log.attacks.append((log.step_id, budget, moved, len(x)))


def _observe_duals(log: SpanLog, args, kwargs, result):
    rob = args[0] if args else kwargs["rob"]
    log.duals.append((float(rob.lam), float(result.lam), float(result.gamma)))


OBSERVERS = {"fgsm": _observe_attack, "pgd": _observe_attack,
             "update_duals": _observe_duals}


class Tracer:
    """Installs span-recording wrappers for `TRACED` into a SpanLog."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.families: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        log = self.log

        def wrapper(*args, **kwargs):
            idx = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if observe is not None:
                observe(log, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        owners = {mod_name: importlib.import_module(mod_name) for mod_name, _, _ in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wasecom" or n.startswith("wasecom."))]
        for mod_name, dotted, family in TRACED:
            owner, attr = _resolve(owners[mod_name], dotted)
            original = getattr(owner, attr)
            span_name = f"{mod_name.split('.')[-1]}.{dotted}"
            self.families[span_name] = family
            wrapper = self.wrap(span_name, original, OBSERVERS.get(attr))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._install_tensor_counter()

    def _install_tensor_counter(self):
        tensor_cls = sys.modules["wasecom.tensor"].Tensor
        original = tensor_cls.__init__
        created = self.log.tensors_created
        log = self.log

        def counting_init(self, *args, **kwargs):
            created[log.step_id] += 1
            original(self, *args, **kwargs)

        self._set(tensor_cls, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ------------------------------------------------------------ per-layer metrics
MODEL_STAGES = ("semantic_encode", "channel_encode", "channel_decode", "semantic_decode", "loss")
OT_FUNCTIONS = ("worst_case_risk", "dual_value", "sample_plans_in_ball", "check_lemma1")

# name -> unit, in the order they are reported.  A "step" is one training step
# on the train workloads and one evaluate() cell on `audit`; a "pass" is one
# audit pass; setup metrics cover the traced run's one set-up.
PER_LAYER = dict(
    [("tensor.ops_per_step", "count")]
    + [(f"tensor.op.{op}.calls_per_step", "count") for op in TENSOR_OPS]
    + [("tensor.tensors_created_per_step", "count"),
       ("tensor.op_self_ms_per_step", "ms"),
       ("tensor.backward.calls_per_step", "count"),
       ("tensor.backward.ms_per_step", "ms")]
    + [(f"models.{stage}.{kind}_per_step", unit) for stage in MODEL_STAGES
       for kind, unit in (("calls", "count"), ("ms", "ms"))]
    + [("models.frozen.calls_per_step", "count"),
       ("models.checkpoint_save_ms", "ms"),
       ("models.checkpoint_load_ms", "ms"),
       ("perturb.attack.calls_per_step", "count"),
       ("perturb.attack.ms_per_step", "ms"),
       ("perturb.grad_evals_per_step", "count"),
       ("perturb.budget_used", "ratio"),
       ("perturb.rows_moved_share", "ratio"),
       ("perturb.gaussian_samples.ms_per_step", "ms"),
       ("objectives.self_ms_per_step", "ms"),
       ("objectives.lse_combine.ms_per_step", "ms"),
       ("objectives.update_duals.calls_per_step", "count"),
       ("objectives.lambda_final", "value"),
       ("objectives.gamma_final", "value"),
       ("objectives.lambda_up_share", "ratio"),
       ("optim.step.ms_per_step", "ms"),
       ("optim.zero_grad.ms_per_step", "ms"),
       ("channel.transmit.calls_per_step", "count"),
       ("channel.ms_per_step", "ms"),
       ("training.step.ms_per_step", "ms"),
       ("training.children_ms_per_step", "ms"),
       ("training.loop_self_ms_per_step", "ms"),
       ("metrics.ssim.ms_per_cell", "ms"),
       ("metrics.bleu.ms_per_cell", "ms")]
    + [(f"ot.{fn}.{kind}", unit) for fn in OT_FUNCTIONS
       for kind, unit in (("calls", "count"), ("ms", "ms"))]
    + [("ot.run_theory_suite.ms", "ms"),
       ("gradcheck.check_case.calls", "count"),
       ("gradcheck.numeric_gradients.ms", "ms"),
       ("gradcheck.random_graph_suite.ms", "ms"),
       ("data.generate.ms", "ms"),
       ("config.parse.ms", "ms"),
       ("trace.overhead_ratio", "ratio")]
)


class SpanTotals:
    """Call counts and times of a SpanLog, by span name and by family.

    Family totals count only a family's outermost spans, so a family member
    that calls another member (text `semantic_encode` calling
    `semantic_encode_from_embeddings`) is one call and its time is not added
    twice.  `in_step` restricts every total to spans opened inside a step.
    """

    def __init__(self, log: SpanLog, families: dict, in_step: bool):
        dur = log.durations()
        own = log.self_times()
        fam = [families[n] for n in log.name]
        bits: dict[str, int] = {}
        masks = [0] * len(log)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.family_calls = defaultdict(int)
        self.family_seconds = defaultdict(float)
        self.family_self_seconds = defaultdict(float)
        for i, (name, f, p, step) in enumerate(zip(log.name, fam, log.parent, log.step)):
            bit = bits.setdefault(f, 1 << len(bits))
            masks[i] = (masks[p] | bits[fam[p]]) if p >= 0 else 0
            if in_step and step < 0:
                continue
            self.calls[name] += 1
            self.seconds[name] += dur[i]
            self.self_seconds[name] += own[i]
            self.family_self_seconds[f] += own[i]
            if not masks[i] & bit:
                self.family_calls[f] += 1
                self.family_seconds[f] += dur[i]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(unit_log: SpanLog, setup_log: SpanLog, families: dict, *,
                  n_steps: int, n_cells: int, n_passes: int) -> dict:
    """Every PER_LAYER metric but the tracing overhead, from one traced work
    unit and one traced set-up."""
    step = SpanTotals(unit_log, families, in_step=True)
    unit = SpanTotals(unit_log, families, in_step=False)
    setup = SpanTotals(setup_log, families, in_step=False)
    ms = 1e3
    out = {"tensor.ops_per_step": _per(step.family_calls["tensor.op"], n_steps)}
    for op in TENSOR_OPS:
        out[f"tensor.op.{op}.calls_per_step"] = _per(step.calls[f"tensor.{op}"], n_steps)
    created = sum(v for k, v in unit_log.tensors_created.items() if k >= 0)
    out["tensor.tensors_created_per_step"] = _per(created, n_steps)
    out["tensor.op_self_ms_per_step"] = _per(step.family_self_seconds["tensor.op"] * ms, n_steps)
    out["tensor.backward.calls_per_step"] = _per(step.family_calls["tensor.backward"], n_steps)
    out["tensor.backward.ms_per_step"] = _per(step.family_seconds["tensor.backward"] * ms, n_steps)
    for stage in MODEL_STAGES:
        out[f"models.{stage}.calls_per_step"] = _per(step.family_calls[f"models.{stage}"], n_steps)
        out[f"models.{stage}.ms_per_step"] = _per(step.family_seconds[f"models.{stage}"] * ms,
                                                   n_steps)
    out["models.frozen.calls_per_step"] = _per(step.family_calls["models.frozen"], n_steps)
    for kind in ("save", "load"):
        fam = f"models.checkpoint_{kind}"
        out[f"models.checkpoint_{kind}_ms"] = _per(setup.family_seconds[fam] * ms,
                                                   setup.family_calls[fam])
    out["perturb.attack.calls_per_step"] = _per(step.family_calls["perturb.attack"], n_steps)
    out["perturb.attack.ms_per_step"] = _per(step.family_seconds["perturb.attack"] * ms, n_steps)
    out["perturb.grad_evals_per_step"] = _per(step.family_calls["perturb.grad_eval"], n_steps)
    attacks = unit_log.attacks
    out["perturb.budget_used"] = _per(sum(a[1] for a in attacks), len(attacks))
    out["perturb.rows_moved_share"] = _per(sum(a[2] for a in attacks), sum(a[3] for a in attacks))
    out["perturb.gaussian_samples.ms_per_step"] = _per(
        step.family_seconds["perturb.gaussian_samples"] * ms, n_steps)
    out["objectives.self_ms_per_step"] = _per(step.family_self_seconds["objectives"] * ms, n_steps)
    out["objectives.lse_combine.ms_per_step"] = _per(step.seconds["objectives.lse_combine"] * ms,
                                                     n_steps)
    duals = unit_log.duals
    out["objectives.update_duals.calls_per_step"] = _per(len(duals), n_steps)
    out["objectives.lambda_final"] = duals[-1][1] if duals else 0.0
    out["objectives.gamma_final"] = duals[-1][2] if duals else 0.0
    out["objectives.lambda_up_share"] = _per(sum(d[1] > d[0] for d in duals), len(duals))
    out["optim.step.ms_per_step"] = _per(step.family_seconds["optim.step"] * ms, n_steps)
    out["optim.zero_grad.ms_per_step"] = _per(step.family_seconds["optim.zero_grad"] * ms, n_steps)
    out["channel.transmit.calls_per_step"] = _per(step.calls["channel.transmit"], n_steps)
    out["channel.ms_per_step"] = _per(step.family_seconds["channel"] * ms, n_steps)
    # The container of a step: the training loop, or evaluate() for a cell.
    container = "training.loop" if unit.family_calls["training.loop"] else "training.evaluate"
    step_s, self_s = unit.family_seconds[container], unit.family_self_seconds[container]
    out["training.step.ms_per_step"] = _per(step_s * ms, n_steps)
    out["training.children_ms_per_step"] = _per((step_s - self_s) * ms, n_steps)
    out["training.loop_self_ms_per_step"] = _per(self_s * ms, n_steps)
    out["metrics.ssim.ms_per_cell"] = _per(unit.family_seconds["metrics.ssim"] * ms, n_cells)
    out["metrics.bleu.ms_per_cell"] = _per(unit.family_seconds["metrics.bleu"] * ms, n_cells)
    for fn in OT_FUNCTIONS:
        out[f"ot.{fn}.calls"] = _per(unit.calls[f"ot.{fn}"], n_passes)
        out[f"ot.{fn}.ms"] = _per(unit.seconds[f"ot.{fn}"] * ms, n_passes)
    out["ot.run_theory_suite.ms"] = _per(unit.seconds["ot.run_theory_suite"] * ms, n_passes)
    out["gradcheck.check_case.calls"] = _per(unit.calls["gradcheck.check_case"], n_passes)
    out["gradcheck.numeric_gradients.ms"] = _per(
        unit.seconds["gradcheck.numeric_gradients"] * ms, n_passes)
    out["gradcheck.random_graph_suite.ms"] = _per(
        unit.seconds["gradcheck.random_graph_suite"] * ms, n_passes)
    out["data.generate.ms"] = setup.family_seconds["data.generate"] * ms
    out["config.parse.ms"] = setup.family_seconds["config.parse"] * ms
    return out
