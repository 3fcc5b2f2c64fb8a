"""Command-line surface: train, eval, sweep, check-theory, gradcheck.

Commands write only into their output directory, and train, eval and sweep
put a canonical config snapshot and a version string there.  Exit codes: 0
success, 1 runtime failure, 2 invalid configuration or usage.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import logging
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, build_dataset, model_dims,
                     parse_config, read_config_json, serialize_config)
from .gradcheck import random_graph_suite
from .metrics import MetricsRecord
from .models import load_checkpoint, save_checkpoint
from .ot import bundled_instances, check_lemma1, grid_1d, run_theory_suite
from .perturb import PerturbMethod, PerturbSpec
from .training import TRAIN_LOG_HEADER, evaluate, train

log = logging.getLogger("wasecom")


def _setup_logging():
    level = os.environ.get("WASECOM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _version_string() -> str:
    rev = "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=5)
        rev = out.stdout.strip() or "unknown"
    except Exception:
        pass
    return f"wasecom {__version__} ({rev})"


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_at_least(low: int, text: str) -> int:
    """An integer of at least `low`: with `low` bound, an argparse type."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


# a count of at least 1, so that a check cannot pass on no work, and a numpy seed
_positive_int = functools.partial(_int_at_least, 1)
_nonnegative_int = functools.partial(_int_at_least, 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wasecom",
        description="Robust semantic-communication training and evaluation.")
    p.add_argument("--version", action="version", version=_version_string())
    sub = p.add_subparsers(dest="command")

    # A train/eval/sweep flag's dest is the config key it sets: "section.key",
    # or a top-level key.  _load_config writes it over the config file.
    def common(sp, needs_ckpt=False):
        sp.add_argument("--config", help="path to a JSON experiment config")
        sp.add_argument("--out", dest="out_dir", help="output directory (default: config out_dir)")
        sp.add_argument("--seed", type=int, help="the run seed")
        if needs_ckpt:
            sp.add_argument("--ckpt", help="checkpoint to evaluate")

    tr = sub.add_parser("train", help="run the configured training mode")
    common(tr)
    tr.add_argument("--snr", dest="channel.snr_db", type=float, help="channel SNR in dB")
    tr.add_argument("--rho", dest="robustness.rho", type=float, help="source-side radius")
    tr.add_argument("--mu", dest="robustness.mu", type=float, help="signal-side radius")

    ev = sub.add_parser("eval", help="one evaluation cell on a checkpoint")
    common(ev, needs_ckpt=True)
    ev.add_argument("--snr", dest="channel.snr_db", type=float, help="channel SNR in dB")
    ev.add_argument("--attack-eps", dest="eval.attack_eps", type=float, nargs=1, default=[0.0],
                    help="FGSM radius (0 = clean)")

    sw = sub.add_parser("sweep", help="SNR x attack grid to CSV")
    common(sw, needs_ckpt=True)
    sw.add_argument("--snr", dest="eval.snr_db", type=_floats, help="comma list, e.g. 0,10,20")
    sw.add_argument("--attack-eps", dest="eval.attack_eps", type=_floats,
                    help="comma list, e.g. 0,0.1")
    sw.add_argument("--workers", type=_positive_int, default=1,
                    help="process count for sweep cells")

    th = sub.add_parser("check-theory", help="duality and bound checks")
    th.add_argument("--out", help="output directory")
    th.add_argument("--samples", type=_positive_int, default=100,
                    help="random in-ball distributions per instance")
    th.add_argument("--seed", type=_nonnegative_int, default=0)

    gc = sub.add_parser("gradcheck", help="finite-difference autodiff audit")
    gc.add_argument("--out", help="output directory")
    gc.add_argument("--graphs", type=_positive_int, default=50)
    gc.add_argument("--seed", type=_nonnegative_int, default=0)
    return p


# ----------------------------------------------------------------- plumbing
# the dests of train/eval/sweep that are not config keys
_NOT_CONFIG = {"command", "config", "ckpt", "workers"}


def _load_config(args) -> ExperimentConfig:
    """The config file's JSON object (or {}) with each given flag written over
    the key its dest names, parsed once: flags and file pass the same checks."""
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw = read_config_json(path)
    for dest, value in vars(args).items():
        if value is None or dest in _NOT_CONFIG:
            continue
        *section, key = dest.split(".")
        doc = raw.setdefault(section[0], {}) if section else raw
        if isinstance(doc, dict):  # parse_config rejects a section that is not an object
            doc[key] = value
    return parse_config(raw)


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(serialize_config(cfg))
    (out / "version.txt").write_text(_version_string() + "\n")
    return out


def _write_csv(path: Path, header: str, rows: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n")


def _attack_for(eps: float, fraction: float) -> PerturbSpec:
    """FGSM at radius eps: its signed step of eps per coordinate is at least eps
    in L2, so the projection puts every row with a nonzero gradient on the sphere."""
    return PerturbSpec(PerturbMethod.FGSM, radius=eps, epsilon_inf=eps, sample_fraction=fraction)


def _sweep_cell(cfg: ExperimentConfig, bundle, data, snr: float, eps: float) -> str:
    """The metrics row of one (snr, eps) evaluation cell of a bundle on a dataset;
    module-level, so that a process pool can pickle a partial of it."""
    channel = dataclasses.replace(cfg.train.channel, snr_db=snr)
    attack = _attack_for(eps, cfg.eval_plan.attack_fraction)
    rec = evaluate(bundle, data, channel, attack=attack,
                   seed=cfg.train.seed, batch_size=cfg.eval_plan.batch_size)
    return rec.csv_row()


def _check_model_sizes(cfg: ExperimentConfig, bundle):
    """A `model` size the config gives must be the checkpoint's; `embed_dim`
    has a default, so a given value cannot be told from it and is not checked."""
    for key in ("semantic_dim", "signal_dim", "hidden_dim"):
        given, loaded = getattr(cfg.model, key), getattr(bundle.dims, key)
        if given is not None and given != loaded:
            raise ConfigError(f"model: {key} is {given}, but the checkpoint's is {loaded}")


def _run_inputs(args):
    """The config, the prepared output directory, the dataset and the bundle:
    loaded from --ckpt, or else trained and saved with its step log (and step
    checkpoints, which the trainer writes only when checkpoint_every is set)."""
    cfg = _load_config(args)
    ckpt = getattr(args, "ckpt", None)  # train has no --ckpt
    if ckpt:  # loaded and checked before anything is written
        bundle = load_checkpoint(ckpt)
        _check_model_sizes(cfg, bundle)
        return cfg, _prepare_out(cfg), build_dataset(cfg), bundle
    out = _prepare_out(cfg)
    data = build_dataset(cfg)
    log.info("training mode=%s on %d samples", cfg.train.mode.value, len(data.train))
    bundle, train_log = train(cfg.train, data, dims=model_dims(cfg, data), checkpoint_dir=out)
    save_checkpoint(bundle, out / "model.ckpt")
    _write_csv(out / "train_log.csv", TRAIN_LOG_HEADER, [r.csv_row() for r in train_log.records])
    return cfg, out, data, bundle


# -------------------------------------------------------------- subcommands
def _cmd_train(args) -> int:
    cfg, out, data, bundle = _run_inputs(args)
    row = _sweep_cell(cfg, bundle, data, cfg.train.channel.snr_db, 0.0)
    _write_csv(out / "metrics.csv", MetricsRecord.CSV_HEADER, [row])
    print(row)
    return 0


def _cmd_eval(args) -> int:
    if not args.ckpt:
        raise ConfigError("eval requires --ckpt")
    cfg, out, data, bundle = _run_inputs(args)
    # --attack-eps always sets the plan's one radius (default 0, the clean cell)
    row = _sweep_cell(cfg, bundle, data, cfg.train.channel.snr_db, *cfg.eval_plan.attack_eps)
    _write_csv(out / "metrics.csv", MetricsRecord.CSV_HEADER, [row])
    print(row)
    return 0


def _cmd_sweep(args) -> int:
    cfg, out, data, bundle = _run_inputs(args)
    # every cell, in this process or in a worker, runs on the inputs built above
    cell = functools.partial(_sweep_cell, cfg, bundle, data)
    snrs, radii = zip(*itertools.product(cfg.eval_plan.snr_db, cfg.eval_plan.attack_eps))
    if args.workers > 1:
        # one chunk of cells per worker, so the inputs are pickled once per worker, not per cell
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(cell, snrs, radii, chunksize=-(-len(snrs) // args.workers)))
    else:
        rows = list(map(cell, snrs, radii))
    _write_csv(out / "sweep.csv", MetricsRecord.CSV_HEADER, rows)
    print(f"{len(rows)} cells -> {out / 'sweep.csv'}")
    return 0


def _cmd_check_theory(args) -> int:
    reports = run_theory_suite(n_ball_samples=args.samples, seed=args.seed)
    family = [lambda x: float(x[0]), lambda x: 0.5 * float(x[0]) + 0.1,
              lambda x: -float(x[0])]
    from .ot import DiscreteDistribution
    pair = DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([0.5, 0.5]))
    reports.append(check_lemma1(pair, family, member=0, rho=0.3, lam=4.0,
                                grid=grid_1d(-1.5, 1.5, 301), lipschitz=1.0,
                                rng=np.random.default_rng(args.seed)))
    for rep in reports:
        print(rep.row())
    if args.out:
        _write_csv(Path(args.out) / "theory.csv", "instance,primal,dual,gap,rel_gap,assertions",
                   [r.row() for r in reports])
    failures = [r for r in reports if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(reports)} checks FAILED", file=sys.stderr)
        return 1
    print(f"all {len(reports)} checks passed ({len(bundled_instances())} instances)")
    return 0


def _cmd_gradcheck(args) -> int:
    results = random_graph_suite(n_graphs=args.graphs, seed=args.seed)
    bad = [r for r in results if not r.ok]
    for r in results:
        log.info("%s: rel=%.3g abs=%.3g %s", r.name, r.max_rel_err, r.max_abs_err,
                 "ok" if r.ok else "FAIL")
    if args.out:
        _write_csv(Path(args.out) / "gradcheck.csv", "name,n_params,max_abs_err,max_rel_err,ok",
                   [f"{r.name},{r.n_params},{r.max_abs_err!r},{r.max_rel_err!r},{r.ok}"
                    for r in results])
    if bad:
        for r in bad:
            print(f"FAIL {r.name}: rel={r.max_rel_err:.3g} abs={r.max_abs_err:.3g}",
                  file=sys.stderr)
        return 1
    print(f"{len(results)} graphs checked, all gradients agree")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "check-theory": _cmd_check_theory,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure -> diagnostic, exit 1
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
