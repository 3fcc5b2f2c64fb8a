"""Command-line surface: train, eval, sweep, check-theory, gradcheck.

Every run writes a canonical config snapshot and a version string into its
output directory and never writes anywhere else.  Exit codes: 0 success,
1 runtime failure, 2 invalid configuration or usage.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelConfig
from .config import (ConfigError, ExperimentConfig, build_dataset, model_dims,
                     parse_config, serialize_config)
from .gradcheck import random_graph_suite
from .metrics import MetricsRecord
from .models import load_checkpoint, save_checkpoint
from .ot import bundled_instances, check_lemma1, grid_1d, run_theory_suite
from .perturb import PerturbMethod, PerturbSpec
from .training import evaluate, train

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


def _finite_float(text: str) -> float:
    """An argparse type for a value that no config field checks: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _radius(text: str) -> float:
    """An argparse type for an attack radius: finite and nonnegative (0 = clean)."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _floats(text: str, item=_finite_float) -> list[float]:
    return [item(tok) for tok in text.split(",") if tok.strip() != ""]


def _radii(text: str) -> list[float]:
    return _floats(text, _radius)


def _positive_int(text: str) -> int:
    """An argparse type: a count of at least 1, so a check cannot pass on no work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wasecom",
        description="Robust semantic-communication training and evaluation.")
    p.add_argument("--version", action="version", version=_version_string())
    sub = p.add_subparsers(dest="command")

    def common(sp, needs_ckpt=False):
        sp.add_argument("--config", help="path to a JSON experiment config")
        sp.add_argument("--out", help="output directory (default: config out_dir)")
        sp.add_argument("--seed", type=int, help="override the run seed")
        if needs_ckpt:
            sp.add_argument("--ckpt", help="checkpoint to evaluate")

    tr = sub.add_parser("train", help="run the configured training mode")
    common(tr)
    tr.add_argument("--snr", type=float, help="override channel snr_db")
    tr.add_argument("--rho", type=float, help="override source-side radius")
    tr.add_argument("--mu", type=float, help="override signal-side radius")

    ev = sub.add_parser("eval", help="one evaluation cell on a checkpoint")
    common(ev, needs_ckpt=True)
    ev.add_argument("--snr", type=float, help="override channel snr_db")
    ev.add_argument("--attack-eps", type=_radius, help="FGSM radius (0 = clean)")

    sw = sub.add_parser("sweep", help="SNR x attack grid to CSV")
    common(sw, needs_ckpt=True)
    sw.add_argument("--snr", type=_floats, help="comma list, e.g. 0,10,20")
    sw.add_argument("--attack-eps", type=_radii, help="comma list, e.g. 0,0.1")
    sw.add_argument("--workers", type=_positive_int, default=1,
                    help="process count for sweep cells")

    th = sub.add_parser("check-theory", help="duality and bound checks")
    th.add_argument("--out", help="output directory")
    th.add_argument("--samples", type=_positive_int, default=100,
                    help="random in-ball distributions per instance")
    th.add_argument("--seed", type=int, default=0)

    gc = sub.add_parser("gradcheck", help="finite-difference autodiff audit")
    gc.add_argument("--out", help="output directory")
    gc.add_argument("--graphs", type=_positive_int, default=50)
    gc.add_argument("--seed", type=int, default=0)
    return p


# ----------------------------------------------------------------- plumbing
def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config(path)
    else:
        cfg = ExperimentConfig()
    try:
        return _with_overrides(cfg, args)
    except ValueError as err:  # a config field's own check, e.g. a NaN snr_db
        raise ConfigError(f"command-line override: {err}") from err


def _with_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    train_cfg = cfg.train
    if getattr(args, "seed", None) is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    if getattr(args, "snr", None) is not None and not isinstance(args.snr, list):
        train_cfg = dataclasses.replace(
            train_cfg, channel=dataclasses.replace(train_cfg.channel, snr_db=args.snr))
    rob = train_cfg.robustness
    if getattr(args, "rho", None) is not None:
        rob = dataclasses.replace(rob, rho=args.rho)
    if getattr(args, "mu", None) is not None:
        rob = dataclasses.replace(rob, mu=args.mu)
    if rob is not train_cfg.robustness:
        train_cfg = dataclasses.replace(train_cfg, robustness=rob)
    if train_cfg is not cfg.train:
        cfg = dataclasses.replace(cfg, train=train_cfg)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(serialize_config(cfg))
    (out / "version.txt").write_text(_version_string() + "\n")
    return out


def _write_metrics(path: Path, records: list[MetricsRecord]):
    rows = [MetricsRecord.CSV_HEADER] + [r.csv_row() for r in records]
    path.write_text("\n".join(rows) + "\n")


def _attack_for(eps: float, fraction: float) -> PerturbSpec | None:
    """FGSM at radius eps: its signed step of eps per coordinate is at least eps
    in L2, so the projection puts every row with a nonzero gradient on the sphere."""
    if not eps:  # None or 0: the clean cell
        return None
    return PerturbSpec(PerturbMethod.FGSM, radius=eps, epsilon_inf=eps, sample_fraction=fraction)


# -------------------------------------------------------------- subcommands
def _cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(cfg)
    data = build_dataset(cfg)
    dims = model_dims(cfg, data)
    log.info("training mode=%s on %d samples", cfg.train.mode.value, len(data.train))
    ckpt_dir = out if cfg.train.checkpoint_every > 0 else None
    bundle, train_log = train(cfg.train, data, dims=dims, checkpoint_dir=ckpt_dir)
    save_checkpoint(bundle, out / "model.ckpt")
    train_log.write_csv(out / "train_log.csv")
    rec = evaluate(bundle, data, cfg.train.channel, attack=None,
                   seed=cfg.train.seed, batch_size=cfg.eval_plan.batch_size)
    _write_metrics(out / "metrics.csv", [rec])
    print(rec.csv_row())
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    if not args.ckpt:
        raise ConfigError("eval requires --ckpt")
    out = _prepare_out(cfg)
    bundle = load_checkpoint(args.ckpt)
    data = build_dataset(cfg)
    attack = _attack_for(getattr(args, "attack_eps", None),
                         cfg.eval_plan.attack_fraction)
    rec = evaluate(bundle, data, cfg.train.channel, attack=attack,
                   seed=cfg.train.seed, batch_size=cfg.eval_plan.batch_size)
    _write_metrics(out / "metrics.csv", [rec])
    print(rec.csv_row())
    return 0


# a pool worker's (config, checkpoint bundle, dataset), set once per worker by
# _init_sweep_worker; the in-process sweep passes its own to _sweep_cell instead
_worker_inputs = None


def _init_sweep_worker(config_json: str, ckpt_path: str):
    global _worker_inputs
    cfg = parse_config(config_json)
    _worker_inputs = (cfg, load_checkpoint(ckpt_path), build_dataset(cfg))


def _sweep_cell(inputs, snr: float, eps: float) -> str:
    """One (snr, eps) evaluation of the sweep's checkpoint on its dataset;
    `inputs` is (config, checkpoint bundle, dataset)."""
    cfg, bundle, data = inputs
    channel = dataclasses.replace(cfg.train.channel, snr_db=snr)
    attack = _attack_for(eps, cfg.eval_plan.attack_fraction)
    rec = evaluate(bundle, data, channel, attack=attack,
                   seed=cfg.train.seed, batch_size=cfg.eval_plan.batch_size)
    return rec.csv_row()


def _worker_sweep_cell(cell) -> str:
    """A pool worker's cell; module-level so process pools can pickle it."""
    return _sweep_cell(_worker_inputs, *cell)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(cfg)
    snrs = args.snr if args.snr else list(cfg.eval_plan.snr_db)
    eps_list = args.attack_eps if args.attack_eps is not None else list(cfg.eval_plan.attack_eps)
    if args.ckpt:
        ckpt_path, data = args.ckpt, None
    else:
        data = build_dataset(cfg)
        bundle, _ = train(cfg.train, data, dims=model_dims(cfg, data))
        ckpt_path = str(out / "model.ckpt")
        save_checkpoint(bundle, ckpt_path)
    config_json = serialize_config(cfg)
    cells = [(snr, eps) for snr in snrs for eps in eps_list]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers, initializer=_init_sweep_worker,
                                 initargs=(config_json, ckpt_path)) as pool:
            rows = list(pool.map(_worker_sweep_cell, cells))
    else:
        inputs = (cfg, load_checkpoint(ckpt_path), build_dataset(cfg) if data is None else data)
        rows = [_sweep_cell(inputs, *cell) for cell in cells]
    (out / "sweep.csv").write_text("\n".join([MetricsRecord.CSV_HEADER] + rows) + "\n")
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        header = "instance,primal,dual,gap,rel_gap,assertions"
        (out / "theory.csv").write_text(
            "\n".join([header] + [r.row() for r in reports]) + "\n")
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows = ["name,n_params,max_abs_err,max_rel_err,ok"] + [
            f"{r.name},{r.n_params},{r.max_abs_err!r},{r.max_rel_err!r},{r.ok}"
            for r in results]
        (out / "gradcheck.csv").write_text("\n".join(rows) + "\n")
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
