import dataclasses
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from wasecom import models as M
from wasecom import tensor as T
from wasecom import training as TR
from wasecom.channel import (ChannelConfig, ChannelKind, ChannelRealization, apply_realization,
                             draw_realization)
from wasecom.data import generate_synthetic_images, generate_synthetic_text
from wasecom.metrics import bleu, ssim
from wasecom.models import ModelBundle, ModelDims, load_checkpoint
from wasecom.objectives import RobustnessConfig
from wasecom.perturb import PerturbMethod, PerturbSpec, attacked_row_mask, fgsm, pgd
from wasecom.tensor import Tensor
from wasecom.training import Mode, TrainConfig, TrainingDiverged, evaluate, train


def _image_data(n=32, side=6, seed=0):
    return generate_synthetic_images(n, side=side, seed=seed)


def _dims_for(data):
    return TR.default_dims(data)


def _cfg(**kw):
    base = dict(epochs=1, batch_size=8, lr=1e-3, seed=0,
                channel=ChannelConfig(ChannelKind.AWGN, 12.0))
    base.update(kw)
    return TrainConfig(**base)


def _digest(bundle):
    return hashlib.sha256(bundle.param_bytes()).hexdigest()


def test_zero_epochs_returns_initialization():
    data = _image_data()
    cfg = _cfg(epochs=0)
    bundle, log = TR.train_wasecom(cfg, data)
    fresh = ModelBundle(data.task, _dims_for(data), seed=cfg.seed)
    assert bundle.param_bytes() == fresh.param_bytes()
    assert log.records == []


def test_same_seed_same_trajectory():
    data = _image_data()
    cfg = _cfg(robustness=RobustnessConfig(rho=0.05, mu=0.05))
    b1, l1 = TR.train_wasecom(cfg, data)
    b2, l2 = TR.train_wasecom(cfg, data)
    assert b1.param_bytes() == b2.param_bytes()
    assert [r.total for r in l1.records] == [r.total for r in l2.records]


def test_log_has_one_record_per_optimizer_step():
    data = _image_data(n=32)  # 24 train samples
    cfg = _cfg(epochs=2, batch_size=8)
    _, log = TR.train_wasecom(cfg, data)
    # 3 minibatches per epoch, 2 epochs, 2 phases
    assert len(log.records) == 3 * 2 * 2
    steps = [r.step for r in log.records]
    assert steps == sorted(steps)
    phases = [r.phase for r in log.records[:4]]
    assert phases == ["outer", "inner", "outer", "inner"]


@pytest.mark.parametrize("mode", [Mode.WASECOM, Mode.ERM])
def test_wall_ms_covers_backward_and_optimizer_step(monkeypatch, mode):
    # a slow optimizer step must show in every phase's logged time
    original = TR.Adam.step

    def slow_step(self):
        time.sleep(0.02)
        original(self)

    monkeypatch.setattr(TR.Adam, "step", slow_step)
    _, log = train(_cfg(epochs=1, batch_size=8, mode=mode), _image_data(n=16))
    assert log.records and all(r.wall_ms >= 20.0 for r in log.records)


def test_outer_phase_leaves_semantic_params_alone(monkeypatch):
    data = _image_data(n=8)
    cfg = _cfg(epochs=1, batch_size=8, robustness=RobustnessConfig(rho=0.05, mu=0.05))
    seen = {}
    real_inner = TR.inner_dual_loss

    def spy(bundle, *args, **kwargs):
        # called after the outer phase has already stepped
        seen["semantic"] = [p.data.copy() for p in bundle.semantic_params()]
        seen["channel"] = [p.data.copy() for p in bundle.channel_params()]
        return real_inner(bundle, *args, **kwargs)

    monkeypatch.setattr(TR, "inner_dual_loss", spy)
    init = ModelBundle(data.task, _dims_for(data), seed=cfg.seed)
    bundle, _ = TR.train_wasecom(cfg, data)
    init_sem = [p.data for p in init.semantic_params()]
    init_chan = [p.data for p in init.channel_params()]
    assert all(np.array_equal(a, b) for a, b in zip(seen["semantic"], init_sem))
    assert any(not np.array_equal(a, b) for a, b in zip(seen["channel"], init_chan))
    # and the inner phase then moved the semantic group
    final_sem = [p.data for p in bundle.semantic_params()]
    assert any(not np.array_equal(a, b) for a, b in zip(final_sem, init_sem))


@pytest.mark.parametrize("mode,inner_name", [(Mode.WASECOM, "inner_dual_loss"),
                                             (Mode.ERM, "clean_inner_loss")])
def test_inner_phase_differentiates_only_the_semantic_group(monkeypatch, mode, inner_name):
    data = _image_data(n=16)
    cfg = _cfg(epochs=1, batch_size=8, mode=mode, robustness=RobustnessConfig(rho=0.05, mu=0.05))
    bundle = ModelBundle(data.task, _dims_for(data), seed=cfg.seed)
    real_inner = getattr(TR, inner_name)
    views = []

    def inner(view, *args, **kwargs):
        views.append(view)
        for p in bundle.channel_params():   # the outer step has read them already
            p.grad[...] = 7.0
        return real_inner(view, *args, **kwargs)

    def channel_grads_untouched(step, b):
        assert all(np.all(p.grad == 7.0) for p in b.channel_params())

    monkeypatch.setattr(TR, inner_name, inner)
    train(cfg, data, bundle=bundle, on_step=channel_grads_untouched)
    assert len(views) == 2 and views[0] is views[1]   # one view per phase for the run
    for name, p in bundle.named_params():
        q = views[0].params[name]
        assert q.data is p.data
        if name.startswith("chan_"):
            assert q is not p and not q.requires_grad and q.grad is None
        else:
            assert q is p


@pytest.mark.parametrize("mode,outer_name,inner_name", [
    (Mode.WASECOM, "outer_dual_loss", "inner_dual_loss"),
    (Mode.ERM, "clean_outer_loss", "clean_inner_loss")])
def test_outer_tape_is_freed_before_the_inner_phase_builds(monkeypatch, mode, outer_name,
                                                            inner_name):
    # the outer total's data array lives exactly as long as its node
    data = _image_data(n=16)
    cfg = _cfg(epochs=1, batch_size=8, mode=mode,
               robustness=RobustnessConfig(rho=0.05, mu=0.05))
    real_outer, real_inner = getattr(TR, outer_name), getattr(TR, inner_name)
    outer_totals, alive_at_inner = [], []

    def outer(*args, **kwargs):
        result = real_outer(*args, **kwargs)
        total = result.total if mode is Mode.WASECOM else result
        outer_totals.append(weakref.ref(total.data))
        return result

    def inner(*args, **kwargs):
        alive_at_inner.append(outer_totals[-1]() is not None)
        return real_inner(*args, **kwargs)

    monkeypatch.setattr(TR, outer_name, outer)
    monkeypatch.setattr(TR, inner_name, inner)
    train(cfg, data)
    assert alive_at_inner == [False, False]   # one outer and one inner phase per minibatch


def test_degenerate_radii_match_erm_bitwise():
    data = _image_data(n=32)
    rob = RobustnessConfig(rho=0.0, mu=0.0)
    base = dict(epochs=2, batch_size=8, lr=1e-3, seed=7, robustness=rob,
                channel=ChannelConfig(ChannelKind.RAYLEIGH, 10.0))
    traj_w, traj_e = [], []
    _, log_w = TR.train_wasecom(TrainConfig(mode=Mode.WASECOM, **base), data,
                                on_step=lambda s, b: traj_w.append(_digest(b)))
    _, log_e = TR.train_erm(TrainConfig(mode=Mode.ERM, **base), data,
                            on_step=lambda s, b: traj_e.append(_digest(b)))
    assert len(traj_w) == 6  # 24 train samples, batch 8, 2 epochs
    assert traj_w == traj_e
    assert [r.total for r in log_w.records] == [r.total for r in log_e.records]


# sha256 of four short runs (Rayleigh 10 dB, 2 epochs, batch 8, seed 7): ERM
# image, robust image (PGD-3 inner, FGSM outer), LSE image (K=8) and robust text.
# Each run adds its final parameter bytes and every logged record but its wall time.
TRAJECTORY_SHA = "89a66734614a73ef6a1df0dd92f3f3d259d7aebb14ec69e772d99629f2e2a0bb"


def test_training_trajectories_are_pinned():
    image = _image_data(n=32)
    text = generate_synthetic_text(32, vocab_size=8, max_len=6, seed=0)
    hard = dict(perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.5, epsilon_inf=1.0, steps=3),
                perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.1, epsilon_inf=1.0))
    lse = dict(perturb_inner=PerturbSpec(PerturbMethod.GAUSSIAN, radius=0.5, sample_count=8),
               perturb_outer=PerturbSpec(PerturbMethod.GAUSSIAN, radius=0.1, sample_count=8))
    arms = [(image, dict(mode=Mode.ERM)),
            (image, dict(robustness=RobustnessConfig(rho=0.5, mu=0.1), **hard)),
            (image, dict(robustness=RobustnessConfig(rho=0.5, mu=0.1, use_lse=True), **lse)),
            (text, dict(robustness=RobustnessConfig(rho=0.05, mu=0.3), **hard))]
    h = hashlib.sha256()
    for data, kw in arms:
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=7,
                          channel=ChannelConfig(ChannelKind.RAYLEIGH, 10.0), **kw)
        bundle, log = train(cfg, data)
        h.update(bundle.param_bytes())
        for rec in log.records:
            h.update(repr([getattr(rec, f.name) for f in dataclasses.fields(rec)
                           if f.name != "wall_ms"]).encode())
    assert h.hexdigest() == TRAJECTORY_SHA


def test_erm_loss_decreases_on_held_out_batch():
    from wasecom.objectives import clean_inner_loss
    data = _image_data(n=64, side=6, seed=2)
    cfg = _cfg(epochs=50, batch_size=16, lr=3e-3, mode=Mode.ERM)  # 200 steps

    def held_out_loss(bundle):
        rng = np.random.default_rng(999)
        return float(clean_inner_loss(bundle, data.eval, cfg.channel, rng).data)

    init = ModelBundle(data.task, _dims_for(data), seed=cfg.seed)
    before = held_out_loss(init)
    bundle, _ = TR.train_erm(cfg, data)
    after = held_out_loss(bundle)
    assert after < before


def test_zero_lr_keeps_parameters():
    data = _image_data(n=16)
    cfg = _cfg(lr=0.0, mode=Mode.ERM)
    bundle, _ = TR.train_erm(cfg, data)
    fresh = ModelBundle(data.task, _dims_for(data), seed=cfg.seed)
    assert bundle.param_bytes() == fresh.param_bytes()


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    data = _image_data(n=16)
    cfg = _cfg(mode=Mode.ERM)
    monkeypatch.setattr(TR, "clean_outer_loss",
                        lambda *a, **k: Tensor(np.array(np.nan)))
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 0"):
        TR.train_erm(cfg, data)


def _nan_grad_term(param):
    # sqrt at 0 behind a zero scale: adds 0 to the loss, and NaN to param's gradient
    return T.power(T.scale(param, 0.0), 0.5).sum()


@pytest.mark.parametrize("mode, loss_name, param_name, phase", [
    (Mode.ERM, "clean_outer_loss", "chan_dec.b1", "outer"),
    (Mode.WASECOM, "inner_dual_loss", "sem_dec.w0", "inner"),
])
def test_non_finite_gradient_aborts_naming_the_parameter(monkeypatch, mode, loss_name,
                                                         param_name, phase):
    data = _image_data(n=16)
    cfg = _cfg(mode=mode)
    original = getattr(TR, loss_name)

    def poisoned(bundle, *args, **kwargs):
        out = original(bundle, *args, **kwargs)
        param = dict(bundle.named_params())[param_name]
        if isinstance(out, Tensor):
            return out + _nan_grad_term(param)
        out.total = out.total + _nan_grad_term(param)
        return out

    monkeypatch.setattr(TR, loss_name, poisoned)
    with pytest.raises(TrainingDiverged, match=rf"gradient at step 0 \({phase}\).*{param_name}") as err:
        with np.errstate(divide="ignore", invalid="ignore"):
            train(cfg, data)
    assert err.value.param == param_name
    assert err.value.record.phase == phase and np.isfinite(err.value.record.total)


def test_trained_values_reach_frozen_view_and_checkpoint(tmp_path):
    data = _image_data(n=16)
    bundle, _ = train(_cfg(mode=Mode.ERM), data)
    fresh = ModelBundle(data.task, _dims_for(data), seed=0)
    assert bundle.param_bytes() != fresh.param_bytes()
    frozen = bundle.frozen()
    assert frozen.param_bytes() == bundle.param_bytes()
    assert all(np.shares_memory(f.data, p.data)
               for (_, f), (_, p) in zip(frozen.named_params(), bundle.named_params()))
    M.save_checkpoint(bundle, tmp_path / "trained.bin")
    assert load_checkpoint(tmp_path / "trained.bin").param_bytes() == bundle.param_bytes()


def test_robust_smoke_run_moves_duals():
    data = _image_data(n=16)
    cfg = _cfg(
        epochs=1, batch_size=8, dual_lr=0.05,
        robustness=RobustnessConfig(rho=0.08, mu=0.08, lam=0.5, gamma=0.5),
        perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.08, steps=2),
        perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.08),
    )
    _, log = TR.train_wasecom(cfg, data)
    assert all(np.isfinite(r.total) for r in log.records)
    assert all(r.penalty > 0 for r in log.records)
    later = [r for r in log.records if r.step >= 1]
    assert any(r.lam != 0.5 or r.gamma != 0.5 for r in later)


def _stream_keys(monkeypatch):
    """Record the key of every child stream the training loop builds."""
    keys, real = [], TR._stream

    def recording(seed, tag, *rest):
        keys.append((tag, *rest))
        return real(seed, tag, *rest)

    monkeypatch.setattr(TR, "_stream", recording)
    return keys


def test_only_the_lse_objective_builds_attack_streams(monkeypatch):
    attack_tags = {TR.TAG_INNER_ATTACK, TR.TAG_OUTER_ATTACK}
    keys = _stream_keys(monkeypatch)
    # the acceptance text arm, 60 training rows in batches of 32: two steps
    text = generate_synthetic_text(80, vocab_size=8, max_len=8, seed=0)
    dims = ModelDims(64, 32, 96, 64, vocab_size=8, seq_len=8, embed_dim=8)
    _, log = train(TrainConfig(
        epochs=1, batch_size=32, lr=2e-3, seed=0, channel=ChannelConfig(ChannelKind.AWGN, 3.0),
        robustness=RobustnessConfig(rho=0.05, mu=0.3),
        perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.05, epsilon_inf=1.0, steps=3),
        perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=1.0)),
        text, dims=dims)
    assert log.records[-1].step == 1
    assert {key[0] for key in keys} == {TR.TAG_SHUFFLE, TR.TAG_OUTER_CHANNEL, TR.TAG_INNER_CHANNEL}

    keys.clear()
    lse = RobustnessConfig(rho=0.5, mu=0.1, use_lse=True)
    _, log = train(_cfg(robustness=lse,
                        perturb_inner=PerturbSpec(PerturbMethod.GAUSSIAN, radius=0.5, sample_count=4),
                        perturb_outer=PerturbSpec(PerturbMethod.GAUSSIAN, radius=0.1, sample_count=4)),
                   _image_data(n=32))
    steps = sorted({r.step for r in log.records})
    assert len(steps) == 3   # 24 training rows in batches of 8
    assert sorted(key for key in keys if key[0] in attack_tags) == sorted(
        (tag, step, 0) for tag in attack_tags for step in steps)


def test_dispatcher_routes_by_mode():
    data = _image_data(n=16)
    _, log_e = train(_cfg(mode=Mode.ERM), data)
    assert all(r.penalty == 0.0 for r in log_e.records)
    # nonzero radii do not make ERM robust: no penalty and no dual step
    rob = RobustnessConfig(rho=0.1, mu=0.1, lam=0.5, gamma=0.5)
    _, log_e = train(_cfg(mode=Mode.ERM, dual_lr=0.5, robustness=rob), data)
    assert len({r.step for r in log_e.records}) == 2
    assert all(r.penalty == 0.0 and r.total == r.expectation for r in log_e.records)
    assert all(r.lam == 0.5 and r.gamma == 0.5 for r in log_e.records)
    _, log_w = train(_cfg(mode=Mode.WASECOM,
                          robustness=RobustnessConfig(rho=0.1, mu=0.1)), data)
    assert all(r.penalty > 0.0 for r in log_w.records)


@pytest.mark.parametrize("mode", ["wasecom", "erm"])
def test_a_mode_given_as_its_string_trains_as_its_member(mode):
    # mode="wasecom" once trained silently as ERM: penalty 0.0 and lambda 1.0 throughout
    data = _image_data(n=16)
    rob = RobustnessConfig(rho=0.5, mu=0.1)
    logs = [train(_cfg(mode=given, robustness=rob), data)[1] for given in (mode, Mode(mode))]
    by_string, by_member = ([dataclasses.replace(r, wall_ms=0.0) for r in log.records]
                            for log in logs)
    assert by_string == by_member
    assert any(r.penalty > 0.0 for r in by_member) == (mode == "wasecom")


def test_checkpoint_cadence(tmp_path):
    data = _image_data(n=32)  # 24 train samples -> 3 steps per epoch
    cfg = _cfg(epochs=2, batch_size=8, checkpoint_every=2, mode=Mode.ERM)
    bundle, _ = TR.train_erm(cfg, data, checkpoint_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["ckpt_step000002.bin", "ckpt_step000004.bin", "ckpt_step000006.bin"]
    restored = load_checkpoint(tmp_path / "ckpt_step000006.bin")
    assert restored.param_bytes() == bundle.param_bytes()  # 6 steps total


def test_overfit_toy_set_reaches_tiny_mse():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.1, 0.9, (4, 8))
    from wasecom.data import Dataset
    from wasecom.models import TaskKind
    data = Dataset(TaskKind.IMAGE, samples, samples)
    dims = ModelDims(8, 8, 8, 24)
    channel = ChannelConfig(ChannelKind.AWGN, 200.0)  # effectively noiseless
    cfg = TrainConfig(epochs=400, batch_size=4, lr=0.01, seed=1, mode=Mode.ERM,
                      channel=channel)
    bundle, _ = TR.train_erm(cfg, data, dims=dims)
    rec = evaluate(bundle, data, channel, seed=3)
    assert rec.mse < 1e-3, rec.mse


def test_text_task_trains_and_reports_bleu():
    data = generate_synthetic_text(24, vocab_size=16, max_len=8, seed=4)
    cfg = _cfg(epochs=1, batch_size=8,
               robustness=RobustnessConfig(rho=0.02, mu=0.02),
               perturb_inner=PerturbSpec(PerturbMethod.FGSM, radius=0.02),
               perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.02))
    bundle, log = TR.train_wasecom(cfg, data)
    assert all(np.isfinite(r.total) for r in log.records)
    rec = evaluate(bundle, data, cfg.channel, seed=2)
    assert rec.task == "text" and rec.psnr_db is None
    assert rec.bleu is not None and 0.0 <= rec.bleu <= 1.0
    assert rec.mse > 0.0  # token NLL


def test_evaluate_is_side_effect_free():
    data = _image_data(n=16)
    bundle = ModelBundle(data.task, _dims_for(data), seed=0)
    before = bundle.param_bytes()
    attack = PerturbSpec(PerturbMethod.FGSM, radius=0.1, sample_fraction=0.5)
    evaluate(bundle, data, ChannelConfig(ChannelKind.AWGN, 10.0), attack, seed=1)
    assert bundle.param_bytes() == before
    assert all(p.grad is None or not p.grad.any() for _, p in bundle.named_params())


def test_evaluate_attack_none_equals_zero_radius():
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=3)
    cfg = ChannelConfig(ChannelKind.AWGN, 8.0)
    a = evaluate(bundle, data, cfg, attack=None, seed=5)
    b = evaluate(bundle, data, cfg, attack=PerturbSpec(PerturbMethod.FGSM, radius=0.0), seed=5)
    assert a == b
    assert a.attack == "clean"


def test_evaluate_attack_hurts_metrics():
    data = _image_data(n=24)
    cfg = _cfg(epochs=4, batch_size=8, mode=Mode.ERM)
    bundle, _ = TR.train_erm(cfg, data)
    clean = evaluate(bundle, data, cfg.channel, seed=6)
    hit = evaluate(bundle, data, cfg.channel,
                   PerturbSpec(PerturbMethod.FGSM, radius=0.5, sample_fraction=1.0), seed=6)
    assert hit.mse > clean.mse
    assert hit.psnr_db < clean.psnr_db


def test_evaluate_deterministic_and_rejects_empty():
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=2)
    cfg = ChannelConfig(ChannelKind.RAYLEIGH, 10.0)
    r1 = evaluate(bundle, data, cfg, seed=9)
    r2 = evaluate(bundle, data, cfg, seed=9)
    assert r1 == r2
    # evaluate takes a Dataset, and a Dataset cannot hold an empty split
    with pytest.raises(ValueError, match="eval split is empty"):
        dataclasses.replace(data, eval=np.zeros((0, data.feature_dim)))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    # -3 used to evaluate nothing and report mse 0.0 at 100 dB
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=2)
    with pytest.raises(ValueError, match="batch_size"):
        evaluate(bundle, data, ChannelConfig(ChannelKind.AWGN, 10.0), batch_size=batch_size)


def test_evaluate_rejects_data_the_model_cannot_take():
    # each used to fail deep in the forward pass, with a bare matmul or index error
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=4)
    channel = ChannelConfig(ChannelKind.AWGN, 10.0)
    text = generate_synthetic_text(12, vocab_size=16, max_len=6, seed=0)
    with pytest.raises(ValueError, match="dataset task 'text' differs from the model's 'image'"):
        evaluate(bundle, text, channel)
    with pytest.raises(ValueError, match=r"shape \(3, 16\), but the model's input_dim is 36"):
        evaluate(bundle, _image_data(n=12, side=4), channel)
    text_bundle = ModelBundle(text.task, _dims_for(text), seed=5)
    with pytest.raises(ValueError, match=r"shape \(3, 5\), but the model's seq_len is 6"):
        evaluate(text_bundle, dataclasses.replace(text, eval=text.eval[:, :5]), channel)
    wide = generate_synthetic_text(40, vocab_size=32, max_len=6, seed=0)
    with pytest.raises(ValueError, match=r"token id \d+ is outside the model's vocab_size 16"):
        evaluate(text_bundle, wide, channel)
    # -1 used to read the last vocabulary token, through numpy's negative indexing;
    # evaluate takes a Dataset, which rejects it and float ids
    negative = text.eval.copy()
    negative[0, 3] = -1
    with pytest.raises(ValueError, match=r"token ids must lie in \[0, vocab_size\)"):
        dataclasses.replace(text, eval=negative)
    with pytest.raises(ValueError, match="token ids must be integers"):
        dataclasses.replace(text, eval=text.eval.astype(float))


@pytest.mark.parametrize("attack", [
    PerturbSpec(PerturbMethod.GAUSSIAN, radius=0.1),
    PerturbSpec(PerturbMethod.FGSM, radius=0.1, sample_fraction=0.0),
])
def test_unattacked_specs_run_and_are_labelled_clean(attack):
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=3)
    cfg = ChannelConfig(ChannelKind.AWGN, 8.0)
    assert TR._attack_label(attack) == "clean"
    assert evaluate(bundle, data, cfg, attack=attack, seed=5) == \
        evaluate(bundle, data, cfg, attack=None, seed=5)


def _reference_evaluate(bundle, samples, channel_cfg, attack, seed, batch_size):
    """The per-item evaluate loop: a second encoder pass on clean batches, an
    FGSM attack on every row of an attacked batch, one `ssim` call per image
    and one `bleu` call per sentence.  PGD runs once over the masked rows of
    the whole split, as in `evaluate`: its normalized step divides by the
    gradient's norm, and BLAS may round a transposed-operand matmul's row in
    its last bit differently with the number of rows in the call."""
    frozen = bundle.frozen()
    image = bundle.task is M.TaskKind.IMAGE
    side = int(round(np.sqrt(bundle.dims.input_dim)))

    def forward(inputs, realization):
        if image:
            s = M.semantic_encode(frozen, inputs)
        else:
            s = M.semantic_encode_from_embeddings(frozen, inputs)
        z = apply_realization(M.channel_encode(frozen, s), realization)
        return M.semantic_decode(frozen, M.channel_decode(frozen, z))

    def attacked(runner, refs, centers, realization):
        return runner(lambda leaf: M.per_sample_reconstruction_loss(
            frozen, refs, forward(leaf, realization)), centers, attack)

    batches = []   # (samples, clean inputs, realization, attacked-row mask)
    for bi, start in enumerate(range(0, len(samples), batch_size)):
        batch = samples[start:start + batch_size]
        rng = TR._stream(seed, TR.TAG_EVAL_CHANNEL, bi)
        if image:
            centers = np.asarray(batch, dtype=float)
            u0 = M.channel_encode(frozen, M.semantic_encode(frozen, Tensor(centers)))
        else:
            centers = M.embed_tokens(frozen, batch).data
            u0 = M.channel_encode(frozen, M.semantic_encode_from_embeddings(frozen, Tensor(centers)))
        realization = draw_realization(channel_cfg, len(batch), bundle.dims.signal_dim,
                                       float(np.mean(u0.data**2)), rng)
        mask = np.zeros(len(batch), dtype=bool)
        if attack is not None:
            mask = attacked_row_mask(len(batch), attack.sample_fraction,
                                     TR._stream(seed, TR.TAG_EVAL_ATTACK, bi))
        batches.append((batch, centers, realization, mask))

    inputs = [centers for _, centers, _, _ in batches]
    if attack is not None and attack.method is PerturbMethod.FGSM:
        # the attack runs on the whole batch; only the masked rows keep its result
        inputs = [np.where(mask[:, None], attacked(fgsm, batch, centers, realization), centers)
                  for batch, centers, realization, mask in batches]
    elif attack is not None and any(mask.any() for *_, mask in batches):
        picked = ChannelRealization(h=np.concatenate([r.h[m] for _, _, r, m in batches]),
                                    w=np.concatenate([r.w[m] for _, _, r, m in batches]))
        adv = attacked(pgd, np.concatenate([b[m] for b, _, _, m in batches]),
                       np.concatenate([c[m] for _, c, _, m in batches]), picked)
        pieces = np.split(adv, np.cumsum([mask.sum() for *_, mask in batches])[:-1])
        inputs = [centers.copy() for centers in inputs]
        for batch_inputs, (*_, mask), piece in zip(inputs, batches, pieces):
            batch_inputs[mask] = piece

    se_sum = ssim_sum = nll_sum = bleu_sum = 0.0
    for (batch, _, realization, _), batch_inputs in zip(batches, inputs):
        out = forward(Tensor(batch_inputs), realization)
        if image:
            se_sum += float(np.mean((out.data - batch) ** 2, axis=1).sum())
            imgs, refs = out.data.reshape(-1, side, side), batch.reshape(-1, side, side)
            ssim_sum += sum(ssim(r, i, window=min(8, side)) for r, i in zip(refs, imgs))
        else:
            nll_sum += float(M.per_sample_reconstruction_loss(frozen, batch, out).data.sum())
            decoded = M.greedy_decode(out.data, len(batch), bundle.dims.seq_len)
            for cand, ref in zip(decoded, batch):
                bleu_sum += bleu(list(map(int, cand)), [list(map(int, ref))])
    n = len(samples)
    return {"mse": se_sum / n, "ssim": ssim_sum / n} if image else \
        {"mse": nll_sum / n, "bleu": bleu_sum / n}


@pytest.mark.parametrize("task", ["image", "text"])
@pytest.mark.parametrize("kind,attack", [
    (ChannelKind.AWGN, None),
    (ChannelKind.RAYLEIGH, None),
    (ChannelKind.AWGN, PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=0.1,
                                   sample_fraction=0.5)),
    (ChannelKind.RAYLEIGH, PerturbSpec(PerturbMethod.PGD, radius=0.3, steps=2,
                                       sample_fraction=0.3)),
    # round(0.05 * 8) = 0 rows: the attacked cell is the clean pass
    (ChannelKind.AWGN, PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=0.1,
                                   sample_fraction=0.05)),
])
def test_batched_evaluate_matches_per_item_reference(task, kind, attack):
    if task == "image":
        data = _image_data(n=120, side=8, seed=2)
    else:
        data = generate_synthetic_text(120, vocab_size=8, max_len=6, seed=2)
    bundle, _ = TR.train_erm(_cfg(epochs=4, lr=1e-2, mode=Mode.ERM), data)
    channel = ChannelConfig(kind, 6.0)
    rec = evaluate(bundle, data, channel, attack, seed=4, batch_size=8)
    ref = _reference_evaluate(bundle, data.eval, channel, attack, seed=4, batch_size=8)
    assert rec.mse == ref["mse"]                      # pixel MSE, or token NLL for text
    if task == "image":
        assert rec.psnr_db == TR.psnr_from_mse(ref["mse"])
        assert abs(rec.ssim - ref["ssim"]) <= 1e-15
    else:
        assert abs(rec.bleu - ref["bleu"]) <= 1e-15


# sha256 of the csv rows of an evaluate grid: image and text × AWGN and Rayleigh
# × 0 and 20 dB × clean and FGSM × seeds 1 and 7, at batch size 12 on 30 eval
# rows (12, 12, then a ragged 6).  PGD stays out: its normalized step divides by
# the gradient's norm, and BLAS may round a transposed-operand matmul's row in
# its last bit differently with the number of rows in the call.
EVALUATE_GRID_SHA = "f9cf24adc56e0220fd4c36ede5964486f13d6f637aca4cb6295b188db155efa4"


def test_evaluate_grid_is_pinned():
    attack = PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=0.1, sample_fraction=0.5)
    h = hashlib.sha256()
    for data in (_image_data(n=120, side=8, seed=2),
                 generate_synthetic_text(120, vocab_size=8, max_len=6, seed=2)):
        bundle, _ = TR.train_erm(_cfg(epochs=4, lr=1e-2, mode=Mode.ERM), data)
        for kind in (ChannelKind.AWGN, ChannelKind.RAYLEIGH):
            for snr in (0.0, 20.0):
                for atk in (None, attack):
                    for seed in (1, 7):
                        rec = evaluate(bundle, data, ChannelConfig(kind, snr), atk, seed=seed,
                                       batch_size=12)
                        h.update(rec.csv_row().encode() + b"\n")
    assert h.hexdigest() == EVALUATE_GRID_SHA


def _clear_eval_caches():
    TR._eval_unit_draws.cache_clear()
    TR._eval_attacked_rows.cache_clear()


def test_evaluate_records_are_the_same_on_cold_and_warm_draw_caches():
    cases = []
    for data in (_image_data(n=120, side=6, seed=2),
                 generate_synthetic_text(120, vocab_size=8, max_len=6, seed=2)):
        cases.append((ModelBundle(data.task, _dims_for(data), seed=1), data))
    # 30 eval rows: batch size 12 ends on a ragged 6, batch size 7 on a ragged 2
    cells = [(case, kind, batch_size, fraction, seed)
             for seed in (1, 7)
             for fraction in (None, 0.3, 1.0)
             for batch_size in (12, 7)
             for kind in (ChannelKind.AWGN, ChannelKind.RAYLEIGH)
             for case in cases]

    def run(cell):
        (bundle, data), kind, batch_size, fraction, seed = cell
        attack = None if fraction is None else PerturbSpec(
            PerturbMethod.FGSM, radius=0.3, epsilon_inf=0.1, sample_fraction=fraction)
        return evaluate(bundle, data, ChannelConfig(kind, 5.0), attack, seed=seed,
                        batch_size=batch_size).csv_row()

    cold = []
    for cell in cells:
        _clear_eval_caches()
        cold.append(run(cell))
    for _ in range(2):   # the second round reads every draw from the caches
        assert [run(cell) for cell in cells] == cold
    assert TR._eval_unit_draws.cache_info().hits >= len(cells)

    # more distinct keys than the caches hold evict the first cell's draws
    first = cells[0]
    for seed in range(100, 101 + TR.EVAL_CACHE_ENTRIES):
        run((first[0], first[1], first[2], 0.5, seed))
    misses = TR._eval_unit_draws.cache_info().misses
    assert run(first) == cold[0]
    assert TR._eval_unit_draws.cache_info().misses == misses + 1
    assert [run(cell) for cell in cells] == cold
    # an np.int64 seed reads the entry of the plain int
    run(first)
    hits = TR._eval_unit_draws.cache_info().hits
    assert run(first[:4] + (np.int64(first[4]),)) == cold[0]
    assert TR._eval_unit_draws.cache_info().hits == hits + 1


def test_cached_eval_draws_are_read_only():
    units = TR._eval_unit_draws(3, ChannelKind.RAYLEIGH, 10, 4, 5)
    assert [u.noise.shape for u in units] == [(4, 5), (4, 5), (2, 5)]
    rows = TR._eval_attacked_rows(3, 10, 4, 0.5)
    for array in (units[0].noise, units[-1].fade, rows):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("name,value", [
    ("seed", True), ("seed", False), ("seed", 1.0), ("seed", -1), ("seed", "1"),
    ("batch_size", True), ("batch_size", 8.0),
])
@pytest.mark.parametrize("warm", [False, True])
def test_evaluate_rejects_a_bad_seed_or_batch_size_before_encoding(monkeypatch, name, value,
                                                                   warm):
    # seed=True used to run as seed 1, and seed=1.0 to fail inside numpy after encoding
    data = _image_data(n=12)
    bundle = ModelBundle(data.task, _dims_for(data), seed=2)
    channel = ChannelConfig(ChannelKind.AWGN, 10.0)
    attack = PerturbSpec(PerturbMethod.FGSM, radius=0.1, sample_fraction=0.5)
    _clear_eval_caches()
    if warm:   # cache entries at seed 1 and 0, batch size 1 and the default
        for kwargs in ({"seed": 1}, {"seed": 0}, {"seed": 1, "batch_size": 1}):
            evaluate(bundle, data, channel, attack, **kwargs)

    def no_encoding(*_args, **_kwargs):
        raise AssertionError("evaluate encoded before checking its arguments")

    monkeypatch.setattr(M, "semantic_encode", no_encoding)
    with pytest.raises(ValueError, match=name):
        evaluate(bundle, data, channel, attack, **{name: value})


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(checkpoint_every=-1)
    for dual_lr in (np.nan, np.inf, -0.01):
        with pytest.raises(ValueError, match="dual_lr"):
            TrainConfig(dual_lr=dual_lr)


class _StopTraining(Exception):
    pass


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap pad is set through glibc's mallopt")
def test_robust_text_steps_do_not_refault_the_heap():
    # The criterion 10 robust text arm: each step builds five tapes over
    # (256, 64) hidden arrays.  Were the freed heap returned to the kernel when
    # a tape is dropped, every step would fault hundreds of pages back in.
    data = generate_synthetic_text(2048, vocab_size=8, max_len=8, seed=0)
    dims = ModelDims(64, 32, 96, 64, vocab_size=8, seq_len=8, embed_dim=8)
    cfg = TrainConfig(mode=Mode.WASECOM, epochs=1, batch_size=32, lr=2e-3, seed=0,
                      channel=ChannelConfig(ChannelKind.AWGN, 3.0),
                      robustness=RobustnessConfig(rho=0.05, mu=0.3),
                      perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.05,
                                                epsilon_inf=1.0, steps=3),
                      perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=1.0))
    faults = []

    def on_step(_step, _bundle):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        if len(faults) == 10:
            raise _StopTraining

    with pytest.raises(_StopTraining):
        train(cfg, data, dims=dims, on_step=on_step)
    per_step = (faults[9] - faults[1]) / 8   # after 2 warm-up steps
    assert per_step < 20, per_step


# The audit's order: a theory suite, then the evaluate grid of both bundles,
# 24 cells; prints the faults per cell of the second suite and grid.
_AUDIT_FAULTS_SCRIPT = """
import resource
from wasecom import ot
from wasecom.channel import ChannelConfig, ChannelKind
from wasecom.data import generate_synthetic_images, generate_synthetic_text
from wasecom.models import ModelBundle, ModelDims, TaskKind
from wasecom.perturb import PerturbMethod, PerturbSpec
from wasecom.training import evaluate

cases = [(ModelBundle(TaskKind.IMAGE, ModelDims(64, 16, 16, 32), seed=1),
          generate_synthetic_images(1024, side=8, seed=1), 1.0),
         (ModelBundle(TaskKind.TEXT, ModelDims(64, 32, 96, 64, vocab_size=32, seq_len=8,
                                               embed_dim=8), seed=1),
          generate_synthetic_text(512, vocab_size=32, max_len=8, seed=1), 0.01)]

def audit_pass():
    ot.run_theory_suite(n_ball_samples=100, seed=1)
    cells = 0
    for bundle, data, radius in cases:
        attack = PerturbSpec(PerturbMethod.FGSM, radius=radius, epsilon_inf=1.0,
                             sample_fraction=0.3)
        for kind in (ChannelKind.AWGN, ChannelKind.RAYLEIGH):
            for snr in (0.0, 10.0, 20.0):
                for atk in (None, attack):
                    evaluate(bundle, data, ChannelConfig(kind, snr), atk, seed=123)
                    cells += 1
    return cells

audit_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cells = audit_pass()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cells)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap pad is set through glibc's mallopt")
def test_audit_cells_do_not_refault_the_heap():
    # A fresh process, so that no earlier test has grown the heap.  Freed
    # chunks that glibc had mmapped raise its mmap threshold, so what the
    # suite frees decides which of the grid's arrays come from the padded heap.
    src = str(Path(TR.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _AUDIT_FAULTS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    per_cell = float(out.stdout.split()[-1])
    assert per_cell < 20, per_cell
