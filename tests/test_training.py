import hashlib
import time

import numpy as np
import pytest

from wasecom import models as M
from wasecom import tensor as T
from wasecom import training as TR
from wasecom.channel import ChannelConfig, ChannelKind, apply_realization, draw_realization
from wasecom.data import generate_synthetic_images, generate_synthetic_text
from wasecom.metrics import bleu, ssim
from wasecom.models import ModelBundle, ModelDims, load_checkpoint
from wasecom.objectives import RobustnessConfig
from wasecom.perturb import PerturbMethod, PerturbSpec, attacked_row_mask
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
    cfg = _cfg(epochs=2, batch_size=8, sub_steps=2)
    _, log = TR.train_wasecom(cfg, data)
    # 3 minibatches per epoch, 2 epochs, 2 phases, 2 sub-steps
    assert len(log.records) == 3 * 2 * 2 * 2
    steps = [r.step for r in log.records]
    assert steps == sorted(steps)
    phases = [r.phase for r in log.records[:4]]
    assert phases == ["outer", "outer", "inner", "inner"]
    rows = log.rows()
    assert rows[0] == TR.TRAIN_LOG_HEADER
    assert len(rows) == len(log.records) + 1


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


@pytest.mark.parametrize("sub_steps", [1, 2])
def test_degenerate_radii_match_erm_bitwise(sub_steps):
    data = _image_data(n=32)
    rob = RobustnessConfig(rho=0.0, mu=0.0)
    base = dict(epochs=2, batch_size=8, lr=1e-3, seed=7, robustness=rob, sub_steps=sub_steps,
                channel=ChannelConfig(ChannelKind.RAYLEIGH, 10.0))
    traj_w, traj_e = [], []
    _, log_w = TR.train_wasecom(TrainConfig(mode=Mode.WASECOM, **base), data,
                                on_step=lambda s, b: traj_w.append(_digest(b)))
    _, log_e = TR.train_erm(TrainConfig(mode=Mode.ERM, **base), data,
                            on_step=lambda s, b: traj_e.append(_digest(b)))
    assert len(traj_w) == 6  # 24 train samples, batch 8, 2 epochs
    assert traj_w == traj_e
    assert [r.total for r in log_w.records] == [r.total for r in log_e.records]


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
    with pytest.raises(ValueError, match="empty"):
        evaluate(bundle, np.zeros((0, data.feature_dim)), cfg)


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
    """The per-item evaluate loop: a second encoder pass on clean batches, one
    `ssim` call per image and one `bleu` call per sentence."""
    frozen = bundle.frozen()
    image = bundle.task is M.TaskKind.IMAGE
    side = int(round(np.sqrt(bundle.dims.input_dim)))
    se_sum = ssim_sum = nll_sum = bleu_sum = 0.0
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

        def forward(inputs):
            if image:
                s = M.semantic_encode(frozen, inputs)
            else:
                s = M.semantic_encode_from_embeddings(frozen, inputs)
            z = apply_realization(M.channel_encode(frozen, s), realization)
            return M.semantic_decode(frozen, M.channel_decode(frozen, z))

        inputs = centers
        if attack is not None:
            mask = attacked_row_mask(len(batch), attack.sample_fraction,
                                     TR._stream(seed, TR.TAG_EVAL_ATTACK, bi))
            inputs = TR._run_attack(
                lambda leaf: M.per_sample_reconstruction_loss(frozen, batch, forward(leaf)),
                centers, attack, mask)
        out = forward(Tensor(inputs))
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


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="sub_steps"):
        TrainConfig(sub_steps=0)
    for dual_lr in (np.nan, np.inf, -0.01):
        with pytest.raises(ValueError, match="dual_lr"):
            TrainConfig(dual_lr=dual_lr)
