"""Release gate: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get a single pass/fail line
per criterion.  The trained-model fixtures are module-scoped because the
image criteria (8, 9, 12) and the text criterion (10) each reuse one
ERM/robust pair; training both pairs takes well under a minute on CPU.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import wasecom.ot as ot
from wasecom.channel import ChannelConfig, ChannelKind, draw_realization, noise_variance
from wasecom.data import generate_synthetic_images, generate_synthetic_text, ingest_cifar10_binary
from wasecom.gradcheck import random_graph_suite
from wasecom.metrics import bleu, psnr_from_mse, ssim
from wasecom.models import ModelDims, load_checkpoint, save_checkpoint
from wasecom.objectives import RobustnessConfig, lse_combine
from wasecom.perturb import PerturbMethod, PerturbSpec
from wasecom.tensor import Tensor
from wasecom.training import Mode, TrainConfig, evaluate, train_erm, train_wasecom

EVAL_SEED = 123


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def image_pair():
    """ERM and robust bundles trained with equal step budgets on 8x8 images."""
    data = generate_synthetic_images(2048, side=8, seed=0)
    dims = ModelDims(64, 16, 16, 32)
    base = dict(epochs=20, batch_size=32, lr=2e-3, seed=0,
                channel=ChannelConfig(ChannelKind.AWGN, 10.0))
    erm, _ = train_erm(TrainConfig(mode=Mode.ERM, **base), data, dims=dims)
    robust, _ = train_wasecom(TrainConfig(
        mode=Mode.WASECOM,
        robustness=RobustnessConfig(rho=0.5, mu=0.1),
        perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.5, epsilon_inf=1.0, steps=3),
        perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.1, epsilon_inf=1.0),
        **base), data, dims=dims)
    return erm, robust, data


@pytest.fixture(scope="module")
def text_pair():
    """ERM and robust bundles on the near-deterministic bigram text task."""
    data = generate_synthetic_text(2048, vocab_size=8, max_len=8, seed=0)
    dims = ModelDims(64, 32, 96, 64, vocab_size=8, seq_len=8, embed_dim=8)
    base = dict(epochs=60, batch_size=32, lr=2e-3, seed=0,
                channel=ChannelConfig(ChannelKind.AWGN, 3.0))
    erm, _ = train_erm(TrainConfig(mode=Mode.ERM, **base), data, dims=dims)
    robust, _ = train_wasecom(TrainConfig(
        mode=Mode.WASECOM,
        robustness=RobustnessConfig(rho=0.05, mu=0.3),
        perturb_inner=PerturbSpec(PerturbMethod.PGD, radius=0.05, epsilon_inf=1.0, steps=3),
        perturb_outer=PerturbSpec(PerturbMethod.FGSM, radius=0.3, epsilon_inf=1.0),
        **base), data, dims=dims)
    return erm, robust, data


@pytest.fixture(scope="module")
def theory_reports():
    t0 = time.perf_counter()
    reports = ot.run_theory_suite(n_ball_samples=100, seed=0)
    return reports, time.perf_counter() - t0


# ------------------------------------------------------------- criteria

def test_criterion_01_autodiff_matches_finite_differences():
    t0 = time.perf_counter()
    results = random_graph_suite(n_graphs=50, seed=0, rel_tol=1e-4, abs_tol=1e-6)
    elapsed = time.perf_counter() - t0
    assert len(results) == 50
    bad = [f"{r.name}: rel={r.max_rel_err:.2e} abs={r.max_abs_err:.2e}"
           for r in results if not r.ok]
    assert not bad, "gradient mismatches:\n" + "\n".join(bad)
    assert elapsed < 30.0, f"gradcheck suite took {elapsed:.1f}s"


def test_criterion_02_duality_gap_within_two_percent(theory_reports):
    reports, elapsed = theory_reports
    assert len(reports) >= 10
    for r in reports:
        assert r.assertions["duality_gap"], \
            f"{r.instance}: primal={r.primal:.6g} dual={r.dual:.6g} rel_gap={r.rel_gap:.3%}"
    closed = {r.instance: r for r in reports}["dirac-linear"]
    assert closed.primal == pytest.approx(0.5, abs=1e-6)
    assert closed.dual == pytest.approx(0.5, abs=1e-3)
    assert elapsed < 60.0, f"theory suite took {elapsed:.1f}s"


def test_criterion_03_dual_dominates_every_ball_member(theory_reports):
    reports, _ = theory_reports
    violations = [r.instance for r in reports if not r.assertions["dual_dominates_ball"]]
    assert violations == [], f"dual fell below an in-ball expectation on: {violations}"


def test_criterion_04_excess_risk_sandwich():
    P = ot.DiscreteDistribution(np.array([[-0.5], [0.5]]), np.array([0.5, 0.5]))
    grid = ot.grid_1d(-1.5, 1.5, 301)
    family = [
        lambda x: float(x[0]),
        lambda x: 0.5 * float(x[0]) + 0.1,
        lambda x: -float(x[0]),
    ]
    report = ot.check_lemma1(P, family, member=0, rho=0.3, lam=4.0, grid=grid,
                             lipschitz=1.0, rng=np.random.default_rng(2))
    assert report.passed, report.assertions
    assert report.sandwich_margin >= 0.05, \
        f"sandwich slack {report.sandwich_margin:.3f} below the 5% floor"
    with pytest.raises(ValueError, match="below L/rho"):
        ot.check_lemma1(P, family, member=0, rho=0.3, lam=1.0, grid=grid, lipschitz=1.0)


def test_criterion_05_lse_sandwich():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        v = rng.normal(scale=rng.uniform(0.1, 10.0), size=k)
        top = v.max()
        for eps in (1.0, 0.1, 0.01):
            s = float(lse_combine(Tensor(v[:, None]), eps).data[0])
            assert s <= top + 1e-9
            assert s >= top - eps * math.log(k) - 1e-9


def test_criterion_06_channel_calibration():
    rng = np.random.default_rng(6)
    awgn = ChannelConfig(ChannelKind.AWGN, 7.0)
    power = 1.3
    real = draw_realization(awgn, 100_000, 1, power, rng)
    sigma2 = noise_variance(awgn, power)
    assert float(real.w.var()) == pytest.approx(sigma2, rel=0.02)
    ray = draw_realization(ChannelConfig(ChannelKind.RAYLEIGH, 7.0), 100_000, 1, power, rng)
    h = ray.h[:, 0]
    assert float(h.mean()) == pytest.approx(0.8862, rel=0.02)
    assert float((h ** 2).mean()) == pytest.approx(1.0, rel=0.02)


def test_criterion_07_zero_radius_training_is_bitwise_erm():
    data = generate_synthetic_images(64, side=6, seed=3)   # 48 training samples
    dims = ModelDims(36, 12, 12, 24)
    base = dict(epochs=34, batch_size=8, lr=1e-3, seed=11,
                robustness=RobustnessConfig(rho=0.0, mu=0.0),
                channel=ChannelConfig(ChannelKind.RAYLEIGH, 10.0))

    def digest(bundle):
        return hashlib.sha256(bundle.param_bytes()).hexdigest()

    traj = {}
    for mode, trainer in ((Mode.WASECOM, train_wasecom), (Mode.ERM, train_erm)):
        hashes = []
        trainer(TrainConfig(mode=mode, **base), data, dims=dims,
                on_step=lambda s, b, acc=hashes: acc.append(digest(b)))
        traj[mode] = hashes
    assert len(traj[Mode.ERM]) >= 200
    assert traj[Mode.WASECOM] == traj[Mode.ERM]


# Nine robustness cells: the full AWGN half of the (snr x fraction x channel)
# cube plus three Rayleigh cells spanning its diagonal.
ROBUSTNESS_CELLS = [
    (ChannelKind.AWGN, 0.0, 0.1), (ChannelKind.AWGN, 0.0, 0.3),
    (ChannelKind.AWGN, 10.0, 0.1), (ChannelKind.AWGN, 10.0, 0.3),
    (ChannelKind.AWGN, 20.0, 0.1), (ChannelKind.AWGN, 20.0, 0.3),
    (ChannelKind.RAYLEIGH, 0.0, 0.3), (ChannelKind.RAYLEIGH, 10.0, 0.1),
    (ChannelKind.RAYLEIGH, 20.0, 0.3),
]


def _image_drops(bundle, data, kind, snr, fraction):
    cfg = ChannelConfig(kind, snr)
    clean = evaluate(bundle, data, cfg, None, seed=EVAL_SEED)
    attack = PerturbSpec(PerturbMethod.FGSM, radius=1.0, epsilon_inf=1.0,
                         sample_fraction=fraction)
    hit = evaluate(bundle, data, cfg, attack, seed=EVAL_SEED)
    return clean.psnr_db - hit.psnr_db, clean.ssim - hit.ssim


def test_criterion_08_attacked_degradation_smaller_for_robust_model(image_pair):
    erm, robust, data = image_pair
    psnr_wins = ssim_wins = 0
    lines = []
    for kind, snr, frac in ROBUSTNESS_CELLS:
        ep, es = _image_drops(erm, data, kind, snr, frac)
        rp, rs = _image_drops(robust, data, kind, snr, frac)
        psnr_wins += rp < ep
        ssim_wins += rs < es
        lines.append(f"{kind.value} snr={snr:g} frac={frac}: "
                     f"psnr drop {rp:.3f} vs {ep:.3f}, ssim drop {rs:.4f} vs {es:.4f}")
    detail = "\n".join(lines)
    assert psnr_wins >= 8, f"psnr wins {psnr_wins}/9\n{detail}"
    assert ssim_wins >= 7, f"ssim wins {ssim_wins}/9\n{detail}"


def test_criterion_09_clean_parity_at_high_snr(image_pair):
    erm, robust, data = image_pair
    cfg = ChannelConfig(ChannelKind.AWGN, 20.0)
    erm_psnr = evaluate(erm, data, cfg, None, seed=EVAL_SEED).psnr_db
    rob_psnr = evaluate(robust, data, cfg, None, seed=EVAL_SEED).psnr_db
    assert rob_psnr >= 0.9 * erm_psnr, f"{rob_psnr:.2f} dB vs ERM {erm_psnr:.2f} dB"


def test_criterion_10_text_trend_and_attacked_bleu(text_pair):
    erm, robust, data = text_pair
    curve = [evaluate(robust, data, ChannelConfig(ChannelKind.AWGN, s), None,
                      seed=EVAL_SEED).bleu for s in (0.0, 6.0, 12.0, 18.0)]
    for lo, hi in zip(curve, curve[1:]):
        assert hi >= lo - 0.02, f"BLEU dips along the snr sweep: {curve}"
    wins = 0
    cells = []
    for snr in (0.0, 6.0):
        for frac in (0.1, 0.3):
            attack = PerturbSpec(PerturbMethod.FGSM, radius=0.01, epsilon_inf=1.0,
                                 sample_fraction=frac)
            cfg = ChannelConfig(ChannelKind.AWGN, snr)
            b_erm = evaluate(erm, data, cfg, attack, seed=EVAL_SEED).bleu
            b_rob = evaluate(robust, data, cfg, attack, seed=EVAL_SEED).bleu
            wins += b_rob >= b_erm
            cells.append(f"snr={snr:g} frac={frac}: {b_rob:.4f} vs {b_erm:.4f}")
    assert wins >= 3, "attacked BLEU wins %d/4\n%s" % (wins, "\n".join(cells))


def test_criterion_11_metric_identities():
    assert psnr_from_mse(0.01, max_val=1.0) == pytest.approx(20.0, abs=1e-12)
    x = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    assert ssim(x, x) == 1.0
    got = bleu("a b".split(), ["a b c d".split()], max_n=2)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_criterion_12_checkpoint_roundtrip_and_cifar_ingestion(image_pair, tmp_path):
    _, robust, data = image_pair
    cfg = ChannelConfig(ChannelKind.AWGN, 10.0)
    before = evaluate(robust, data, cfg, None, seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(robust, path)
    after = evaluate(load_checkpoint(path), data, cfg, None, seed=9)
    assert after == before  # dataclass equality: bit-exact floats

    record = lambda label: bytes([label]) + bytes(range(256)) * 12
    good = tmp_path / "batch.bin"
    good.write_bytes(record(1) + record(7))
    parsed = ingest_cifar10_binary(good, side=16)
    assert parsed.feature_dim == 256
    assert len(parsed.train) + len(parsed.eval) == 2

    bad = tmp_path / "cut.bin"
    bad.write_bytes(record(1) + record(7)[:100])
    with pytest.raises(ValueError, match="offset 3073"):
        ingest_cifar10_binary(bad, side=16)
