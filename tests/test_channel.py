import numpy as np
import pytest

from wasecom.channel import (
    RAYLEIGH_SCALE,
    ChannelConfig,
    ChannelKind,
    apply_realization,
    draw_realization,
    empirical_snr_db,
    noise_variance,
    realization_for,
    transmit,
)
from wasecom.gradcheck import check_case
from wasecom.tensor import Tensor
import wasecom.tensor as T


def test_noise_variance_example():
    # power 2.0 at 3.0103 dB is very nearly variance 1.0
    cfg = ChannelConfig(kind="awgn", snr_db=3.0103)
    assert abs(noise_variance(cfg, 2.0) - 1.0) < 1e-4


def test_noise_variance_rejects_bad_power():
    cfg = ChannelConfig(kind="awgn", snr_db=10.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            noise_variance(cfg, bad)


def test_awgn_identity_fade():
    rng = np.random.default_rng(0)
    u = Tensor(rng.normal(size=(8, 4)))
    z, r = transmit(ChannelConfig(kind="awgn", snr_db=20.0), u, rng)
    assert np.array_equal(r.h, np.ones((8, 4)))
    assert np.allclose(z.data, u.data + r.w, atol=1e-15)


def test_near_noiseless_channel_passes_signal_through():
    rng = np.random.default_rng(1)
    u = Tensor(rng.normal(size=(4, 6)))
    z, r = transmit(ChannelConfig(kind="awgn", snr_db=200.0), u, rng)
    assert np.allclose(z.data, u.data, atol=1e-8)


def test_transmit_rejects_non_finite():
    rng = np.random.default_rng(2)
    bad = Tensor(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        transmit(ChannelConfig(), bad, rng)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
def test_realization_for_is_the_draw_transmit_applies(kind):
    cfg = ChannelConfig(kind=kind, snr_db=4.0)
    u = np.random.default_rng(3).normal(size=(6, 5))
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    z, r = transmit(cfg, Tensor(u), rng_a)
    drawn = realization_for(cfg, u, rng_b)
    assert np.array_equal(drawn.h, r.h) and np.array_equal(drawn.w, r.w)
    # the same stream, drawn by hand: the fade first, then noise at the measured power's scale
    replay = np.random.default_rng(11)
    if cfg.kind is ChannelKind.RAYLEIGH:
        replay.rayleigh(scale=RAYLEIGH_SCALE, size=(6, 1))
    scale = np.sqrt(noise_variance(cfg, float(np.mean(u**2))))
    assert np.array_equal(drawn.w, replay.normal(loc=0.0, scale=scale, size=(6, 5)))
    assert np.array_equal(z.data, apply_realization(Tensor(u), drawn).data)
    assert rng_a.random() == rng_b.random()


def test_realization_for_rejects_bad_signals():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="non-finite"):
        realization_for(ChannelConfig(), np.array([[1.0, np.inf]]), rng)
    with pytest.raises(ValueError, match=r"\(batch, dim\).*\(3,\)"):
        realization_for(ChannelConfig(), np.ones(3), rng)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (32, 16), (64, 96)])
@pytest.mark.parametrize("snr_db", [-200.0, 0.0, 10.0, 200.0])
def test_draw_realization_is_a_direct_rayleigh_then_normal_draw(kind, shape, snr_db):
    batch, dim = shape
    cfg = ChannelConfig(kind=kind, snr_db=snr_db)
    power = 0.37
    key = [5, batch, dim]
    got = draw_realization(cfg, batch, dim, power, np.random.default_rng(key))
    rng = np.random.default_rng(key)
    fade = (rng.rayleigh(scale=RAYLEIGH_SCALE, size=(batch, 1))
            if kind is ChannelKind.RAYLEIGH else np.ones((batch, 1)))
    w = rng.normal(loc=0.0, scale=np.sqrt(noise_variance(cfg, power)), size=(batch, dim))
    assert got.h.shape == got.w.shape == (batch, dim)
    assert got.h.tobytes() == np.repeat(fade, dim, axis=1).tobytes()
    assert got.w.tobytes() == w.tobytes()


def test_same_seed_same_draw():
    cfg = ChannelConfig(kind="rayleigh", snr_db=5.0)
    u = Tensor(np.ones((16, 3)))
    z1, r1 = transmit(cfg, u, np.random.default_rng(77))
    z2, r2 = transmit(cfg, u, np.random.default_rng(77))
    assert np.array_equal(z1.data, z2.data)
    assert np.array_equal(r1.h, r2.h) and np.array_equal(r1.w, r2.w)


def test_awgn_noise_variance_calibration():
    # 1e5 draws land within 2% of the configured sigma^2
    cfg = ChannelConfig(kind="awgn", snr_db=7.0)
    rng = np.random.default_rng(5)
    u = Tensor(np.ones((1000, 100)))  # unit power
    _, r = transmit(cfg, u, rng)
    target = noise_variance(cfg, 1.0)
    measured = float(np.mean(r.w**2))
    assert abs(measured - target) / target < 0.02


def test_rayleigh_fade_moments():
    rng = np.random.default_rng(6)
    r = draw_realization(ChannelConfig(kind="rayleigh", snr_db=10.0), 100000, 1, 1.0, rng)
    h = r.h[:, 0]
    assert abs(np.mean(h**2) - 1.0) < 0.02
    expected_mean = RAYLEIGH_SCALE * np.sqrt(np.pi / 2.0)  # ~0.8862
    assert abs(np.mean(h) - expected_mean) / expected_mean < 0.02


def test_rayleigh_fade_is_per_sample_scalar():
    rng = np.random.default_rng(7)
    r = draw_realization(ChannelConfig(kind="rayleigh", snr_db=10.0), 32, 5, 1.0, rng)
    assert np.all(r.h == r.h[:, :1])  # constant across the signal dims
    assert len(np.unique(r.h[:, 0])) > 1  # but varies across samples


def test_empirical_snr_tracks_configured_snr():
    cfg = ChannelConfig(kind="awgn", snr_db=12.0)
    rng = np.random.default_rng(8)
    u = rng.normal(size=(1000, 100))
    u = u / np.sqrt(np.mean(u * u))
    z, r = transmit(cfg, Tensor(u), rng)
    assert abs(empirical_snr_db(r, u) - 12.0) < 0.2


def test_empirical_snr_zero_noise_capped():
    r = draw_realization(ChannelConfig(kind="awgn", snr_db=10.0), 2, 2, 1.0, np.random.default_rng(9))
    r.w[...] = 0.0
    assert empirical_snr_db(r, np.ones((2, 2))) == 200.0


def test_gradient_through_channel_is_diag_h():
    rng = np.random.default_rng(10)
    r = draw_realization(ChannelConfig(kind="rayleigh", snr_db=6.0), 3, 4, 1.0, rng)
    u = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    z = apply_realization(u, r)
    z.sum().backward()
    assert np.allclose(u.grad, r.h, atol=1e-15)


def test_channel_gradcheck_against_finite_differences():
    rng = np.random.default_rng(11)
    r = draw_realization(ChannelConfig(kind="rayleigh", snr_db=6.0), 3, 4, 1.0, rng)
    tgt = rng.normal(size=(3, 4))

    def forward(p):
        z = apply_realization(p[0], r)
        return (z - Tensor(tgt)).square().mean(axis=1).mean()

    res = check_case("channel", forward, [rng.normal(size=(3, 4))])
    assert res.ok
