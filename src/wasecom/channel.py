"""Stochastic fading channel layers.

The transmitted signal u passes through z = h * u + w.  The fade h and the
noise w are drawn per batch and treated as constants, so gradients flow
through u only (dz/du = diag(h)).  AWGN fixes h = 1; the Rayleigh channel
draws one scalar fade per sample (block fading) with scale 1/sqrt(2) so that
E[h^2] = 1 and the average received signal power is preserved.  A
realization is built in one way: `draw_units` draws a batch's unit fades and
standard-normal noise, and `scale_units` scales the noise for the batch's
measured power and the SNR.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rules import check, ruled
from .tensor import Tensor

RAYLEIGH_SCALE = 1.0 / np.sqrt(2.0)
SNR_CAP_DB = 200.0  # far beyond, 10^(snr_db/10) overflows or underflows to 0


class ChannelKind(str, enum.Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"


@dataclass
class ChannelConfig:
    kind: ChannelKind = ruled(ChannelKind, ChannelKind.AWGN)
    snr_db: float = ruled(float, 10.0, least=-SNR_CAP_DB, most=SNR_CAP_DB)

    __post_init__ = check


@dataclass
class ChannelRealization:
    """One frozen draw of fade and noise, reusable across replayed passes."""

    h: np.ndarray       # (batch, dim) fade, constant per sample
    w: np.ndarray       # (batch, dim) additive noise


def noise_variance(cfg: ChannelConfig, signal_power: float) -> float:
    """sigma^2 = signal_power / 10^(snr_db / 10)."""
    if not np.isfinite(signal_power) or signal_power <= 0:
        raise ValueError(f"signal power must be positive and finite, got {signal_power}")
    return float(signal_power / 10.0 ** (cfg.snr_db / 10.0))


@dataclass(frozen=True)
class UnitDraws:
    """A batch's channel draws before any signal power or SNR scales them."""

    fade: np.ndarray | None   # (batch, 1) Rayleigh fades; None for AWGN
    noise: np.ndarray         # (batch, dim) standard-normal noise


def draw_units(kind: ChannelKind, batch: int, dim: int, rng: np.random.Generator) -> UnitDraws:
    """Draw a batch's unit draws. Draw order is fixed: fade first, then noise."""
    fade = (rng.rayleigh(scale=RAYLEIGH_SCALE, size=(batch, 1))
            if kind is ChannelKind.RAYLEIGH else None)
    return UnitDraws(fade=fade, noise=rng.standard_normal((batch, dim)))


def scale_units(cfg: ChannelConfig, units: UnitDraws, signal_power: float) -> ChannelRealization:
    """The realization of unit draws for a batch of this power at cfg's SNR.

    w holds the bytes of rng.normal(loc=0.0, scale=sqrt(sigma^2)) on the same
    stream: numpy's normal returns loc + scale * z, hence the added zero.
    """
    scale = np.sqrt(noise_variance(cfg, signal_power))
    batch, dim = units.noise.shape
    h = np.ones((batch, dim)) if units.fade is None else np.repeat(units.fade, dim, axis=1)
    w = units.noise * scale
    w += 0.0
    return ChannelRealization(h=h, w=w)


def draw_realization(cfg: ChannelConfig, batch: int, dim: int, signal_power: float,
                     rng: np.random.Generator) -> ChannelRealization:
    """Draw (h, w) for a batch: fresh unit draws, scaled for its power."""
    return scale_units(cfg, draw_units(cfg.kind, batch, dim, rng), signal_power)


def apply_realization(u: Tensor, realization: ChannelRealization) -> Tensor:
    """z = h * u + w with h, w fixed constants; differentiable in u."""
    return T.scale_shift(u, realization.h, realization.w)


def signal_power(u: np.ndarray) -> float:
    """The mean power of a finite (batch, dim) transmit signal."""
    if not np.all(np.isfinite(u)):
        raise ValueError("transmit: non-finite signal")
    if u.ndim != 2:
        raise ValueError(f"transmit: expected (batch, dim) signal, got shape {u.shape}")
    return float(np.mean(u * u))


def realization_for(cfg: ChannelConfig, u: np.ndarray,
                    rng: np.random.Generator) -> ChannelRealization:
    """Measure the batch signal power of u and draw a channel realization for it.

    The measured power (not an assumed unit power) sets sigma^2, so the
    configured SNR is honored even without normalization.
    """
    power = signal_power(u)
    return draw_realization(cfg, *u.shape, power, rng)


def transmit(cfg: ChannelConfig, u: Tensor, rng: np.random.Generator):
    """Draw a channel realization for u's measured power and apply it.

    Returns (z, realization).
    """
    realization = realization_for(cfg, u.data, rng)
    return apply_realization(u, realization), realization


def empirical_snr_db(realization: ChannelRealization, u: np.ndarray) -> float:
    """Measured 10*log10(E[(h u)^2] / E[w^2]), capped at 200 dB."""
    received = realization.h * u
    sig = float(np.mean(received * received))
    noise = float(np.mean(realization.w * realization.w))
    if noise <= sig * 10.0 ** (-SNR_CAP_DB / 10.0):
        return SNR_CAP_DB
    return float(10.0 * np.log10(sig / noise))
