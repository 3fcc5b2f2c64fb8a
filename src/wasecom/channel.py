"""Stochastic fading channel layers.

The transmitted signal u passes through z = h * u + w.  The fade h and the
noise w are drawn per batch and treated as constants, so gradients flow
through u only (dz/du = diag(h)).  AWGN fixes h = 1; the Rayleigh channel
draws one scalar fade per sample (block fading) with scale 1/sqrt(2) so that
E[h^2] = 1 and the average received signal power is preserved.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

RAYLEIGH_SCALE = 1.0 / np.sqrt(2.0)
SNR_CAP_DB = 200.0


class ChannelKind(str, enum.Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"


@dataclass
class ChannelConfig:
    kind: ChannelKind = ChannelKind.AWGN
    snr_db: float = 10.0

    def __post_init__(self):
        self.kind = ChannelKind(self.kind)
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if abs(self.snr_db) > SNR_CAP_DB:  # far beyond, 10^(snr_db/10) overflows or underflows to 0
            raise ValueError(f"snr_db must lie in [-{SNR_CAP_DB:g}, {SNR_CAP_DB:g}], got {self.snr_db}")


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


def draw_realization(cfg: ChannelConfig, batch: int, dim: int, signal_power: float,
                     rng: np.random.Generator) -> ChannelRealization:
    """Draw (h, w) for a batch. Draw order is fixed: fade first, then noise."""
    if cfg.kind is ChannelKind.RAYLEIGH:
        fade = rng.rayleigh(scale=RAYLEIGH_SCALE, size=(batch, 1))
        h = np.repeat(fade, dim, axis=1)
    else:
        h = np.ones((batch, dim))
    sigma2 = noise_variance(cfg, signal_power)
    w = rng.normal(loc=0.0, scale=np.sqrt(sigma2), size=(batch, dim))
    return ChannelRealization(h=h, w=w)


def apply_realization(u: Tensor, realization: ChannelRealization) -> Tensor:
    """z = h * u + w with h, w fixed constants; differentiable in u."""
    return T.scale_shift(u, realization.h, realization.w)


def realization_for(cfg: ChannelConfig, u: np.ndarray,
                    rng: np.random.Generator) -> ChannelRealization:
    """Measure the batch signal power of u and draw a channel realization for it.

    The measured power (not an assumed unit power) sets sigma^2, so the
    configured SNR is honored even without normalization.
    """
    if not np.all(np.isfinite(u)):
        raise ValueError("transmit: non-finite signal")
    if u.ndim != 2:
        raise ValueError(f"transmit: expected (batch, dim) signal, got shape {u.shape}")
    batch, dim = u.shape
    power = float(np.mean(u * u))
    return draw_realization(cfg, batch, dim, power, rng)


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
