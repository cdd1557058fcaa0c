"""Ideal phase-insensitive amplifier relations, loss, and shot-noise algebra.

Photon-number in/out relations are exact; the shot-noise-unit (SNU) maps are
their bright-beam corollaries.  A coherent beam reads 1 SNU by definition.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError


def amp_mean(gain: float, n_in: float) -> float:
    """Mean output photon number of an ideal phase-insensitive amplifier."""
    if not (gain >= 1.0 and np.isfinite(gain)):
        raise InvalidParameterError(f"gain must be >= 1, got {gain}")
    if n_in < 0.0:
        raise InvalidParameterError(f"n_in must be >= 0, got {n_in}")
    return gain * n_in + gain - 1.0


def amp_variance(gain: float, n_in: float, var_in: float) -> float:
    """Output photon-number variance: G^2 var_in + G(G-1)(n_in + 1)."""
    if not (gain >= 1.0 and np.isfinite(gain)):
        raise InvalidParameterError(f"gain must be >= 1, got {gain}")
    if var_in < 0.0:
        raise InvalidParameterError(f"var_in must be >= 0, got {var_in}")
    return gain ** 2 * var_in + gain * (gain - 1.0) * (n_in + 1.0)


def snu_out(gain: float, s_in: float) -> float:
    """Bright-beam amplifier map in shot-noise units: G s_in + (G - 1).

    The result is normalized to the output beam's own shot noise.
    """
    if not (gain >= 1.0 and np.isfinite(gain)):
        raise InvalidParameterError(f"gain must be >= 1, got {gain}")
    if s_in < 0.0:
        raise InvalidParameterError(f"s_in must be >= 0, got {s_in}")
    return gain * s_in + (gain - 1.0)


def loss_channel(eta: float, s) -> float:
    """Beam-splitter loss in shot-noise units: eta*s + (1 - eta)."""
    if not (0.0 < eta <= 1.0):
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    return eta * np.asarray(s, dtype=float) + (1.0 - eta)


class DifferenceNoise(NamedTuple):
    snu: float
    db: float


def difference_noise_after_channel(gain1: float, gain2: float, eta: float,
                                   excess_db: float = 0.0) -> DifferenceNoise:
    """Twin-beam intensity-difference noise after amplifying the conjugate arm.

    Composes the seeded-pair statistics with an independent ideal
    phase-insensitive amplifier of gain ``gain2`` on the conjugate, detection
    efficiency ``eta`` on both arms, and a flat technical excess added to the
    normalized difference.  Returned in shot-noise units of the *output*
    total power, and in dB.
    """
    if not (gain1 >= 1.0 and np.isfinite(gain1)):
        raise InvalidParameterError(f"gain1 must be >= 1, got {gain1}")
    if not (gain2 >= 1.0 and np.isfinite(gain2)):
        raise InvalidParameterError(f"gain2 must be >= 1, got {gain2}")
    if excess_db < 0.0:
        raise InvalidParameterError(f"excess_db must be >= 0, got {excess_db}")
    g1, g2 = float(gain1), float(gain2)
    numerator = (
        g1 * (2.0 * g1 - 1.0)
        + g2 ** 2 * (g1 - 1.0) * (2.0 * g1 - 1.0)
        + g2 * (g2 - 1.0) * (g1 - 1.0)
        - 4.0 * g2 * g1 * (g1 - 1.0)
    )
    denominator = g1 + g2 * (g1 - 1.0)
    snu = float(loss_channel(eta, numerator / denominator))
    snu += 10.0 ** (excess_db / 10.0) - 1.0
    return DifferenceNoise(snu=snu, db=10.0 * np.log10(snu))
