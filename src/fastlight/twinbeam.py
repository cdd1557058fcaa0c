"""Closed-form second-order statistics of seeded four-wave-mixing twin beams.

All photon numbers are per analysis interval (per sample in the simulator).
The bright-beam limit is used: terms of order one are dropped against terms
of order the seed photon number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class TwinBeamSource:
    """Seeded two-mode amplifier producing a probe/conjugate pair.

    gain1: linear gain of the seeded process, >= 1.
    seed_flux: mean seed photon number per analysis interval, > 0.
    pair_bandwidth: full width (Hz) over which the beams are correlated.
    rolloff: pole order of the correlation-band corner at pair_bandwidth/2;
        1 gives a single-pole Lorentzian shoulder, the default 2 keeps the
        band flat through a few MHz before rolling off.
    coherent: an uncorrelated pair of coherent beams with the twin pair's
        means instead, each on the shot floor.
    """

    gain1: float
    seed_flux: float
    pair_bandwidth: float = 20e6
    rolloff: float = 2.0
    coherent: bool = False

    def __post_init__(self):
        if not (self.gain1 >= 1.0 and np.isfinite(self.gain1)):
            raise InvalidParameterError(f"gain1 must be >= 1, got {self.gain1}")
        if not (self.seed_flux > 0.0 and np.isfinite(self.seed_flux)):
            raise InvalidParameterError(f"seed_flux must be > 0, got {self.seed_flux}")
        if not (self.pair_bandwidth > 0.0):
            raise InvalidParameterError(f"pair_bandwidth must be > 0, got {self.pair_bandwidth}")
        if not (self.rolloff > 0.0):
            raise InvalidParameterError(f"rolloff must be > 0, got {self.rolloff}")


@dataclass(frozen=True)
class BeamStats:
    """Means, variances and covariance of the photon numbers of the pair."""

    mean_p: float
    mean_c: float
    var_p: float
    var_c: float
    cov_pc: float

    def __post_init__(self):
        if self.var_p < 0.0 or self.var_c < 0.0:
            raise InvalidParameterError("variances must be non-negative")
        bound = np.sqrt(self.var_p * self.var_c)
        if abs(self.cov_pc) > bound * (1.0 + 1e-12) + 1e-30:
            raise InvalidParameterError("covariance violates Cauchy-Schwarz")


def seeded_stats(gain1: float, seed_flux: float) -> BeamStats:
    """Bright-seed statistics of the amplified probe and generated conjugate.

    With G the gain and n0 the seed flux: mean_p = G n0, mean_c = (G-1) n0,
    var_p = G(2G-1) n0, var_c = (G-1)(2G-1) n0, cov = 2G(G-1) n0.  The
    implied intensity-difference variance is exactly n0.
    """
    if not (gain1 >= 1.0 and np.isfinite(gain1)):
        raise InvalidParameterError(f"gain1 must be >= 1, got {gain1}")
    if not (seed_flux > 0.0):
        raise InvalidParameterError(f"seed_flux must be > 0, got {seed_flux}")
    g1 = float(gain1)
    n0 = float(seed_flux)
    return BeamStats(
        mean_p=g1 * n0,
        mean_c=(g1 - 1.0) * n0,
        var_p=g1 * (2.0 * g1 - 1.0) * n0,
        var_c=(g1 - 1.0) * (2.0 * g1 - 1.0) * n0,
        cov_pc=2.0 * g1 * (g1 - 1.0) * n0,
    )


def intensity_difference_variance(stats: BeamStats) -> float:
    """Variance of the photon-number difference, var_p + var_c - 2 cov."""
    return stats.var_p + stats.var_c - 2.0 * stats.cov_pc


def squeezing_db(gain1: float) -> float:
    """Intensity-difference noise of the pair relative to the coherent-state
    reference of the same total power, in dB (negative = squeezed).

    Equals 10*log10(1 / (2*gain1 - 1)).
    """
    if not (gain1 >= 1.0 and np.isfinite(gain1)):
        raise InvalidParameterError(f"gain1 must be >= 1, got {gain1}")
    return -10.0 * np.log10(2.0 * gain1 - 1.0)


def gain_for_squeezing(squeezing_db_target: float) -> float:
    """Invert ``squeezing_db``: the gain that yields the requested dB level."""
    if squeezing_db_target > 0.0:
        raise InvalidParameterError(
            f"squeezing must be <= 0 dB, got {squeezing_db_target}")
    return (10.0 ** (-squeezing_db_target / 10.0) + 1.0) / 2.0
