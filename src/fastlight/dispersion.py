"""Lorentzian gain-line dispersion model.

Conventions used throughout:

* Plane waves propagate as exp(i(n*omega*z/c - omega*t)), so gain corresponds
  to Im(n) <= 0.  With this choice the gain profile expressed in dB is an
  exact Lorentzian in the detuning, with half width at half maximum ``gamma``.
* ``delta`` always denotes the angular offset (rad/s) of the light from the
  line center; modulation sideband frequencies ``f`` are in Hz.
* ``modulation_transfer`` returns the transfer that multiplies the
  positive-frequency bins of a numpy-convention FFT of the intensity
  fluctuations, i.e. a transfer exp(-2j*pi*f*tau) delays the envelope by tau
  and -(1/2pi) d(arg M)/df at f -> 0 equals the group delay (L/c)(n_g - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

LIGHT_SPEED = 299_792_458.0
"""Vacuum speed of light, m/s."""

DEFAULT_WAVELENGTH = 795e-9
"""Optical carrier wavelength used when none is given, m."""

OMEGA_DEFAULT = 2.0 * np.pi * LIGHT_SPEED / DEFAULT_WAVELENGTH
"""Angular optical frequency of the default carrier, rad/s."""

DEFAULT_CELL_LENGTH = 0.025
"""Default propagation length through the medium, m."""


@dataclass(frozen=True)
class GainLine:
    """Parameters of a single Lorentzian gain line plus the cell geometry.

    g: dimensionless gain coefficient, >= 0.
    gamma: angular half width at half maximum of the line, rad/s.
    omega0: line-center angular optical frequency, rad/s (bookkeeping only;
        all operations take detunings relative to it).
    omega_carrier: angular optical frequency of the probe carrier, rad/s.
    length: propagation length through the medium, m.
    """

    g: float
    gamma: float
    omega0: float = OMEGA_DEFAULT
    omega_carrier: float = OMEGA_DEFAULT
    length: float = DEFAULT_CELL_LENGTH

    def __post_init__(self):
        if not (self.g >= 0.0 and np.isfinite(self.g)):
            raise InvalidParameterError(f"gain coefficient g must be >= 0, got {self.g}")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma}")
        if not (self.omega0 > 0.0 and self.omega_carrier > 0.0):
            raise InvalidParameterError("optical frequencies must be positive")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise InvalidParameterError(f"length must be > 0, got {self.length}")


def refractive_index(line: GainLine, delta):
    """Complex refractive index at angular detuning ``delta`` from line center.

    n(delta) = 1 + (g/4pi) * gamma / (delta + i*gamma).  Im(n) <= 0 for g >= 0
    (gain convention).
    """
    delta = np.asarray(delta, dtype=float)
    return 1.0 + (line.g / (4.0 * np.pi)) * line.gamma / (delta + 1j * line.gamma)


def _dn_ddelta(line: GainLine, delta):
    # Closed-form derivative of the Lorentzian index with respect to detuning.
    delta = np.asarray(delta, dtype=float)
    return -(line.g / (4.0 * np.pi)) * line.gamma / (delta + 1j * line.gamma) ** 2


def group_index(line: GainLine, delta):
    """Group index n_g = Re n + omega * Re dn/domega at detuning ``delta``."""
    n = refractive_index(line, delta)
    return n.real + line.omega_carrier * _dn_ddelta(line, delta).real


def intensity_gain(line: GainLine, delta):
    """Linear intensity (power) gain after propagating through the cell."""
    n = refractive_index(line, delta)
    k0L = line.omega_carrier * line.length / LIGHT_SPEED
    return np.exp(-2.0 * n.imag * k0L)


def gain_db(line: GainLine, delta):
    """Intensity gain in dB; exactly Lorentzian in ``delta`` with HWHM gamma."""
    return 10.0 * np.log10(intensity_gain(line, delta))


def peak_advance(line: GainLine, delta):
    """Pulse-peak time shift (L/c)(n_g - 1) in seconds; negative = advancement."""
    return (line.length / LIGHT_SPEED) * (group_index(line, delta) - 1.0)


def calibrate(peak_gain_db: float, fwhm: float, length: float = DEFAULT_CELL_LENGTH,
              omega_carrier: float = OMEGA_DEFAULT) -> GainLine:
    """Build a line whose dB-gain profile has the given peak and FWHM.

    ``fwhm`` is the full width at half maximum, in Hz, of the gain profile
    expressed in dB.  The returned line satisfies
    10*log10(intensity_gain(line, 0)) == peak_gain_db and halves its dB gain
    at delta = +/- pi*fwhm rad/s; the round trip is exact to rounding.
    """
    if not (peak_gain_db >= 0.0 and np.isfinite(peak_gain_db)):
        raise InvalidParameterError(f"peak_gain_db must be >= 0, got {peak_gain_db}")
    if not (fwhm > 0.0 and np.isfinite(fwhm)):
        raise InvalidParameterError(f"fwhm must be > 0, got {fwhm}")
    if not (length > 0.0 and np.isfinite(length)):
        raise InvalidParameterError(f"length must be > 0, got {length}")
    gamma = np.pi * fwhm
    # Peak gain G0 = exp(g * omega * L / (2*pi*c)); invert for g.
    g = peak_gain_db * np.log(10.0) / 10.0 * 2.0 * np.pi * LIGHT_SPEED / (omega_carrier * length)
    return GainLine(g=g, gamma=gamma, omega0=omega_carrier,
                    omega_carrier=omega_carrier, length=length)


def field_transfer(line: GainLine, delta):
    """Single-sideband field transfer H = exp(i (n-1) omega L / c).

    |H|^2 equals ``intensity_gain`` identically.
    """
    k0L = line.omega_carrier * line.length / LIGHT_SPEED
    return np.exp(1j * (refractive_index(line, delta) - 1.0) * k0L)


def modulation_transfer(line: GainLine, carrier_offset: float, f):
    """Relative intensity-modulation transfer of the medium.

    carrier_offset: angular offset (rad/s) of the optical carrier from line
        center.
    f: modulation (sideband) frequency grid in Hz; may be any real array with
        |f| well below the optical frequency.

    Combines the two optical sidebands at carrier_offset +/- 2*pi*f beating
    against the carrier, normalized so M(0) = 1.  Hermitian in f:
    M(-f) = conj(M(f)), so applying M on a numpy FFT grid keeps real signals
    real.  The small-f phase slope satisfies
    -(1/2pi) d(arg M)/df = (L/c)(n_g(carrier_offset) - 1) up to a correction
    of order |Re n - 1| ~ 1e-6 of the group term.
    """
    f = np.asarray(f, dtype=float)
    if np.any(np.abs(f) >= line.omega_carrier / (2.0 * np.pi) / 2.0):
        raise InvalidParameterError("sideband frequencies must be far below the optical carrier")
    h0 = field_transfer(line, carrier_offset)
    h_up = field_transfer(line, carrier_offset + 2.0 * np.pi * f)
    h_dn = field_transfer(line, carrier_offset - 2.0 * np.pi * f)
    return (h0 * np.conj(h_up) + h_dn * np.conj(h0)) / (2.0 * np.abs(h0) ** 2)


def line_response(line: GainLine, carrier_offset: float, f):
    """The line's effect on intensity fluctuations at sideband frequencies f.

    Returns (G, transfer, added) for the carrier at angular offset
    ``carrier_offset``: the carrier's intensity gain G, the absolute transfer
    G * M(f), and the added amplifier noise (Gbar - 1) * Gbar / G in
    output-beam shot-noise units, where Gbar(f) is the intensity gain averaged
    over the two sidebands at carrier_offset +/- 2*pi*f.
    """
    gain0 = float(intensity_gain(line, carrier_offset))
    transfer = gain0 * modulation_transfer(line, carrier_offset, f)
    g_bar = 0.5 * (intensity_gain(line, carrier_offset + 2.0 * np.pi * f)
                   + intensity_gain(line, carrier_offset - 2.0 * np.pi * f))
    return gain0, transfer, (g_bar - 1.0) * g_bar / gain0
