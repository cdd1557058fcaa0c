"""Seeded synthesis, propagation and detection of correlated photocurrent
spectra: the measurement chain as kernels on rfft spectra.

The photocurrent model is semiclassical: each record holds zero-mean
fluctuations (photons per sample) riding on a bright mean flux that is
tracked separately.  A coherent beam of mean flux ``m`` has white fluctuations
with per-sample variance ``m`` (1 shot-noise unit).  The chain runs on rfft
spectra so that target spectra are hit exactly in expectation: an rfft bin of
an N-sample record carries E|X[k]|^2 = N * m * s(f_k) when the one-sided
spectrum in shot-noise units is s(f).  Record lengths are powers of two, so
the rfft grid ends on a real Nyquist bin.

Reproducibility: every stochastic operation takes a seed (int,
numpy.random.SeedSequence or Generator).  The scenarios draw each trace from
one Generator keyed by its (point, trace) spawn key, so results are
independent of execution order.  Outputs are bit-identical for identical
seeds on one platform; across platforms FFT rounding limits agreement to
~1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersion import GainLine, line_response
from .errors import InvalidParameterError
from .twinbeam import TwinBeamSource


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralTargets:
    """One-sided spectral targets for a correlated trace pair, in SNU.

    s_pc is normalized by the geometric mean of the two shot levels, so the
    per-bin spectral matrix [[s_pp, s_pc], [s_pc*, s_cc]] must be positive
    semidefinite.
    """

    frequencies: np.ndarray
    s_pp: np.ndarray
    s_cc: np.ndarray
    s_pc: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        if f.ndim != 1 or np.any(np.diff(f) <= 0) or f[0] < 0:
            raise InvalidParameterError("frequency grid must be non-negative and increasing")
        for name in ("s_pp", "s_cc", "s_pc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != f.shape:
                raise InvalidParameterError(f"{name} must match the frequency grid")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "frequencies", f)
        if np.any(self.s_pp < 0) or np.any(self.s_cc < 0):
            raise InvalidParameterError("auto-spectra must be non-negative")
        if np.any(self.s_pc ** 2 > self.s_pp * self.s_cc * (1.0 + 1e-12)):
            raise InvalidParameterError("per-bin spectral matrix is not positive semidefinite")


def build_targets(source: TwinBeamSource, frequencies) -> SpectralTargets:
    """Spectral embedding of the seeded-pair statistics.

    In band both beams sit at 2*G1 - 1 SNU individually while the difference
    sits at 1/(2*G1 - 1); out of band everything relaxes to the shot floor.
    The cross spectrum is s_pc = 2 sqrt(G1 (G1-1)) * w(f), which distributes
    the closed-form covariance over the correlation band and keeps the
    per-bin spectral matrix positive definite for any weight w in [0, 1].
    The weight rolls off the correlation band: 1 in band, 1/2 at half the
    pair bandwidth, -> 0 far outside.  A coherent source has weight 0, so
    s_pp = s_cc = 1 and s_pc = 0.
    """
    f = np.asarray(frequencies, dtype=float)
    corner = source.pair_bandwidth / 2.0
    w = np.zeros_like(f)
    if not source.coherent:
        # Far past a tiny corner the power overflows to inf, and 1 / (1 + inf)
        # = 0 is the weight's limit there.
        with np.errstate(over="ignore"):
            w = 1.0 / (1.0 + np.abs(f / corner) ** (2.0 * source.rolloff))
    g1 = source.gain1
    excess = 2.0 * (g1 - 1.0) * w
    s_pp = 1.0 + excess
    s_cc = 1.0 + excess
    s_pc = 2.0 * np.sqrt(g1 * (g1 - 1.0)) * w
    return SpectralTargets(frequencies=f, s_pp=s_pp, s_cc=s_cc, s_pc=s_pc)


def _rfft_freqs(n_samples: int, sample_rate: float, bins: int) -> np.ndarray:
    """``np.fft.rfftfreq(n_samples, 1 / sample_rate)[:bins]`` to the bit,
    computed on those bins only."""
    return np.arange(bins) * (1.0 / (n_samples * (1.0 / sample_rate)))


def _require_power_of_two(n_samples: int):
    if not _is_power_of_two(n_samples):
        raise InvalidParameterError(f"n_samples must be a power of two, got {n_samples}")


def synthesis_factors(targets: SpectralTargets, n_samples: int, sample_rate: float,
                      mean_p: float, mean_c: float):
    """Per-bin Cholesky factors (sigma_p, l21, l22) of the pair's bin covariance.

    They scale unit circular Gaussians into rfft bins of an n_samples-long
    pair hitting the targets; they depend only on the targets and the means,
    so a scan point builds them once for all its traces.  The targets may
    cover only the first bins of the rfft grid; the factors then hold those.
    """
    _require_power_of_two(n_samples)
    if mean_p <= 0.0 or mean_c < 0.0:  # a coherent pair at gain1 = 1 has a dark conjugate
        raise InvalidParameterError("mean fluxes must be positive, the conjugate's >= 0")
    bins = targets.frequencies.size
    if bins > n_samples // 2 + 1 or not np.allclose(
            targets.frequencies, _rfft_freqs(n_samples, sample_rate, bins),
            rtol=1e-9, atol=1e-3):
        raise InvalidParameterError(
            "targets grid is not the rfft grid of (n_samples, sample_rate) or its first bins")
    s_pp, s_cc, s_pc = targets.s_pp, targets.s_cc, targets.s_pc
    sigma_p = np.sqrt(n_samples * mean_p * s_pp)
    l21 = np.sqrt(n_samples * mean_c) * s_pc / np.sqrt(s_pp)
    l22 = np.sqrt(n_samples * mean_c) * np.sqrt(np.maximum(s_cc - s_pc ** 2 / s_pp, 0.0))
    return sigma_p, l21, l22


def synth_twin_spectra(factors, seed, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one correlated pair of rfft spectra of n_samples records from
    ``synthesis_factors``: unit white spectra u_p, then u_c, mixed as
    p = sigma_p u_p and c = l21 u_p + l22 u_c; bin 0 is zero (zero-mean
    traces), Nyquist real.  Factors on the first bins of the grid draw the
    pair on those bins only, and its last bin is then interior.
    """
    sigma_p, l21, l22 = factors
    if not 1 <= sigma_p.size <= n_samples // 2 + 1:
        raise InvalidParameterError(f"synthesis factors of {sigma_p.size} bins do not fit "
                                    f"the rfft grid of {n_samples} samples")
    rng = np.random.default_rng(seed)
    u_p, u_c = (white_spectrum(n_samples, 1.0 / n_samples, rng,
                               add_to=np.zeros(sigma_p.size, dtype=complex)) for _ in range(2))
    u_c *= l22
    u_c += l21 * u_p
    u_p *= sigma_p
    u_p[0] = u_c[0] = 0.0
    return u_p, u_c


def white_spectrum(n_samples: int, variance, seed, add_to=None) -> np.ndarray:
    """The rfft of n_samples independent zero-mean Gaussian samples of
    per-sample variance v, drawn directly: the chain's one draw kernel.  v
    is ``variance``, a scalar or one value per drawn bin (a noise spectrum).
    DC and Nyquist are real N(0, n*v); every interior bin has independent
    real and imaginary parts N(0, n*v/2), the exact distribution of
    ``np.fft.rfft`` of white samples.  seed may be anything
    ``np.random.default_rng`` accepts, a Generator included.  With
    ``add_to`` (a complex array on the same rfft grid, or on its first bins
    only) the draw is added to it in place and it is returned.  On
    K < n/2 + 1 bins it is K real parts, then K imaginary parts: the real
    parts are the whole grid's first K, and there is no Nyquist bin.
    """
    _require_power_of_two(n_samples)
    nb = n_samples // 2 + 1
    bins = nb if add_to is None else add_to.size
    if not 1 <= bins <= nb:
        raise InvalidParameterError(f"add_to must hold 1 to {nb} bins, got {bins}")
    variance = np.asarray(variance, dtype=float)
    if (variance.ndim and variance.shape != (bins,)
            or not (variance.min() >= 0.0 and variance.max() < np.inf)):
        raise InvalidParameterError(f"variance must be finite, >= 0 and a scalar or one "
                                    f"per drawn bin ({bins}), got shape {variance.shape}")
    out = np.zeros(nb, dtype=complex) if add_to is None else add_to
    rng = np.random.default_rng(seed)
    scale = np.sqrt(0.5 * n_samples * variance)
    z = rng.standard_normal(bins)
    z *= scale
    z[0] *= np.sqrt(2.0)
    if bins == nb:
        z[-1] *= np.sqrt(2.0)
    out.real += z
    rng.standard_normal(out=z)
    z *= scale
    z[0] = 0.0
    if bins == nb:
        z[-1] = 0.0
    out.imag += z
    return out


class ChannelResponse(NamedTuple):
    """Constants of the dispersive gain line for one offset, input mean and
    rfft grid.

    transfer: absolute transfer G(offset) * M(f), with real DC and Nyquist
        bins; exactly 1 on a line with no gain.
    noise_var: per-bin variance of the added noise in the records' flux
        units, as ``white_spectrum`` takes it: the line's amplifier noise
        plus the flat excess, 0 at DC.  Exactly 0 on a line with no gain
        and no excess.
    mean_out: output mean flux G*m + (G - 1).
    """

    transfer: np.ndarray
    noise_var: np.ndarray
    mean_out: float


def channel_response(line: GainLine, carrier_offset: float, n_samples: int,
                     sample_rate: float, mean_flux: float,
                     excess: float = 0.0, *, bins: int) -> ChannelResponse:
    """Constants of the gain line for n_samples records of the given mean
    flux, on the first ``bins`` bins of their rfft grid (the last one is
    interior unless that is the whole grid); the same for every trace of a
    scan point.  The added noise has one-sided spectrum
    (Gbar(f) - 1) * Gbar(f) / G(offset) in output-beam SNU, with Gbar(f) the
    sideband-averaged intensity gain, plus a flat ``excess``: a per-sample
    variance in the records' flux units, as ``white_spectrum`` takes it.
    """
    _require_power_of_two(n_samples)
    if excess < 0.0:
        raise InvalidParameterError(f"excess must be >= 0, got {excess}")
    nb = n_samples // 2 + 1
    if not 1 <= bins <= nb:
        raise InvalidParameterError(f"bins must lie in [1, {nb}], got {bins}")
    gain0, transfer, added = line_response(line, carrier_offset,
                                           _rfft_freqs(n_samples, sample_rate, bins))
    # Hermitian-symmetric application on the rfft grid: the shared DC and
    # Nyquist bins must stay real.
    transfer[0] = transfer[0].real
    if bins == nb:
        transfer[-1] = transfer[-1].real

    mean_out = gain0 * mean_flux + (gain0 - 1.0)
    noise_var = mean_out * np.maximum(added, 0.0) + excess
    noise_var[0] = 0.0
    return ChannelResponse(transfer, noise_var, mean_out)


def apply_channel(x: np.ndarray, response: ChannelResponse, seed,
                  n_samples: int) -> np.ndarray:
    """Send an rfft spectrum of an n_samples record through the gain line,
    in place; returns x.

    Multiplies by the transfer and adds the white spectrum of the
    response's per-bin noise variance; an identity response leaves the
    values of x bit-exact and still draws.  When x and the response hold
    only the first bins of the grid, the noise is drawn on those bins only,
    as ``white_spectrum`` draws them.
    """
    x *= response.transfer
    return white_spectrum(n_samples, response.noise_var, seed, add_to=x)


def detect_spectrum(x: np.ndarray, eta: float, mean_flux: float, seed, n_samples: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Detection with efficiency eta on an rfft spectrum of an n_samples
    record: eta*x plus the white vacuum spectrum of per-sample variance
    (1 - eta) * eta * mean_flux, so the SNU map is exactly eta*s + (1 - eta)
    in expectation and the detected mean flux is eta * mean_flux.

    Writes into ``out`` (which may be x itself) or a new array.  When x
    holds only the first bins of the grid, the vacuum is drawn on those bins
    only, as ``white_spectrum`` draws them.  eta = 1 adds a zero-variance
    vacuum: it leaves the values of x bit-exact and still draws.
    """
    if not (0.0 < eta <= 1.0):
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    out = np.multiply(x, eta, out=out)
    return white_spectrum(n_samples, (1.0 - eta) * eta * mean_flux, seed, add_to=out)
