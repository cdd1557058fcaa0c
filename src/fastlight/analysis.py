"""Measurement pipeline on rfft spectra: the band response, band-filtered
cross-correlation (a generalized cross-correlation evaluated by chirp-z
transform at the lag window only), the rfft bins of a noise band, and
sub-sample peak-delay extraction.

Sign convention for correlations: C12(t) = sum_tau i1(tau) i2(tau + t), so a
positive peak lag means the second record lags the first, and a negative
measured delay means the second record is advanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePeakError, InvalidParameterError
from .simulate import _rfft_freqs

# Fractions of an edge width at which a raised-cosine ramp passes half power.
_RISE_3DB = 2.0 / np.pi * np.arcsin(2.0 ** -0.25)
_FALL_3DB = 2.0 / np.pi * np.arccos(2.0 ** -0.25)


def _band_bins(n_samples: int, sample_rate: float, f_lo: float, f_hi: float) -> range:
    """The rfft bins of an n_samples record at frequencies in [f_lo, f_hi],
    the bins a noise figure averages; an empty range when the band holds none."""
    stop = min(n_samples // 2 + 1, int(f_hi * n_samples / sample_rate) + 2)
    f = _rfft_freqs(n_samples, sample_rate, stop)
    kept = np.flatnonzero((f >= f_lo) & (f <= f_hi))
    return range(int(kept[0]), int(kept[-1]) + 1) if kept.size else range(0)


# ---------------------------------------------------------------------------
# Band filtering


def _band_end(f_hi: float) -> float:
    """The frequency from which ``band_response`` with upper corner f_hi is
    zero: the top of its falling ramp, 1.5 f_hi wide."""
    return f_hi + (1.0 - _FALL_3DB) * (1.5 * f_hi)


def band_response(frequencies, f_lo: float, f_hi: float):
    """Real, even filter response: unity midband, raised-cosine edges whose
    half-power points sit exactly at f_lo and f_hi.

    The rising cosine ramp is f_lo wide and the falling one 1.5 * f_hi.  The
    response is identically zero outside the ramps, from ``_band_end(f_hi)``
    up.
    """
    if not (0.0 < f_lo < f_hi):
        raise InvalidParameterError(f"need 0 < f_lo < f_hi, got ({f_lo}, {f_hi})")
    edge_hi = 1.5 * f_hi
    a = f_lo - _RISE_3DB * f_lo
    b = a + f_lo
    c = f_hi - _FALL_3DB * edge_hi
    if b > c:
        raise InvalidParameterError("filter edges overlap; band too narrow for these edges")
    f = np.abs(np.asarray(frequencies, dtype=float))
    h = np.zeros_like(f)
    rising = (f > a) & (f < b)
    h[rising] = np.sin(0.5 * np.pi * (f[rising] - a) / f_lo) ** 2
    h[(f >= b) & (f <= c)] = 1.0
    falling = (f > c) & (f < _band_end(f_hi))
    h[falling] = np.cos(0.5 * np.pi * (f[falling] - c) / edge_hi) ** 2
    return h


# ---------------------------------------------------------------------------
# Cross-correlation and delay extraction


@dataclass(frozen=True)
class XcorrResult:
    """Normalized cross-correlation on a lag grid.

    peak_lag and peak_value are the three-point parabolic refinement of the
    maximum; fwhm is the width of the main lobe at half the refined peak
    value (NaN when the half level is not crossed inside the lag window),
    measured on first read.
    """

    lags: np.ndarray
    values: np.ndarray
    peak_lag: float
    peak_value: float

    @classmethod
    def from_values(cls, lags, values) -> "XcorrResult":
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=float)
        if lags.shape != values.shape or lags.ndim != 1:
            raise InvalidParameterError("lags and values must be matching 1-d arrays")
        peak_lag, peak_value = _refine_peak(lags, values)
        return cls(lags=lags, values=values, peak_lag=peak_lag, peak_value=peak_value)

    @cached_property
    def fwhm(self) -> float:
        return _fwhm(self.lags, self.values, self.peak_value)


def _parabola_peak(y0: float, y1: float, y2: float) -> tuple[float, float]:
    """Vertex of the parabola through (-1, y0), (0, y1), (1, y2).

    Returns (offset, value): the vertex position in samples from the middle
    point, and the parabola's value there.  When the three points do not
    bend down (no interior maximum) the middle point itself is returned,
    (0.0, y1).
    """
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return 0.0, y1
    shift = 0.5 * (y0 - y2) / denom
    return shift, y1 - 0.25 * (y0 - y2) * shift


def _refine_peak(lags, values) -> tuple[float, float]:
    i = int(np.argmax(values))
    if i == 0 or i == len(values) - 1:
        return float(lags[i]), float(values[i])
    shift, peak_val = _parabola_peak(values[i - 1], values[i], values[i + 1])
    return float(lags[i] + shift * (lags[i + 1] - lags[i])), float(peak_val)


def _fwhm(lags, values, peak_val: float) -> float:
    half = 0.5 * peak_val
    i = int(np.argmax(values))
    right = np.nan
    for j in range(i, len(values) - 1):
        if values[j + 1] < half <= values[j]:
            frac = (values[j] - half) / (values[j] - values[j + 1])
            right = lags[j] + frac * (lags[j + 1] - lags[j])
            break
    left = np.nan
    for j in range(i, 0, -1):
        if values[j - 1] < half <= values[j]:
            frac = (values[j] - half) / (values[j] - values[j - 1])
            left = lags[j] - frac * (lags[j] - lags[j - 1])
            break
    return float(right - left)


class CorrelationPlan(NamedTuple):
    """Constants of the band-filtered correlations of n-sample records at one
    sample rate, band and lag window (built by ``correlation_plan``).

    support: K, the number of leading rfft bins where the squared band
        response can be nonzero; bins from K on never reach a curve.
    weights: the squared band response on [0, K), DC (and Nyquist, when the
        support is the whole grid) halved, as the one-sided sums count them.
    chirp_in, chirp_out, kernel: the Bluestein chirp-z factors that evaluate
        the inverse DFT of a two-sided spectrum on bins -(K-1)..K-1 at lags
        -n_lag..n_lag only (``lag_curves``); chirp_in holds the two sides'
        factor 1/2, and kernel is the FFT of the chirp filter, of the
        smallest 2^a 3^b 5^c 7^d length >= 2K - 1 + 2 n_lag.
    lags: the lag grid in seconds.
    work: the one writable array, a complex buffer of the kernel's length
        that ``lag_curves`` transforms in place on every call.
    """

    n: int
    support: int
    weights: np.ndarray
    chirp_in: np.ndarray
    chirp_out: np.ndarray
    kernel: np.ndarray
    lags: np.ndarray
    work: np.ndarray


def _chirp(index, n: int, sign: float) -> np.ndarray:
    """exp(sign * i*pi*index**2 / n), with the phase reduced exactly in integers."""
    index = np.asarray(index, dtype=np.int64)
    return np.exp(sign * 1j * np.pi * ((index * index) % (2 * n)) / n)


def _smooth_size(target: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d at or above target, a fast FFT length
    (scipy.fft.next_fast_len would do, but importing scipy.fft takes 0.3 s)."""
    size = target
    while True:
        rest = size
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@lru_cache(maxsize=32)
def _plan(n: int, sample_rate: float, band: tuple | None, n_lag: int) -> CorrelationPlan:
    bins = n // 2 + 1
    if band is None:
        h2 = np.ones(bins)
    else:
        f_lo, f_hi = band
        # Evaluated on a few bins past _band_end and trimmed to its last nonzero.
        head = min(bins, int(np.ceil(_band_end(f_hi) * n / sample_rate)) + 2)
        h2 = band_response(_rfft_freqs(n, sample_rate, head), f_lo, f_hi) ** 2
        nonzero = np.flatnonzero(h2)
        h2 = h2[:nonzero[-1] + 1] if nonzero.size else h2[:0]
    if not h2.any():
        raise InvalidParameterError(
            "zero-energy or non-finite trace has no normalized correlation")
    k = h2.size
    weights = h2.copy()
    weights[0] *= 0.5
    if k == bins:
        weights[-1] *= 0.5
    # Re sum_{k<K} a_k exp(2 pi i k m / n) = sum_{|k|<K} Z_k exp(2 pi i k m / n)
    # with Z_k = a_k / 2, Z_-k = conj(a_k) / 2 and Z_0 = Re a_0, and two such
    # real sums ride as the real and imaginary parts of one.  With
    # km = (k^2 + m^2 - (m - k)^2) / 2 the sum is a chirp times the linear
    # convolution of Z chirp with a chirp filter (Bluestein 1970; Rabiner,
    # Schafer & Rader, Bell Syst. Tech. J. 48:1249, 1969), exact in a circular
    # convolution of length M >= (2K - 1) + (2 n_lag + 1) - 1.
    m = _smooth_size(2 * k - 1 + 2 * n_lag)
    offsets = np.arange(-(2 * k - 2), 2 * n_lag + 1)
    taps = np.zeros(m, dtype=complex)
    taps[offsets % m] = _chirp(offsets - n_lag + k - 1, n, -1.0)
    lag_index = np.arange(-n_lag, n_lag + 1)
    # Once transformed, the taps' array is the plan's work buffer.
    plan = CorrelationPlan(n, k, weights, 0.5 * _chirp(np.arange(1 - k, k), n, 1.0),
                           _chirp(lag_index, n, 1.0), np.fft.fft(taps),
                           lag_index / sample_rate, taps)
    # Every caller of a cached plan shares its arrays; only work is written.
    for array in (plan.weights, plan.chirp_in, plan.chirp_out, plan.kernel, plan.lags):
        array.setflags(write=False)
    return plan


def correlation_plan(n_samples: int, sample_rate: float, band: tuple | None,
                     max_lag: float) -> CorrelationPlan:
    """The ``CorrelationPlan`` of n-sample records for ``spectral_correlation``.

    band is (f_lo, f_hi) in Hz for ``band_response``, or
    None for the all-pass.  The lag window is +-round(max_lag*sample_rate)
    samples.  Plans are cached per process on (n, sample_rate, band, n_lag).
    """
    n_lag = int(round(max_lag * sample_rate))
    if n_lag < 1:
        raise InvalidParameterError(f"max_lag {max_lag} is below one sample period")
    if n_lag > n_samples // 8:
        raise InvalidParameterError(
            f"max_lag {max_lag} too long for trace duration {n_samples / sample_rate}")
    if band is not None:
        band = (float(band[0]), float(band[1]))
    return _plan(int(n_samples), float(sample_rate), band, n_lag)


def _band_energy(x, weights) -> float:
    """Weighted energy of the rfft bins x: by Parseval, n/2 times the energy
    of the band-filtered record."""
    # einsum, not np.dot/np.vdot: the package calls no BLAS, which is why the
    # CLI can start with one OpenBLAS thread (see fastlight.cli).
    return float(np.einsum("i,i,i->", weights, x.real, x.real)
                 + np.einsum("i,i,i->", weights, x.imag, x.imag))


def cross_spectrum(x1, x2, plan: CorrelationPlan) -> np.ndarray:
    """The band-weighted, energy-normalized cross spectrum
    w conj(x1) x2 / sqrt(E1 E2) on the plan's K bins, whose ``lag_curves``
    is the normalized band-filtered correlation of the two records.

    x1 and x2 are ``np.fft.rfft`` of two real n-sample records, or at least
    their first ``plan.support`` bins; later bins are never read.  E1 and E2
    are the band-limited energies sum w |x|^2 (Parseval's theorem).  The
    transform is linear, so the curve of a sum of cross spectra is the sum
    of their curves.
    """
    k = plan.support
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if x1.ndim != 1 or x2.ndim != 1 or min(x1.size, x2.size) < k:
        raise InvalidParameterError(
            f"a correlation needs 1-d spectra of at least {k} bins")
    if max(x1.size, x2.size) > plan.n // 2 + 1:
        raise InvalidParameterError("spectra are longer than the plan's rfft grid")
    x1 = x1[:k]
    x2 = x2[:k]
    energy = _band_energy(x1, plan.weights) * _band_energy(x2, plan.weights)
    if not (np.isfinite(energy) and energy > 0.0):
        raise InvalidParameterError(
            "zero-energy or non-finite trace has no normalized correlation")
    cross = np.conjugate(x1, dtype=complex)
    cross *= x2
    # The curve is (2/n) Re(...) over the geometric mean of the energies, each
    # (2/n) times a weighted sum: the factors 2/n cancel.
    cross *= plan.weights / np.sqrt(energy)
    return cross


def lag_curves(a, b, plan: CorrelationPlan) -> tuple[np.ndarray, np.ndarray]:
    """The curves Re sum_k a_k exp(2 pi i k m / n) and the same of b, at the
    plan's lags m, from one chirp-z transform of the two-sided spectrum of
    a + i b over bins -(K-1)..K-1 (an FFT and an inverse FFT of the plan's
    kernel length).  a and b are cross spectra from ``cross_spectrum``, or
    sums or means of them.

    Both transforms run in place in ``plan.work``, so no kernel-length array
    is allocated; the curves are the real and imaginary parts of a new array
    of the lags only and share no memory with it.  Two calls on one plan
    must not overlap: the function is not reentrant across threads (the
    package starts none)."""
    k = plan.support
    a = np.asarray(a)[:k]
    ib = 1j * np.asarray(b)[:k]
    work = plan.work
    work.fill(0.0)
    z = work[:2 * k - 1]
    np.add(a, ib, out=z[k - 1:])
    z[:k] += np.conjugate(a - ib)[::-1]
    z *= plan.chirp_in
    np.fft.fft(work, out=work)
    work *= plan.kernel
    np.fft.ifft(work, out=work)
    conv = work[:plan.lags.size] * plan.chirp_out
    return conv.real, conv.imag


def spectral_correlation(x1, x2, plan: CorrelationPlan) -> XcorrResult:
    """Band-filtered normalized cross-correlation from two rfft spectra.

    The normalized circular correlation of the two records after each is
    band-filtered by ``band_response`` (its rfft times H, transformed back):
    the inverse transform of H^2 conj(x1) x2 (the generalized
    cross-correlation of Knapp & Carter, IEEE TASSP 24:320, 1976) at the
    plan's lags only, normalized by the band-limited energies;
    ``lag_curves`` of ``cross_spectrum`` with nothing in the second slot.
    An all-pass plan gives the plain normalized correlation.
    """
    a = cross_spectrum(x1, x2, plan)
    values, _ = lag_curves(a, np.zeros_like(a), plan)
    return XcorrResult.from_values(plan.lags, values)


def _check_unique_peak(result: XcorrResult, tie_tol: float = 1e-6):
    """Refuse a curve whose maxima within ``tie_tol`` of the top lie more
    than two lags apart, past the three lags the parabola refines: a flat
    curve or two separated peaks.  A maximum is a sample no lower than its
    neighbours, so the samples on the slopes of one broad smooth peak,
    however close to the top, are not."""
    values = result.values
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    maxima = np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:])
                            & (values >= values.max() - tie_tol))
    if maxima.size > 1 and maxima[-1] - maxima[0] > 2:
        raise DegeneratePeakError(
            f"correlation peak degenerate: maxima {maxima[-1] - maxima[0]} lags apart "
            f"within {tie_tol} of the top")


def peak_delay(c_fast: XcorrResult, c_ref: XcorrResult) -> float:
    """Peak-lag difference argmax(c_fast) - argmax(c_ref), in seconds.

    Each peak is the parabolic-interpolated maximum.  Negative values mean
    the fast trace's correlation peak arrives early (advancement).
    """
    # The scenarios pass two curves on one plan's lag array.
    if c_fast.lags is not c_ref.lags and (
            c_fast.lags.shape != c_ref.lags.shape
            or not np.allclose(c_fast.lags, c_ref.lags, rtol=1e-12, atol=1e-15)):
        raise InvalidParameterError("peak_delay needs identical lag grids")
    _check_unique_peak(c_fast)
    _check_unique_peak(c_ref)
    return float(c_fast.peak_lag - c_ref.peak_lag)
