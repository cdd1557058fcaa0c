"""Deterministic predictions of what the stochastic pipeline should measure.

These closed-form/quadrature helpers mirror the simulation chain
(sideband-resolved gain, modulation transfer, correlation-band shape, band
filter) without any Monte-Carlo noise.  They provide the analytic columns of
the scan outputs and the construction rule of the advance preset.
"""

from __future__ import annotations

import numpy as np

from .analysis import _band_end, _parabola_peak, band_response
from .dispersion import GainLine, line_response, modulation_transfer
from .errors import InvalidParameterError
from .simulate import build_targets
from .twinbeam import TwinBeamSource, seeded_stats

# Lag stride of the coarse pass of the correlation peak search.
_COARSE_STEP = 10
# Points of the frequency grid the predicted correlation is integrated on.
_N_F = 1600
# The correlation's trapezoid sum over f = j*df repeats in lag with period
# 1/df; a +-t window of at most 1/(_ALIAS_MARGIN*df) holds one copy of the peak.
_ALIAS_MARGIN = 2.2


def predicted_difference_noise_snu(line: GainLine, offset_hz: float,
                                   source: TwinBeamSource, eta: float,
                                   excess_db: float, frequencies,
                                   coherent: bool = False):
    """Sideband-resolved intensity-difference noise after the channel, in SNU.

    Evaluates, per analysis frequency, the difference spectrum of the probe
    against the propagated conjugate: auto-spectra through |G0 M(f)|^2, the
    cross spectrum through Re[G0 M(f)] (dispersion decorrelates as well as
    delays), the amplifier noise with the sideband-averaged gain, detection
    loss, and a flat technical excess on the normalized difference.
    """
    f = np.asarray(frequencies, dtype=float)
    stats = seeded_stats(source.gain1, source.seed_flux)
    mean_p, mean_c = stats.mean_p, max(stats.mean_c, 1e-300)
    targets = build_targets(source, f)
    if coherent:
        s_pp = np.ones_like(f)
        s_cc = np.ones_like(f)
        s_pc = np.zeros_like(f)
    else:
        s_pp, s_cc, s_pc = targets.s_pp, targets.s_cc, targets.s_pc

    gain0, transfer, added = line_response(line, 2.0 * np.pi * offset_hz, f)
    mean_c_out = gain0 * mean_c + (gain0 - 1.0)
    add_abs = added * mean_c_out

    diff_abs = (mean_p * s_pp
                + np.abs(transfer) ** 2 * mean_c * s_cc
                - 2.0 * transfer.real * np.sqrt(mean_p * mean_c) * s_pc
                + add_abs)
    snu = diff_abs / (mean_p + mean_c_out)
    snu = eta * snu + (1.0 - eta)
    return snu + (10.0 ** (excess_db / 10.0) - 1.0)


def predicted_correlation_shift(line: GainLine, offset_hz: float,
                                source: TwinBeamSource, f_lo: float, f_hi: float,
                                t_window: float = 1.5e-7, n_t: int = 3001) -> float:
    """Noise-free peak lag of the band-filtered probe/conjugate correlation.

    Integrates the filtered cross spectrum against the channel transfer and
    returns the parabolic-refined argmax of the resulting correlation, in
    seconds (negative = advancement).  This is the quantity the Monte-Carlo
    cross-correlation measurement converges to.  Raises
    ``InvalidParameterError`` when the peak lies on the first or last lag of
    the +-t_window search, where the window edge would be returned in its
    place, or when t_window exceeds ``alias_free_lag``.
    """
    limit = alias_free_lag(f_hi)
    if t_window > limit:
        raise InvalidParameterError(f"lag window +-{t_window:g} s exceeds the +-{limit:g} s "
                                    f"an {_N_F}-point frequency grid resolves without aliasing")
    f, df = np.linspace(0.0, _frequency_top(f_hi), _N_F, retstep=True)
    response = band_response(f, f_lo, f_hi)
    s_pc = build_targets(source, f).s_pc
    transfer = modulation_transfer(line, 2.0 * np.pi * offset_hz, f)
    cross = response ** 2 * s_pc * transfer

    t, dt = np.linspace(-t_window, t_window, n_t, retstep=True)
    # The main lobe spans hundreds of lags, so the dense argmax lies within
    # two coarse steps of the coarse one.  The coarse curve only picks the
    # centre; each fine row is evaluated exactly as a dense grid would
    # evaluate it.
    coarse = _coarse_correlation(cross, df, t[0], _COARSE_STEP * dt,
                                 (n_t - 1) // _COARSE_STEP + 1)
    centre = _COARSE_STEP * int(np.argmax(coarse))
    lo = max(centre - 2 * _COARSE_STEP, 0)
    hi = min(centre + 2 * _COARSE_STEP, n_t - 1)
    # One row at a time, so each temporary holds one row's frequencies.
    corr = np.empty(hi + 1 - lo)
    for r, t_r in enumerate(t[lo:hi + 1]):
        phase = 2.0 * np.pi * (t_r * f)
        corr[r] = np.trapezoid(np.cos(phase) * cross.real - np.sin(phase) * cross.imag, f)
    k = int(np.argmax(corr))
    i = lo + k
    if i == 0 or i == n_t - 1:
        raise InvalidParameterError(
            f"correlation peak lies at the edge of the +-{t_window:g} s lag window")
    if 0 < k < corr.size - 1:
        shift, _ = _parabola_peak(corr[k - 1], corr[k], corr[k + 1])
        return float(t[i] + shift * (t[1] - t[0]))
    return float(t[i])


def alias_free_lag(f_hi: float) -> float:
    """Widest half-window t of lags over which ``predicted_correlation_shift``
    sees one copy of the correlation peak."""
    return (_N_F - 1) / (_ALIAS_MARGIN * _frequency_top(f_hi))


def _frequency_top(f_hi: float) -> float:
    """Top of the prediction's frequency grid: past the band's upper edge."""
    return _band_end(f_hi) * 1.02


def _real_chirp(index, rate: float) -> np.ndarray:
    """exp(i*pi*rate*index**2) for a real rate; the integer phase reduction
    of ``analysis._chirp`` does not apply to it."""
    index = np.asarray(index, dtype=float)
    return np.exp(1j * np.pi * rate * index * index)


def _coarse_correlation(cross, df: float, t0: float, dt: float, m: int) -> np.ndarray:
    """Trapezoid integral of Re[cross(f) exp(2 pi i t f)] over f = j*df,
    j = 0..len(cross)-1, at the m lags t = t0 + i*dt.

    With ij = (i^2 + j^2 - (i - j)^2) / 2 the sum over j is a chirp times the
    linear convolution of the weighted, chirped cross spectrum with a chirp
    (Bluestein 1970; Rabiner, Schafer & Rader 1969), exact in one circular
    convolution of length next_pow2(len(cross) + m - 1).
    """
    n_f = cross.size
    rate = dt * df
    j = np.arange(n_f)
    weights = np.full(n_f, df)
    weights[[0, -1]] *= 0.5
    a = weights * cross * np.exp(2j * np.pi * t0 * df * j) * _real_chirp(j, rate)
    size = 1 << (n_f + m - 2).bit_length()
    offsets = np.arange(-(n_f - 1), m)
    taps = np.zeros(size, dtype=complex)
    taps[offsets % size] = _real_chirp(offsets, -rate)
    y = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(taps))[:m]
    return (_real_chirp(np.arange(m), rate) * y).real
