"""Deterministic predictions of what the stochastic pipeline should measure.

These closed-form/quadrature helpers mirror the simulation chain
(sideband-resolved gain, modulation transfer, correlation-band shape, band
filter) without any Monte-Carlo noise.  They provide the analytic columns of
the scan outputs and the construction rule of the advance preset.
"""

from __future__ import annotations

import numpy as np

from .analysis import _FALL_3DB, _parabola_peak, band_response
from .dispersion import GainLine, line_response, modulation_transfer
from .simulate import build_targets
from .twinbeam import TwinBeamSource, seeded_stats

# Lag stride of the coarse pass of the correlation peak search.
_COARSE_STEP = 10


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
                                edge_lo: float | None = None,
                                edge_hi: float | None = None,
                                t_window: float = 1.5e-7,
                                n_t: int = 3001, n_f: int = 1600) -> float:
    """Noise-free peak lag of the band-filtered probe/conjugate correlation.

    Integrates the filtered cross spectrum against the channel transfer and
    returns the parabolic-refined argmax of the resulting correlation, in
    seconds (negative = advancement).  This is the quantity the Monte-Carlo
    cross-correlation measurement converges to.
    """
    edge_hi_val = 1.5 * f_hi if edge_hi is None else edge_hi
    f_max = f_hi + (1.0 - _FALL_3DB) * edge_hi_val
    f = np.linspace(0.0, f_max * 1.02, n_f)
    response = band_response(f, f_lo, f_hi, edge_lo, edge_hi)
    s_pc = build_targets(source, f).s_pc
    transfer = modulation_transfer(line, 2.0 * np.pi * offset_hz, f)
    cross = response ** 2 * s_pc * transfer

    t = np.linspace(-t_window, t_window, n_t)

    def correlation(rows):
        phase = 2.0 * np.pi * np.outer(t[rows], f)
        return np.trapezoid(np.cos(phase) * cross.real - np.sin(phase) * cross.imag,
                            f, axis=1)

    # The main lobe spans hundreds of lags, so the dense argmax lies within
    # two coarse steps of the coarse one; each row is evaluated exactly as a
    # dense grid would evaluate it.
    coarse = np.arange(0, n_t, _COARSE_STEP)
    centre = int(coarse[np.argmax(correlation(coarse))])
    lo = max(centre - 2 * _COARSE_STEP, 0)
    hi = min(centre + 2 * _COARSE_STEP, n_t - 1)
    corr = correlation(slice(lo, hi + 1))
    k = int(np.argmax(corr))
    i = lo + k
    if 0 < k < corr.size - 1:
        shift, _ = _parabola_peak(corr[k - 1], corr[k], corr[k + 1])
        return float(t[i] + shift * (t[1] - t[0]))
    return float(t[i])
