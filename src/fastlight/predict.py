"""Deterministic predictions of what the stochastic pipeline should measure.

They mirror the simulation chain (sideband-resolved gain, modulation
transfer, correlation-band shape, band filter) without any Monte-Carlo
noise: the noise in closed form per frequency, the correlation shift as the
expected curves on the measurement's own correlation plan.  They provide the
analytic columns of the scan outputs and xcorr's predicted delay.
"""

from __future__ import annotations

import numpy as np

from .analysis import CorrelationPlan, XcorrResult, lag_curves
from .dispersion import GainLine, line_response, modulation_transfer
from .errors import InvalidParameterError
from .simulate import _rfft_freqs, build_targets
from .twinbeam import TwinBeamSource, seeded_stats


def predicted_difference_noise_snu(line: GainLine, offset_hz: float,
                                   source: TwinBeamSource, eta: float,
                                   excess_db: float, frequencies):
    """Sideband-resolved intensity-difference noise after the channel, in SNU.

    Evaluates, per analysis frequency, the difference spectrum of the probe
    against the propagated conjugate: auto-spectra through |G0 M(f)|^2, the
    cross spectrum through Re[G0 M(f)] (dispersion decorrelates as well as
    delays), the amplifier noise with the sideband-averaged gain, detection
    loss, and a flat technical excess on the normalized difference.
    """
    f = np.asarray(frequencies, dtype=float)
    stats = seeded_stats(source.gain1, source.seed_flux)
    mean_p, mean_c = stats.mean_p, stats.mean_c
    targets = build_targets(source, f)
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


def predicted_correlation_shift(line: GainLine, offset_hz: float, source: TwinBeamSource,
                                plan: CorrelationPlan, sample_rate: float) -> float:
    """Noise-free delay of the band-filtered probe/conjugate correlation
    peak, in seconds (negative = advancement): the quantity the Monte-Carlo
    measurement on ``plan`` converges to.

    The expected cross spectra of the reference and the fast pair on the
    plan's bins are w s_pc and w s_pc M(f); one ``lag_curves`` of the two
    gives their expected curves, and the delay is the difference of the
    curves' parabolic-refined peak lags, as the measurement reads it.
    Raises ``InvalidParameterError`` when a peak lies on the first or last
    lag of the window, where the window edge would be returned in its place.
    """
    f = _rfft_freqs(plan.n, sample_rate, plan.support)
    ref = plan.weights * build_targets(source, f).s_pc
    fast = ref * modulation_transfer(line, 2.0 * np.pi * offset_hz, f)
    curves = [XcorrResult.from_values(plan.lags, c) for c in lag_curves(ref, fast, plan)]
    for curve in curves:
        if np.argmax(curve.values) in (0, curve.lags.size - 1):
            raise InvalidParameterError("correlation peak lies at the edge of the "
                                        f"+-{curve.lags[-1]:g} s lag window")
    return curves[1].peak_lag - curves[0].peak_lag
