"""Acceptance battery: one test per criterion, each printing a PASS line
with its measured numbers and wall time.  Run with ``pytest -s`` to see them.
"""

import json
import time

import numpy as np
import pytest

from fastlight.analysis import (XcorrResult, _band_bins, correlation_plan,
                                cross_spectrum, lag_curves, peak_delay,
                                spectral_correlation)
from fastlight.amplifier import amp_mean, amp_variance
from fastlight.cli import main
from fastlight.config import config_from_dict, preset_fig2_line
from fastlight.dispersion import (calibrate, gain_db, modulation_transfer,
                                  peak_advance)
from fastlight.scenario import _measure_point, _point_seed
from fastlight.simulate import (_rfft_freqs, apply_channel, build_targets,
                                channel_response, synth_twin_spectra,
                                synthesis_factors, white_spectrum)
from fastlight.twinbeam import gain_for_squeezing, seeded_stats

from oracles import band_periodogram, mc_amplifier, var_standard_error

RATE = 2.5e9


def _report(name, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, detail
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_calibration_round_trip():
    t0 = time.time()
    line = calibrate(7.5, 10e6, 0.025)
    grid = np.linspace(-30e6, 30e6, 120001)
    profile = gain_db(line, 2 * np.pi * grid)
    peak = profile.max()
    above = grid[profile >= peak / 2]
    fwhm = above[-1] - above[0]
    ok = abs(peak - 7.5) < 0.01 and abs(fwhm - 10e6) / 10e6 < 0.005
    _report("criterion-1 calibration-round-trip", ok,
            f"peak {peak:.4f} dB, FWHM {fwhm / 1e6:.4f} MHz", t0, 1.0)


def test_criterion_2_squeezing_anchor():
    t0 = time.time()
    g1 = gain_for_squeezing(-2.5)
    stats = seeded_stats(g1, 1e6)
    n, n_traces = 1 << 20, 100
    # The pair is drawn on the head of the rfft grid up to the band's last
    # bin, as the scenarios draw it, and read against the analytic shot
    # level of the total flux.
    head = _band_bins(n, RATE, 1e5, 3e6).stop
    factors = synthesis_factors(build_targets(
        preset_fig2_line().source.make(), _rfft_freqs(n, RATE, head)),
        n, RATE, stats.mean_p, stats.mean_c)
    snu = 0.0
    for j in range(n_traces):
        xp, xc = synth_twin_spectra(factors, np.random.SeedSequence(101, spawn_key=(j,)), n)
        snu += band_periodogram(xp - xc, n, RATE, 1e5, 3e6, stats.mean_p + stats.mean_c)
    band_db = 10 * np.log10(snu / n_traces)
    ok = abs(band_db - (-2.5)) < 0.1
    _report("criterion-2 squeezing-anchor", ok,
            f"band difference noise {band_db:+.3f} dB (target -2.5 +/- 0.1)", t0, 60.0)


def test_criterion_3_amplifier_equivalence():
    t0 = time.time()
    n_in, n = 1e6, 2_000_000
    worst = 0.0
    for gain in (1.0, 1.1, 1.25, 2.0, 5.62):
        out = mc_amplifier(gain, n_in, n, seed=int(gain * 1000) + 7)
        z_mean = abs(np.mean(out) - amp_mean(gain, n_in)) / (np.std(out) / np.sqrt(n))
        var_pred = amp_variance(gain, n_in, n_in)
        z_var = abs(np.var(out) - var_pred) / var_standard_error(var_pred, n)
        worst = max(worst, z_mean, z_var)
    ok = worst < 3.0
    _report("criterion-3 amplifier-equivalence", ok,
            f"worst |z| = {worst:.2f} (3 SE bound) over G grid", t0, 30.0)


def test_criterion_4_snu_corollary():
    t0 = time.time()
    line = calibrate(10 * np.log10(1.25), 1e15, 0.025)
    n, n_traces = 1 << 18, 120
    channel = channel_response(line, 0.0, n, RATE, 1e6, bins=n // 2 + 1)
    snu = 0.0
    for j in range(n_traces):
        coherent = np.random.default_rng(
            np.random.SeedSequence(201, spawn_key=(j,))).standard_normal(n) * np.sqrt(1e6)
        x = apply_channel(np.fft.rfft(coherent), channel,
                          np.random.SeedSequence(202, spawn_key=(j,)), n)
        snu += band_periodogram(x, n, RATE, 1e5, 3e6, channel.mean_out)
    got_db = 10 * np.log10(snu / n_traces)
    ok = abs(got_db - 1.7609) < 0.05
    _report("criterion-4 snu-corollary", ok,
            f"flat G=1.25 coherent output {got_db:+.3f} dB (target +1.76 +/- 0.05)",
            t0, 30.0)


def test_criterion_5_delay_estimator():
    t0 = time.time()
    # As the selftest's delay check: a white spectrum on the band's support
    # and copies of it under phase ramps, correlated in the band.
    n = 1 << 18
    plan = correlation_plan(n, RATE, (1e5, 3e6), 2e-6)
    x = white_spectrum(n, 1e6, 301, add_to=np.zeros(plan.support, dtype=complex))
    ref = spectral_correlation(x, x, plan)
    errors = []
    for delay in (12e-9, -12e-9, 0.5 / RATE):
        shifted = x * np.exp(-2j * np.pi * _rfft_freqs(n, RATE, plan.support) * delay)
        errors.append(abs(peak_delay(spectral_correlation(x, shifted, plan), ref) - delay))
    ok = errors[0] < 0.2e-9 and errors[1] < 0.2e-9 and errors[2] < 0.1 / RATE
    _report("criterion-5 delay-estimator", ok,
            f"errors {[f'{e*1e12:.1f} ps' for e in errors]} for +12ns/-12ns/0.5-sample",
            t0, 30.0)


@pytest.fixture(scope="module")
def advance_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("advance")
    t0 = time.time()
    code = main(["xcorr", "--preset", "fig4-advance", "--out-dir", str(out)])
    elapsed = time.time() - t0
    assert code == 0
    return json.loads((out / "summary.json").read_text()), elapsed


def test_criterion_6_end_to_end_advancement(advance_run):
    summary, run_elapsed = advance_run
    t0 = time.time() - run_elapsed  # charge the shared scenario run to this criterion
    delay_ns = summary["delta_t_s"] * 1e9
    squeezing = summary["band_squeezing_db"]
    gain_op = 10 ** (summary["gain_at_offset_db"] / 10.0)
    ok = (abs(delay_ns - (-12.0)) < 2.0) and (squeezing < 0.0) and (gain_op <= 1.25)
    _report("criterion-6 end-to-end-advancement", ok,
            f"peak shift {delay_ns:+.2f} ns (target -12 +/- 2), band squeezing "
            f"{squeezing:+.2f} dB, gain at offset {gain_op:.3f}", t0, 300.0)


def test_criterion_7_zero_offset_contrast(advance_run):
    t0 = time.time()
    summary, _ = advance_run
    cfg = config_from_dict({
        **preset_fig2_line().to_dict(),
        "scenario": "xcorr",
        "offset_hz": 0.0,
        "sampling": {"rate_hz": RATE, "samples": 1 << 19, "traces": 30},
    })
    res = _measure_point(cfg, 0.0, _point_seed(cfg.seed, 0))
    delay_ns = res["delay_s_band"] * 1e9
    squeezing = res["squeezing_db_band"]
    ok = delay_ns > 0.0 and squeezing > summary["band_squeezing_db"]
    _report("criterion-7 zero-offset-contrast", ok,
            f"zero-offset shift {delay_ns:+.2f} ns (delayed), squeezing "
            f"{squeezing:+.2f} dB vs advanced point "
            f"{summary['band_squeezing_db']:+.2f} dB", t0, 300.0)


def test_criterion_8_correlation_width():
    t0 = time.time()
    g1 = gain_for_squeezing(-2.5)
    stats = seeded_stats(g1, 1e6)
    n, n_traces = 1 << 19, 30
    factors = synthesis_factors(build_targets(
        preset_fig2_line().source.make(), np.fft.rfftfreq(n, 1.0 / RATE)),
        n, RATE, stats.mean_p, stats.mean_c)
    plan = correlation_plan(n, RATE, (1e5, 3e6), 2e-6)
    # The mean of the traces' band-filtered correlations is the curve of the
    # mean of their cross spectra: the transform is linear.
    acc = np.zeros(plan.support, dtype=complex)
    for j in range(n_traces):
        sp, sc = synth_twin_spectra(factors, np.random.SeedSequence(401, spawn_key=(j,)), n)
        acc += cross_spectrum(sp, sc, plan)
    values, _ = lag_curves(acc / n_traces, np.zeros_like(acc), plan)
    avg = XcorrResult.from_values(plan.lags, values)
    fwhm_ns = avg.fwhm * 1e9
    ok = abs(fwhm_ns - 165.0) < 35.0
    _report("criterion-8 correlation-width", ok,
            f"band-filtered twin correlation FWHM {fwhm_ns:.1f} ns (target 165 +/- 35)",
            t0, 60.0)


def test_criterion_9_phase_slope_consistency():
    t0 = time.time()
    line = calibrate(7.5, 10e6, 0.025)
    worst = 0.0
    for delta in np.linspace(-4, 4, 41) * line.gamma:
        f = np.array([1e3, 2e3])
        m = modulation_transfer(line, delta, f)
        slope = -(np.angle(m[1]) - np.angle(m[0])) / (2 * np.pi * (f[1] - f[0]))
        expected = peak_advance(line, delta)
        err = abs(slope - expected) / max(abs(expected), 1e-11)
        worst = max(worst, err)
    ok = worst < 0.05
    _report("criterion-9 phase-slope-consistency", ok,
            f"worst relative deviation {worst:.2e} over +/-4 gamma sweep", t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    args = ["--samples", "65536", "--traces", "3", "--seed", "31415"]
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["xcorr", "--preset", "fig4-advance", "--out-dir", str(out)] + args) == 0
        outs.append(out)
    same_csv = (outs[0] / "xcorr.csv").read_bytes() == (outs[1] / "xcorr.csv").read_bytes()
    same_sum = ((outs[0] / "summary.json").read_bytes()
                == (outs[1] / "summary.json").read_bytes())
    ok = same_csv and same_sum
    _report("criterion-10 determinism", ok,
            "identical config+seed reproduce byte-identical CSV/JSON", t0, 300.0)
