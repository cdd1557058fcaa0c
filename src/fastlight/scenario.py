"""Scenario runner: turns a ScenarioConfig into CSV/JSON data files.

Seed discipline: the master seed feeds a numpy SeedSequence; scan point i
uses spawn_key (i,), trace j within a point uses (i, j), and each stochastic
role within a trace (synthesis, channel noise, detections, the detected
difference past the correlations' bins) uses (i, j, r).
Each point's shot-noise floor is analytic and takes no draws.  Results are
therefore independent of execution order and identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .amplifier import difference_noise_after_channel
from .analysis import (NORM_ABSOLUTE, CorrelationPlan, Spectrum, XcorrResult,
                       band_filter, band_squeezing_db, correlation_plan,
                       cross_correlation, peak_delay, psd, shot_floor,
                       shot_noise_density, snu_normalize, spectral_correlation)
from .config import ScenarioConfig, _find_root, config_from_dict
from .dispersion import calibrate, gain_db, group_index, intensity_gain
from .errors import ConfigError, FastlightError, InvalidParameterError
from .predict import predicted_correlation_shift, predicted_difference_noise_snu
from .simulate import (ChannelResponse, Trace, apply_channel, build_targets,
                       channel_response, detect_spectrum, difference,
                       difference_std, fractional_shift, shot_reference,
                       synth_twin_spectra, synth_twin_traces, synthesis_factors,
                       white_spectrum)
from .twinbeam import seeded_stats, squeezing_db

# synth, channel, det ref p, det ref c, det fast p, det fast c, each on the
# first K bins of the rfft grid; then the detected difference on the rest.
_ROLES = 7


def _point_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(index,))


def _beam_level_excess_db(excess_diff_db: float, mean_p: float, mean_c_out: float,
                          eta: float) -> float:
    """Convert a difference-level technical noise figure to the equivalent
    flat excess in the propagated beam's own shot units."""
    x_diff = 10.0 ** (excess_diff_db / 10.0) - 1.0
    x_beam = x_diff * (mean_p + mean_c_out) / (eta * mean_c_out)
    return 10.0 * math.log10(1.0 + x_beam)


class _PointChain(NamedTuple):
    """Constants of one detuning point's measurement chain, shared by its traces.

    The rfft grid is split at ``support``, the largest band support (0 when
    nothing is correlated): the synthesis factors and the channel hold the
    bins below it, ``tail_std`` the deviation of the detected difference on
    the bins from it on.
    """

    cfg: ScenarioConfig
    mean_p: float
    mean_c: float
    factors: tuple | None  # synthesis factors; None for a coherent source
    channel: ChannelResponse
    plans: dict  # band name -> CorrelationPlan
    support: int
    tail_std: np.ndarray


@lru_cache(maxsize=8)
def _band_plan(n: int, fs: float, band: tuple, max_lag: float) -> CorrelationPlan:
    """The band's correlation plan, refused when the lag window cannot hold
    the half level of its noise-free curve (the plan applied to H^2 itself),
    since every measured width would then be undefined."""
    plan = correlation_plan(n, fs, band, max_lag)
    flat = np.ones(plan.support)
    if not math.isfinite(spectral_correlation(flat, flat, plan).fwhm):
        raise ConfigError(f"max_lag_s {max_lag} does not reach the half level of the "
                          f"correlation in band {band} Hz")
    return plan


def _point_chain(cfg: ScenarioConfig, line, source, delta: float, bands: dict) -> _PointChain:
    n, fs = cfg.sampling.samples, cfg.sampling.rate_hz
    stats = seeded_stats(source.gain1, source.seed_flux)
    mean_p, mean_c = stats.mean_p, stats.mean_c
    gain0 = float(intensity_gain(line, delta))
    mean_c_out = gain0 * mean_c + (gain0 - 1.0)
    excess_beam = _beam_level_excess_db(cfg.channel.excess_noise_db, mean_p,
                                        mean_c_out, cfg.channel.eta)
    factors = None
    if not cfg.source.coherent:
        # The targets are dropped before the channel constants are built.
        factors = synthesis_factors(build_targets(source, np.fft.rfftfreq(n, 1.0 / fs)),
                                    n, fs, mean_p, mean_c)
    # Built before any draw, so a lag window too short fails first.
    plans = {name: _band_plan(n, fs, band, cfg.max_lag_s) for name, band in bands.items()}
    k = max((plan.support for plan in plans.values()), default=0)
    channel = channel_response(line, delta, n, fs, mean_c, excess_beam)
    tail_std = difference_std(factors, channel, cfg.channel.eta, mean_p, mean_c, n, start=k)
    # Copies, not views: a view would keep the whole grid's constants alive.
    if factors is not None:
        factors = tuple(f[:k].copy() for f in factors)
    if channel.transfer is not None:
        channel = channel._replace(transfer=channel.transfer[:k].copy(),
                                   noise_std=channel.noise_std[:k].copy())
    return _PointChain(cfg, mean_p, mean_c, factors, channel, plans, k, tail_std)


def _correlate(curves: dict, pair: str, x1, x2, chain: _PointChain):
    for band, plan in chain.plans.items():
        curves[f"{band}_{pair}"] = spectral_correlation(x1, x2, plan)


def _draw_tail(out: np.ndarray, std: np.ndarray, seed, has_dc: bool):
    """The detected difference on the bins from K on, drawn into ``out``:
    real parts, then imaginary parts, N(0, std^2) each; DC and Nyquist real."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(std.size)
    np.multiply(z, std, out=out.real)
    rng.standard_normal(out=z)
    np.multiply(z, std, out=out.imag)
    out.imag[-1] = 0.0
    if has_dc:
        out.imag[0] = 0.0


def _measure_trace(chain: _PointChain, roles) -> tuple[dict, Spectrum]:
    """One trace of a point, carried as rfft spectra.  On the bins below the
    largest band support K the pair is synthesized, the reference pair is
    detected and correlated, and the fast pair goes through the channel, is
    detected and correlated.  No curve reads a bin from K on, so there only
    the detected difference is drawn, directly.  The joined difference goes
    back to the time domain for its Welch spectrum."""
    cfg = chain.cfg
    n, fs = cfg.sampling.samples, cfg.sampling.rate_hz
    eta = cfg.channel.eta
    k = chain.support
    diff = np.empty(n // 2 + 1, dtype=complex)
    curves = {}
    if k:
        if chain.factors is None:
            rng = np.random.default_rng(roles[0])
            xp = white_spectrum(n, chain.mean_p, rng, add_to=np.zeros(k, dtype=complex))
            xc = white_spectrum(n, chain.mean_c, rng, add_to=np.zeros(k, dtype=complex))
        else:
            xp, xc = synth_twin_spectra(chain.factors, roles[0], n_samples=n)
        probe_ref = detect_spectrum(xp, eta, chain.mean_p, roles[2], n_samples=n)
        conj_ref = detect_spectrum(xc, eta, chain.mean_c, roles[3], n_samples=n)
        _correlate(curves, "ref", probe_ref, conj_ref, chain)
        del probe_ref, conj_ref
        apply_channel(xc, chain.channel, roles[1], n_samples=n)
        detect_spectrum(xp, eta, chain.mean_p, roles[4], out=xp, n_samples=n)
        detect_spectrum(xc, eta, chain.channel.mean_out, roles[5], out=xc, n_samples=n)
        _correlate(curves, "fast", xp, xc, chain)
        np.subtract(xp, xc, out=diff[:k])
        del xp, xc
    if k < diff.size:
        _draw_tail(diff[k:], chain.tail_std, roles[6], has_dc=k == 0)
    samples = np.fft.irfft(diff, n)
    del diff
    # Trace keeps its own copy, so the irfft's array is dropped before Welch.
    trace = Trace(fs, eta * chain.mean_p + eta * chain.channel.mean_out, samples)
    del samples
    return curves, psd(trace, min(cfg.segment_len, n))


def _measure_point(cfg: ScenarioConfig, line, source, delta: float,
                   point_ss: np.random.SeedSequence, bands: dict) -> tuple[dict, Spectrum]:
    """Run every trace of one detuning point.  Returns the trace-averaged
    correlation curves ("<band>_ref", "<band>_fast" for each of ``bands``)
    and the difference spectrum normalized to the analytic shot-noise floor of
    the detected pair's total mean flux."""
    chain = _point_chain(cfg, line, source, delta, bands)
    seg = min(cfg.segment_len, cfg.sampling.samples)
    sums = {}
    lag_grid = None
    diff_acc = np.zeros(seg // 2 + 1)
    n_traces = cfg.sampling.traces
    for j in range(n_traces):
        roles = np.random.SeedSequence(point_ss.entropy,
                                       spawn_key=point_ss.spawn_key + (j,)).spawn(_ROLES)
        curves, spec_diff = _measure_trace(chain, roles)
        for key, xc in curves.items():
            if key not in sums:
                sums[key] = np.zeros_like(xc.values)
                lag_grid = xc.lags
            sums[key] += xc.values
        diff_acc += spec_diff.values
        # Nothing of this trace outlives it into the next synthesis.
        del curves, spec_diff

    fs, eta = cfg.sampling.rate_hz, cfg.channel.eta
    spectrum = Spectrum(np.fft.rfftfreq(seg, 1.0 / fs), diff_acc / n_traces,
                        NORM_ABSOLUTE, seg, 0.5, "hann")
    # The floor is an expectation, not an average over traces.
    floor = shot_floor(eta * chain.mean_p + eta * chain.channel.mean_out, fs, seg)
    curves = {key: XcorrResult.from_values(lag_grid, acc / n_traces)
              for key, acc in sums.items()}
    return curves, snu_normalize(spectrum, floor)


def _measure_correlation_point(cfg: ScenarioConfig, detuning_hz: float,
                               point_ss: np.random.SeedSequence,
                               want_fullband: bool) -> dict:
    """Simulate one detuning point and measure delays and band squeezing."""
    line = cfg.line.make()
    source = cfg.source.make()
    delta = 2.0 * math.pi * detuning_hz
    bands = {"band": cfg.band_hz}
    if want_fullband:
        bands["full"] = cfg.fullband_hz
    curves, normalized = _measure_point(cfg, line, source, delta, point_ss, bands)
    gain0 = float(intensity_gain(line, delta))
    result = {
        "detuning_hz": detuning_hz,
        "gain_db": float(gain_db(line, delta)),
        "delay_s_band": peak_delay(curves["band_fast"], curves["band_ref"]),
        "squeezing_db_band": band_squeezing_db(normalized, *cfg.band_hz),
        "analytic_squeezing_db": difference_noise_after_channel(
            source.gain1, max(gain0, 1.0), cfg.channel.eta, cfg.channel.excess_noise_db).db,
        "curves": curves,
    }
    if want_fullband:
        result["delay_s_fullband"] = peak_delay(curves["full_fast"], curves["full_ref"])
    return result


def _measure_noise_point(cfg: ScenarioConfig, detuning_hz: float,
                         point_ss: np.random.SeedSequence) -> dict:
    """Simulate one detuning point of the gain-line scan."""
    line = cfg.line.make()
    source = cfg.source.make()
    delta = 2.0 * math.pi * detuning_hz
    _, normalized = _measure_point(cfg, line, source, delta, point_ss, {})
    f_band = np.linspace(cfg.noise_band_hz[0], cfg.noise_band_hz[1], 201)
    predicted = predicted_difference_noise_snu(line, detuning_hz, source, cfg.channel.eta,
                                               cfg.channel.excess_noise_db, f_band,
                                               coherent=cfg.source.coherent)
    return {
        "detuning_hz": detuning_hz,
        "gain_db": float(gain_db(line, delta)),
        "predicted_noise_db": float(10.0 * np.log10(np.mean(predicted))),
        "simulated_noise_db": band_squeezing_db(normalized, *cfg.noise_band_hz),
        "group_index": float(group_index(line, delta)),
    }


def _noise_point_worker(args) -> dict:
    cfg_dict, index, detuning = args
    cfg = config_from_dict(cfg_dict)
    return _measure_noise_point(cfg, detuning, _point_seed(cfg.seed, index))


def _correlation_point_worker(args) -> dict:
    cfg_dict, index, detuning = args
    cfg = config_from_dict(cfg_dict)
    out = _measure_correlation_point(cfg, detuning, _point_seed(cfg.seed, index),
                                     want_fullband=True)
    out.pop("curves")
    return out


def _map_points(worker, cfg: ScenarioConfig):
    args = [(cfg.to_dict(), i, d) for i, d in enumerate(cfg.detunings_hz)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(worker, args))
    return [worker(a) for a in args]


def _require_finite(path, items):
    """Refuse to write NaN or infinity; the error names the offending keys."""
    bad = {key: None for key, v in items if isinstance(v, float) and not math.isfinite(v)}
    if bad:
        raise FastlightError(f"non-finite {', '.join(bad)} not written to "
                             f"{os.path.basename(path)}")


def _write_csv(path, columns, rows, created):
    _require_finite(path, ((c, float(row[c])) for row in rows for c in columns))
    # Registered before the file exists, so a failed write is cleaned up too.
    created.append(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) for c in columns) + "\n")


def _base_summary(cfg: ScenarioConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "master_seed": cfg.seed,
        "seed_splitting": "SeedSequence(master, spawn_key=(point, trace, role))",
        "point_spawn_keys": list(range(len(cfg.detunings_hz) or 1)),
        "config_sha256": cfg.config_hash(),
        # Spectra are normalized to the expected Welch density of shot noise.
        "shot_reference": "analytic",
        "fastlight_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }


def _write_summary(path, summary, created):
    _require_finite(path, summary.items())
    created.append(path)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_scan(cfg: ScenarioConfig, created) -> dict:
    """A line or delay scan: one CSV row per detuning point, then the summary."""
    # Looked up at call time, so a worker wrapped by perfbench's tracer is the one run.
    if cfg.scenario == "line-scan":
        worker, file_name = _noise_point_worker, "line_scan.csv"
        columns = ["detuning_hz", "gain_db", "predicted_noise_db",
                   "simulated_noise_db", "group_index"]
    else:
        worker, file_name = _correlation_point_worker, "delay_scan.csv"
        columns = ["detuning_hz", "delay_s_fullband", "delay_s_band",
                   "squeezing_db_band", "analytic_squeezing_db"]
    rows = _map_points(worker, cfg)
    _write_csv(os.path.join(cfg.out_dir, file_name), columns, rows, created)
    summary = _base_summary(cfg)
    summary["rows"] = len(rows)
    _write_summary(os.path.join(cfg.out_dir, "summary.json"), summary, created)
    return summary


def _run_xcorr(cfg: ScenarioConfig, created) -> dict:
    # Deterministic, so it is computed before any draw: a peak clipped by
    # the prediction's lag window is a configuration error.
    try:
        predicted = predicted_correlation_shift(cfg.line.make(), cfg.offset_hz,
                                                cfg.source.make(), *cfg.band_hz)
    except InvalidParameterError as exc:
        raise ConfigError(f"no predicted correlation shift at offset_hz {cfg.offset_hz} "
                          f"in band_hz {cfg.band_hz}: {exc}") from exc
    point = _measure_correlation_point(cfg, cfg.offset_hz, _point_seed(cfg.seed, 0),
                                       want_fullband=False)
    curves = point.pop("curves")
    ref, fast = curves["band_ref"], curves["band_fast"]
    rows = [{"lag_s": lag, "c_ref": cr, "c_fast": cf}
            for lag, cr, cf in zip(ref.lags, ref.values, fast.values)]
    _write_csv(os.path.join(cfg.out_dir, "xcorr.csv"),
               ["lag_s", "c_ref", "c_fast"], rows, created)

    summary = _base_summary(cfg)
    summary.update({
        "point_spawn_keys": [0],
        "offset_hz": cfg.offset_hz,
        "gain_at_offset_db": point["gain_db"],
        "peak_lag_ref_s": ref.peak_lag,
        "peak_lag_fast_s": fast.peak_lag,
        "delta_t_s": point["delay_s_band"],
        "fwhm_ref_s": ref.fwhm,
        "fwhm_fast_s": fast.fwhm,
        "band_squeezing_db": point["squeezing_db_band"],
        "analytic_squeezing_db": point["analytic_squeezing_db"],
        "predicted_delta_t_s": predicted,
    })
    _write_summary(os.path.join(cfg.out_dir, "summary.json"), summary, created)
    return summary


def _run_selftest(cfg: ScenarioConfig, created) -> dict:
    """Fast internal consistency battery; prints one line per check."""
    fs = cfg.sampling.rate_hz
    checks = {}

    line = calibrate(7.5, 10e6, 0.025)
    peak = float(gain_db(line, 0.0))
    # The tolerances are scipy.optimize.brentq's defaults.
    root = _find_root(lambda d: gain_db(line, d) - peak / 2.0,
                      0.5 * line.gamma, 2.0 * line.gamma,
                      xtol=2e-12, rtol=4.0 * np.finfo(float).eps)
    fwhm = 2.0 * root / (2.0 * math.pi)
    checks["calibration_roundtrip"] = bool(abs(peak - 7.5) < 1e-9
                                           and abs(fwhm - 10e6) / 10e6 < 1e-6)

    ss = np.random.SeedSequence(cfg.seed, spawn_key=(101,))
    t1, _ = shot_reference(1e6, 1e6, 1 << 16, fs, ss)
    spec = psd(t1, 1 << 14)
    snu = np.mean(spec.values[1:]) / shot_noise_density(1e6, fs)
    checks["shot_floor_unity"] = bool(abs(snu - 1.0) < 0.05)

    base = band_filter(t1, 1e5, 3e6)
    shifted = fractional_shift(base, 12e-9)
    delay = peak_delay(cross_correlation(base, shifted, 1e-6),
                       cross_correlation(base, base, 1e-6))
    checks["delay_estimator_12ns"] = bool(abs(delay - 12e-9) < 0.2e-9)

    source = cfg.source.make()
    stats = seeded_stats(source.gain1, source.seed_flux)
    n_small = 1 << 17
    targets = build_targets(source, np.fft.rfftfreq(n_small, 1.0 / fs))

    def twin_pair(*spawn_key):
        return synth_twin_traces(targets, n_small, fs, stats.mean_p, stats.mean_c,
                                 np.random.SeedSequence(cfg.seed, spawn_key=spawn_key))

    diff_acc = 0.0
    for j in range(6):
        sd = psd(difference(*twin_pair(102, j)), 1 << 14)
        diff_acc = diff_acc + sd.values
    norm = snu_normalize(Spectrum(sd.frequencies, diff_acc / 6, NORM_ABSOLUTE, 1 << 14),
                         shot_floor(stats.mean_p + stats.mean_c, fs, 1 << 14))
    band_db = band_squeezing_db(norm, *cfg.band_hz)
    checks["twin_band_squeezing"] = bool(abs(band_db - squeezing_db(source.gain1)) < 0.5)

    checks["determinism"] = bool(np.array_equal(twin_pair(104)[0].samples,
                                                twin_pair(104)[0].samples))

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} selftest:{name}")
    summary = _base_summary(cfg)
    summary["checks"] = checks
    summary["all_passed"] = all(checks.values())
    _write_summary(os.path.join(cfg.out_dir, "selftest.json"), summary, created)
    return summary


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run a scenario, writing its output files into cfg.out_dir.

    On error all partially written outputs are removed and the exception is
    re-raised.  Returns the summary dictionary.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    created: list[str] = []
    runners = {
        "line-scan": _run_scan,
        "delay-scan": _run_scan,
        "xcorr": _run_xcorr,
        "selftest": _run_selftest,
    }
    try:
        return runners[cfg.scenario](cfg, created)
    except Exception:
        for path in created:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
