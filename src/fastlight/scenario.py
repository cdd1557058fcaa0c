"""Scenario runner: turns a ScenarioConfig into CSV/JSON data files.

Seed discipline: the master seed feeds a numpy SeedSequence; scan point i
uses spawn_key (i,), and trace j within a point draws from one Generator on
spawn_key (i, j): the synthesis, the detections of the reference pair, the
channel noise and the detections of the fast pair, in that order.  Each
point's shot-noise level is analytic and takes no draws.  Results are
therefore independent of execution order and identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import __version__
from .amplifier import difference_noise_after_channel
from .analysis import (CorrelationPlan, XcorrResult, _band_bins, correlation_plan,
                       cross_spectrum, lag_curves, peak_delay, spectral_correlation)
from .config import SCENARIOS, ChannelConfig, LineConfig, ScenarioConfig
from .dispersion import calibrate, gain_db, group_index, intensity_gain
from .errors import ConfigError, FastlightError, InvalidParameterError
from .predict import predicted_correlation_shift, predicted_difference_noise_snu
from .simulate import (ChannelResponse, _rfft_freqs, apply_channel, build_targets,
                       channel_response, detect_spectrum, synth_twin_spectra,
                       synthesis_factors, white_spectrum)
from .twinbeam import seeded_stats, squeezing_db


def _point_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(index,))


class _ChainHead(NamedTuple):
    """Constants of a measurement chain that no detuning changes, built from
    the config alone by the first point a process runs (``_chain_head``).

    Every trace is carried on the head of the rfft grid, its first
    ``support`` bins: the largest band support, or one past the noise band's
    last bin if that lies higher.  The synthesis factors and each point's
    channel hold those bins; no curve and no noise figure reads a bin past
    them.
    """

    mean_p: float
    mean_c: float
    factors: tuple  # synthesis factors
    plans: dict  # band field name -> CorrelationPlan
    noise_bins: range  # the noise band's bins
    support: int


@lru_cache(maxsize=8)
def _band_plan(n: int, fs: float, band: tuple, max_lag: float) -> CorrelationPlan:
    """The band's correlation plan, refused when the lag window cannot hold
    the half level of its noise-free curve (the plan applied to H^2 itself),
    since every measured width would then be undefined."""
    plan = correlation_plan(n, fs, band, max_lag)
    flat = np.ones(plan.support)
    if not math.isfinite(spectral_correlation(flat, flat, plan).fwhm):
        raise ConfigError(f"field 'max_lag_s' {max_lag} does not reach the half level "
                          f"of the correlation in band {band} Hz")
    return plan


@lru_cache(maxsize=1)
def _chain_head(cfg: ScenarioConfig) -> _ChainHead:
    """The chain head of the config's points, which correlate in and read
    their noise in the bands ``config.SCENARIOS`` names for its scenario.
    Each point fetches it; a process builds it once per config."""
    n, fs = cfg.sampling.samples, cfg.sampling.rate_hz
    correlated, (noise, _), _ = SCENARIOS[cfg.scenario]
    source = cfg.source.make()
    stats = seeded_stats(source.gain1, source.seed_flux)
    # Built before any draw, so a lag window too short fails first.
    plans = {name: _band_plan(n, fs, getattr(cfg, name), cfg.max_lag_s)
             for name in correlated}
    noise_bins = _band_bins(n, fs, *getattr(cfg, noise))
    k = max([plan.support for plan in plans.values()] + [noise_bins.stop])
    factors = synthesis_factors(build_targets(source, _rfft_freqs(n, fs, k)),
                                n, fs, stats.mean_p, stats.mean_c)
    return _ChainHead(stats.mean_p, stats.mean_c, factors, plans, noise_bins, k)


def _point_channel(cfg: ScenarioConfig, line, head: _ChainHead,
                   delta: float) -> ChannelResponse:
    """The channel of one detuning point on the head's bins, shared by its
    traces.  The config's excess raises the detected difference noise by
    1 + x over its shot level; as a flat per-sample variance on the
    propagated conjugate that is x (mean_p + mean_c_out) / eta, since
    detection scales it by eta^2 and the shot level by eta."""
    gain0 = float(intensity_gain(line, delta))
    mean_c_out = gain0 * head.mean_c + (gain0 - 1.0)
    x = 10.0 ** (cfg.channel.excess_noise_db / 10.0) - 1.0
    return channel_response(line, delta, cfg.sampling.samples, cfg.sampling.rate_hz,
                            head.mean_c, x * (head.mean_p + mean_c_out) / cfg.channel.eta,
                            bins=head.support)


def _correlate(sums: dict, pair: str, x1, x2, head: _ChainHead):
    for band, plan in head.plans.items():
        sums[band][pair] += cross_spectrum(x1, x2, plan)


def _measure_trace(cfg: ScenarioConfig, head: _ChainHead, channel: ChannelResponse,
                   rng: np.random.Generator, sums: dict) -> float:
    """One trace of a point, carried as rfft spectra on the head of the
    grid and drawn from ``rng``: the pair is synthesized, the reference pair
    is detected, and the fast pair goes through the channel and is detected.
    Each pair's cross spectrum in each band is added to
    ``sums[band]["ref"|"fast"]``.  Returns the summed power |D_k|^2 of the
    detected difference D = p - c over the noise band's bins."""
    n, eta = cfg.sampling.samples, cfg.channel.eta
    xp, xc = synth_twin_spectra(head.factors, rng, n_samples=n)
    probe_ref = detect_spectrum(xp, eta, head.mean_p, rng, n_samples=n)
    conj_ref = detect_spectrum(xc, eta, head.mean_c, rng, n_samples=n)
    _correlate(sums, "ref", probe_ref, conj_ref, head)
    apply_channel(xc, channel, rng, n_samples=n)
    detect_spectrum(xp, eta, head.mean_p, rng, out=xp, n_samples=n)
    detect_spectrum(xc, eta, channel.mean_out, rng, out=xc, n_samples=n)
    _correlate(sums, "fast", xp, xc, head)
    lo, hi = head.noise_bins.start, head.noise_bins.stop
    diff = xp[lo:hi] - xc[lo:hi]
    return float(np.sum(diff.real ** 2 + diff.imag ** 2))


def _measure_point(cfg: ScenarioConfig, detuning_hz: float,
                   point_ss: np.random.SeedSequence) -> dict:
    """Run every trace of one detuning point on the config's chain head and
    return its measured row, under the columns ``config.SCENARIOS`` pairs
    with the scenario's bands, plus each correlated band's trace-averaged
    ``(ref, fast)`` curves under "curves".  A band's delay is the fast
    curve's peak lag less the reference curve's.  The noise figure is the
    difference noise in the noise band in dB re shot noise: the mean of
    |D_k|^2 over the band's rfft bins and the traces, divided by the
    analytic shot level n M of every bin.  M = eta (mean_p + mean_c_out) is
    the per-sample variance of shot noise of the detected pair's total flux.

    The traces' cross spectra are summed per band and pair, and each band's
    two mean curves come from one paired chirp-z transform of the sums (the
    generalized cross-correlation averages cross spectra, then inverts once;
    Knapp & Carter 1976), so the transforms per point do not grow with the
    trace count."""
    correlated, (_, noise_column), _ = SCENARIOS[cfg.scenario]
    head = _chain_head(cfg)
    channel = _point_channel(cfg, cfg.line.make(), head, 2.0 * math.pi * detuning_hz)
    sums = {band: {pair: np.zeros(plan.support, dtype=complex) for pair in ("ref", "fast")}
            for band, plan in head.plans.items()}
    power = 0.0
    n_traces = cfg.sampling.traces
    for j in range(n_traces):
        rng = np.random.default_rng(np.random.SeedSequence(
            point_ss.entropy, spawn_key=point_ss.spawn_key + (j,)))
        power += _measure_trace(cfg, head, channel, rng, sums)

    row = {"curves": {}}
    for band, plan in head.plans.items():
        pair = sums[band]
        ref, fast = (XcorrResult.from_values(plan.lags, values) for values in
                     lag_curves(pair["ref"] / n_traces, pair["fast"] / n_traces, plan))
        row["curves"][band] = ref, fast
        row[correlated[band]] = peak_delay(fast, ref)
    n, eta = cfg.sampling.samples, cfg.channel.eta
    # The shot level is an expectation, not an average over traces.
    shot = n * eta * (head.mean_p + channel.mean_out)
    row[noise_column] = 10.0 * math.log10(power / (n_traces * len(head.noise_bins) * shot))
    return row


def _predicted_rows(cfg: ScenarioConfig) -> list[dict]:
    """Every deterministic column of the run's rows, from the config alone and
    before any draw, checked in the order ``config.SCENARIOS`` lists the
    scenario's columns.  A column that is not finite or that its function
    refuses is a configuration error, so numpy's warnings on the way to it
    are silenced."""
    _, (noise, _), names = SCENARIOS[cfg.scenario]
    line, source, eta = cfg.line.make(), cfg.source.make(), cfg.channel.eta
    n, fs, excess = cfg.sampling.samples, cfg.sampling.rate_hz, cfg.channel.excess_noise_db
    bins = _band_bins(n, fs, *getattr(cfg, noise))  # the points' noise bins, with no head
    noise_freqs = _rfft_freqs(n, fs, bins.stop)[bins.start:]

    def noise_db(d):
        return float(10.0 * np.log10(np.mean(predicted_difference_noise_snu(
            line, d, source, eta, excess, noise_freqs))))

    def analytic_db(d):
        gain0 = float(intensity_gain(line, 2.0 * math.pi * d))
        return difference_noise_after_channel(source.gain1, max(gain0, 1.0), eta, excess).db

    def shift_s(d):
        # The points' plan, with no head.
        plan = _band_plan(n, fs, cfg.band_hz, cfg.max_lag_s)
        return predicted_correlation_shift(line, d, source, plan, fs)

    # name: (the config sections it reads, its value at a detuning d in Hz)
    columns = {"gain_db": ("line", lambda d: float(gain_db(line, 2.0 * math.pi * d))),
               "group_index": ("line", lambda d: float(group_index(line, 2.0 * math.pi * d))),
               "predicted_noise_db": (f"line, source, channel and {noise}", noise_db),
               "analytic_squeezing_db": ("line, source and channel", analytic_db),
               "predicted_delta_t_s": ("line, source, band_hz and max_lag_s", shift_s)}
    field, detunings = (("offset_hz", (cfg.offset_hz,)) if cfg.scenario == "xcorr"
                        else ("detunings_hz", cfg.detunings_hz))
    rows = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in detunings:
            rows.append({"detuning_hz": d})
            for name in filter(columns.__contains__, names):
                reads, value_at = columns[name]
                try:
                    value = rows[-1][name] = value_at(d)
                    if not math.isfinite(value):
                        raise InvalidParameterError(f"{value} is not finite")
                except InvalidParameterError as exc:
                    raise ConfigError(f"no {name} at {field} {d}: {exc}; check the "
                                      f"config's {reads}") from exc
    return rows


def _point_worker(cfg: ScenarioConfig, index: int) -> dict:
    row = _measure_point(cfg, cfg.detunings_hz[index], _point_seed(cfg.seed, index))
    del row["curves"]
    return row


# The per-point routines under the names perfbench/tracer.py wraps.
_measure_noise_point = _measure_correlation_point = _measure_point
_noise_point_worker = _correlation_point_worker = _point_worker


def _map_points(worker, cfg: ScenarioConfig):
    """``[worker(cfg, i) for i in points]`` over the scan's point indices, in
    ``min(jobs, points)`` forked children when that is more than one and the
    platform forks.  Child w computes ``points[w::workers]``; the parent
    computes none, so its memory peak stays that of the loaded program."""
    points = range(len(cfg.detunings_hz))
    workers = min(cfg.jobs, len(points))
    if workers < 2 or not hasattr(os, "fork"):
        return [worker(cfg, i) for i in points]
    children = []  # (pid, read end of its pipe)
    reports = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_share(worker, cfg, points[w::workers], read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as fh:
                reports.append(fh.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, read_fd in children:
            os.close(read_fd)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    rows = [None] * len(points)
    failures = []  # (index of the failed point, its exception)
    for w, (code, report) in enumerate(zip(codes, reports)):
        if code != 0:
            raise FastlightError(f"scan worker {w} ended with status {code} "
                                 "before reporting its points")
        done, error = pickle.loads(report)
        rows[w:w + len(done) * workers:workers] = done
        if error is not None:
            failures.append((w + len(done) * workers, error))
    if failures:
        # The first failed point's error, as a serial run would raise it.
        raise min(failures, key=lambda failure: failure[0])[1]
    return rows


def _run_share(worker, cfg, share, read_fd, write_fd):
    """A forked child's whole life: run ``worker(cfg, i)`` for each point
    index i of ``share``, then write ``(rows, exception or None)`` pickled to
    its pipe and end in ``os._exit``, so the child never runs the parent's
    remaining code, exit handlers or stdio flushes.  It exits 1 without a
    report when pickling or writing fails."""
    status = 1
    try:
        os.close(read_fd)
        rows, error = [], None
        try:
            for i in share:
                rows.append(worker(cfg, i))
        except Exception as exc:
            error = exc
        report = pickle.dumps((rows, error))
        with open(write_fd, "wb") as fh:
            fh.write(report)
        status = 0
    finally:
        os._exit(status)


def _require_finite(path, bad):
    """Refuse to write NaN or infinity; the error names the offending keys."""
    if bad:
        raise FastlightError(f"non-finite {', '.join(bad)} not written to "
                             f"{os.path.basename(path)}")


def _write_csv(path, columns: dict, created):
    """Write {name: values} as a CSV with a header row, each cell the repr
    of a float, streamed a row at a time."""
    columns = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
    _require_finite(path, [name for name, values in columns.items()
                           if not np.isfinite(values).all()])
    # Registered before the file exists, so a failed write is cleaned up too.
    created.append(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in
                      zip(*(map(repr, map(float, values)) for values in columns.values())))


def _base_summary(cfg: ScenarioConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "master_seed": cfg.seed,
        "seed_splitting": "SeedSequence(master, spawn_key=(point, trace))",
        "point_spawn_keys": list(range(len(cfg.detunings_hz))),
        "config_sha256": cfg.config_hash(),
        # Noise is normalized to the expected shot-noise power of its bins.
        "shot_reference": "analytic",
        "fastlight_version": __version__,
        "numpy_version": np.__version__,
    }


def _write_summary(path, summary, created):
    _require_finite(path, [key for key, v in summary.items()
                           if isinstance(v, float) and not math.isfinite(v)])
    created.append(path)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_scan(cfg: ScenarioConfig, created) -> dict:
    """A line or delay scan: one CSV row per detuning point, in the columns
    ``config.SCENARIOS`` lists, then the summary."""
    names = SCENARIOS[cfg.scenario][2]
    # The table comes before the pool forks, so a bad column draws nothing; the
    # chain head does not, since delay-scan's would add about 3 MB to the parent.
    predicted = _predicted_rows(cfg)
    rows = [{**row, **point} for row, point in zip(predicted, _map_points(_point_worker, cfg))]
    _write_csv(os.path.join(cfg.out_dir, cfg.scenario.replace("-", "_") + ".csv"),
               {name: [row[name] for row in rows] for name in names}, created)
    summary = _base_summary(cfg)
    summary["rows"] = len(rows)
    _write_summary(os.path.join(cfg.out_dir, "summary.json"), summary, created)
    return summary


# xcorr's summary keys for its row's columns; any other column keeps its name.
_XCORR_SUMMARY_KEYS = {"detuning_hz": "offset_hz", "gain_db": "gain_at_offset_db",
                       "delay_s_band": "delta_t_s", "squeezing_db_band": "band_squeezing_db"}


def _run_xcorr(cfg: ScenarioConfig, created) -> dict:
    """One point at offset_hz: its band_hz curves to the CSV; its row, in the columns
    ``config.SCENARIOS`` lists, and each curve's peak lag and width to the summary."""
    predicted, = _predicted_rows(cfg)
    row = {**predicted, **_measure_point(cfg, cfg.offset_hz, _point_seed(cfg.seed, 0))}
    ref, fast = row.pop("curves")["band_hz"]
    summary = _base_summary(cfg)
    summary["point_spawn_keys"] = [0]
    for key, curve in (("ref", ref), ("fast", fast)):
        if not math.isfinite(curve.fwhm):
            raise FastlightError(f"the {key} correlation falls to half its peak on at most one "
                                 f"side inside the +-{cfg.max_lag_s:g} s lag window, so "
                                 f"fwhm_{key}_s is undefined")
        summary[f"peak_lag_{key}_s"], summary[f"fwhm_{key}_s"] = curve.peak_lag, curve.fwhm
    summary.update({_XCORR_SUMMARY_KEYS.get(name, name): row[name]
                    for name in SCENARIOS["xcorr"][2]})
    _write_csv(os.path.join(cfg.out_dir, "xcorr.csv"),
               {"lag_s": ref.lags, "c_ref": ref.values, "c_fast": fast.values}, created)
    _write_summary(os.path.join(cfg.out_dir, "summary.json"), summary, created)
    return summary


def _run_selftest(cfg: ScenarioConfig, created) -> dict:
    """Fast internal consistency battery; prints one line per check.  The
    noise checks measure one line-scan point each through the scenarios' own
    chain, with no gain and no excess, each on its own point seed; the delay
    check correlates in band_hz.  Its sizes are fixed."""
    checks = {}
    # The point seeds the checks draw from, reported in point_spawn_keys.
    keys = shot_key, twin_key, delay_key = (101, 102, 103)

    # calibrate puts the dB gain's half at detuning +-pi fwhm.  The gain
    # falls there at peak / (2 gamma) per rad/s, so 0.5e-6 peak dB is a
    # 1e-6 relative error of the width.
    line = calibrate(7.5, 10e6, 0.025)
    peak = float(gain_db(line, 0.0))
    checks["calibration_roundtrip"] = bool(
        abs(peak - 7.5) < 1e-9
        and abs(gain_db(line, math.pi * 10e6) - peak / 2.0) < 0.5e-6 * peak)

    # Sized so that each statistical check passes by more than 5 standard errors.
    bench = replace(cfg, line=LineConfig(peak_gain_db=0.0),
                    sampling=replace(cfg.sampling, samples=1 << 18, traces=16))

    def noise_db(coherent: bool, key: int, band: tuple, eta: float = 1.0) -> float:
        point = replace(bench, scenario="line-scan", detunings_hz=(0.0,), noise_band_hz=band,
                        source=replace(cfg.source, coherent=coherent),
                        channel=ChannelConfig(eta=eta, excess_noise_db=0.0))
        return _measure_point(point, 0.0, _point_seed(cfg.seed, key))["simulated_noise_db"]

    # Coherent beams detected at eta = 0.5, eta times each beam plus vacuum,
    # read the analytic shot level n eta (mean_p + mean_c).
    shot_db = noise_db(True, shot_key, cfg.fullband_hz, eta=0.5)
    checks["shot_floor_unity"] = bool(abs(10.0 ** (shot_db / 10.0) - 1.0) < 0.05)

    n, fs = bench.sampling.samples, bench.sampling.rate_hz
    plan = correlation_plan(n, fs, cfg.band_hz, 1e-6)
    x = white_spectrum(n, 1.0, _point_seed(cfg.seed, delay_key),
                       add_to=np.zeros(plan.support, dtype=complex))
    delayed = x * np.exp(-2j * np.pi * _rfft_freqs(n, fs, plan.support) * 12e-9)
    delay = peak_delay(spectral_correlation(x, delayed, plan),
                       spectral_correlation(x, x, plan))
    checks["delay_estimator_12ns"] = bool(abs(delay - 12e-9) < 0.2e-9)

    twin_db = noise_db(False, twin_key, cfg.band_hz)
    checks["twin_band_squeezing"] = bool(
        abs(twin_db - squeezing_db(cfg.source.resolved_gain1())) < 0.5)
    checks["determinism"] = noise_db(False, twin_key, cfg.band_hz) == twin_db

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} selftest:{name}")
    summary = _base_summary(cfg)
    summary["point_spawn_keys"] = list(keys)
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
