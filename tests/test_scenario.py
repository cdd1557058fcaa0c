"""Bias of the scenarios' shot-normalized noise against the analytic
predictions, over fixed seeds.  Each seed's number is the mean over the
scan's rows; the check is that the mean over seeds lies within 3 standard
errors of the mean (the seed-to-seed spread over sqrt(seeds)) of zero."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fastlight.analysis import _band_bins
from fastlight.cli import main
from fastlight.config import preset_coherent_ref, preset_fig2_line, preset_fig4_advance
from fastlight.dispersion import intensity_gain
from fastlight.predict import predicted_difference_noise_snu
from fastlight.scenario import (_chain_head, _measure_point, _measure_trace, _point_channel,
                                _point_seed, _predicted_rows)
from fastlight.simulate import (apply_channel, build_targets, channel_response,
                                detect_spectrum, synth_twin_spectra, synthesis_factors)
from fastlight.twinbeam import seeded_stats

SEEDS = range(501, 509)


def _per_seed_mean(cfg, column, reference=None):
    means = []
    for seed in SEEDS:
        # As the CLI runs it: the trace seeds derive from cfg.seed.
        seeded = replace(cfg, seed=seed)
        rows = [_measure_point(seeded, d, _point_seed(seed, i))
                for i, d in enumerate(cfg.detunings_hz)]
        predicted = _predicted_rows(seeded)
        means.append(np.mean([r[column] - (p[reference] if reference else 0.0)
                              for r, p in zip(rows, predicted)]))
    return np.array(means)


def _assert_unbiased(means, expected=0.0):
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - expected) < 3.0 * se, (np.mean(means), expected, se)


def _jensen_db(powers: int) -> float:
    """The expectation of 10 log10 of the mean of ``powers`` independent
    exponential powers of mean 1: (10 / ln 10)(psi(m) - ln m) for m powers,
    with psi(m) = -gamma + sum_{i<m} 1/i.  A noise figure that averages
    bins and traces before its log reads this far below the expected power."""
    digamma = -np.euler_gamma + sum(1.0 / i for i in range(1, powers))
    return 10.0 / math.log(10.0) * (digamma - math.log(powers))


def test_line_scan_one_trace_noise_is_unbiased():
    """`line-scan --preset fig2-line --traces 1`: simulated minus predicted
    noise, against the figure's own expectation, which sits _jensen_db of
    the noise band's bins times the traces (-0.042 dB at 52 bins) below the
    prediction.  Dividing by a per-trace Monte-Carlo shot estimate instead
    of the analytic floor reads about +0.5 dB here (a ratio of estimates)."""
    base = preset_fig2_line()
    cfg = replace(base, sampling=replace(base.sampling, traces=1))
    bins = _band_bins(cfg.sampling.samples, cfg.sampling.rate_hz, *cfg.noise_band_hz)
    _assert_unbiased(_per_seed_mean(cfg, "simulated_noise_db", "predicted_noise_db"),
                     _jensen_db(len(bins) * cfg.sampling.traces))


def test_coherent_ref_reads_zero_db():
    """Independent coherent beams without a medium sit on the shot-noise floor."""
    cfg = preset_coherent_ref()
    _assert_unbiased(_per_seed_mean(cfg, "simulated_noise_db"))


def test_xcorr_band_squeezing_matches_the_sideband_resolved_prediction():
    """`xcorr --preset fig4-advance` at 3 traces: squeezing_db_band minus the
    band mean of predicted_difference_noise_snu over the band's rfft bins."""
    base = preset_fig4_advance()
    cfg = replace(base, sampling=replace(base.sampling, traces=3))
    n, fs = cfg.sampling.samples, cfg.sampling.rate_hz
    bins = _band_bins(n, fs, *cfg.band_hz)
    predicted = predicted_difference_noise_snu(
        cfg.line.make(), cfg.offset_hz, cfg.source.make(), cfg.channel.eta,
        cfg.channel.excess_noise_db, np.fft.rfftfreq(n, 1.0 / fs)[bins.start:bins.stop])
    predicted_db = 10.0 * np.log10(np.mean(predicted))
    means = [_measure_point(replace(cfg, seed=seed), cfg.offset_hz,
                            _point_seed(seed, 0))["squeezing_db_band"]
             - predicted_db for seed in SEEDS]
    _assert_unbiased(np.array(means))


def _hand_trace(cfg, point: int, bins: int):
    """The first trace of scan point ``point``, composed from the kernels by
    hand on the first ``bins`` bins of the rfft grid and drawn from the one
    stream `summary.json`'s seed_splitting names: a Generator on
    SeedSequence(master, spawn_key=(point, 0)), read by the synthesis, the
    reference pair's detections, the channel and the fast pair's detections
    in that order.  Returns the detected reference pair, the detected fast
    pair and the conjugate's mean flux out of the channel."""
    n, fs, eta = cfg.sampling.samples, cfg.sampling.rate_hz, cfg.channel.eta
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(point, 0)))
    source = cfg.source.make()
    stats = seeded_stats(source.gain1, source.seed_flux)
    targets = build_targets(source, np.fft.rfftfreq(n, 1.0 / fs)[:bins])
    xp, xc = synth_twin_spectra(synthesis_factors(targets, n, fs, stats.mean_p, stats.mean_c),
                                rng, n)
    ref = (detect_spectrum(xp, eta, stats.mean_p, rng, n),
           detect_spectrum(xc, eta, stats.mean_c, rng, n))
    line, delta = cfg.line.make(), 2.0 * math.pi * cfg.detunings_hz[point]
    gain0 = float(intensity_gain(line, delta))
    mean_c_out = gain0 * stats.mean_c + (gain0 - 1.0)
    # The difference-level excess as a flat per-sample variance on the fast conjugate.
    x = 10.0 ** (cfg.channel.excess_noise_db / 10.0) - 1.0
    channel = channel_response(line, delta, n, fs, stats.mean_c,
                               x * (stats.mean_p + mean_c_out) / eta, bins=bins)
    apply_channel(xc, channel, rng, n)
    fast = (detect_spectrum(xp, eta, stats.mean_p, rng, n, out=xp),
            detect_spectrum(xc, eta, channel.mean_out, rng, n, out=xc))
    return ref, fast, channel.mean_out


def test_line_scan_row_is_the_hand_built_trace(tmp_path):
    """A one-trace line-scan row's simulated_noise_db, bit for bit, from the
    stream that its summary's seed_splitting names: the noise band's power of
    the hand-built trace's detected difference over its analytic shot level."""
    out = tmp_path / "o"
    assert main(["line-scan", "--preset", "fig2-line", "--traces", "1", "--seed", "77",
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed_splitting"] == "SeedSequence(master, spawn_key=(point, trace))"
    with open(out / "line_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    base = preset_fig2_line()
    cfg = replace(base, seed=77, sampling=replace(base.sampling, traces=1))
    n, fs, eta = cfg.sampling.samples, cfg.sampling.rate_hz, cfg.channel.eta
    noise = _band_bins(n, fs, *cfg.noise_band_hz)
    stats = seeded_stats(cfg.source.make().gain1, cfg.source.seed_flux)
    for point in (0, 12, 17):
        _, (xp, xc), mean_out = _hand_trace(cfg, point, noise.stop)
        diff = xp[noise.start:] - xc[noise.start:]
        power = float(np.sum(diff.real ** 2 + diff.imag ** 2))
        shot = n * eta * (stats.mean_p + mean_out)
        want = 10.0 * math.log10(power / (len(noise) * shot))
        assert float(rows[point]["simulated_noise_db"]) == want


# delay_s_fullband and delay_s_band of the first three points of a fig2-line
# delay-scan whose full band reaches Nyquist: each point's _hand_trace on the
# whole rfft grid (2,049 bins), its two pairs' cross_spectrum on each band's
# correlation_plan, one lag_curves per band and peak_delay.
_NYQUIST_DELAYS = [
    -4.134057242702189e-08, -1.324994955630878e-09,
    -1.9387151189741135e-07, 2.3685605174118244e-10,
    -1.5917841283271797e-07, 1.2289950126368654e-09,
]


def test_delay_scan_whose_band_support_reaches_nyquist(tmp_path):
    """With fullband_hz reaching past Nyquist's raised-cosine edge at 2^12
    samples, the head is the whole rfft grid (2,049 bins): the chain keeps
    Nyquist real and the correlation delays are the ones the whole-grid
    kernels drew."""
    base = preset_fig2_line()
    cfg = {**base.to_dict(), "scenario": "delay-scan", "fullband_hz": [3e7, 9e8],
           "max_lag_s": 2e-7, "detunings_hz": [-30e6, -27.5e6, -25e6],
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 12, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["delay-scan", "--config", str(path)]) == 0
    with open(tmp_path / "o" / "delay_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    got = [float(r[c]) for r in rows for c in ("delay_s_fullband", "delay_s_band")]
    # Within a femtosecond: other platforms round FFTs differently.
    assert got == pytest.approx(_NYQUIST_DELAYS, rel=0, abs=1e-15)


def test_point_seed_entropy_reaches_the_traces():
    """A point's traces draw from the point seed they are given, not from the
    config's own seed: one config, two point seeds, two different rows."""
    base = preset_fig2_line()
    cfg = replace(base, sampling=replace(base.sampling, samples=1 << 16, traces=1))
    rows = [_measure_point(cfg, 0.0, _point_seed(seed, 0))
            for seed in (cfg.seed, cfg.seed + 1)]
    assert rows[0]["simulated_noise_db"] != rows[1]["simulated_noise_db"]
    again = _measure_point(cfg, 0.0, _point_seed(cfg.seed + 1, 0))
    assert again == rows[1]


@pytest.mark.parametrize("peak_gain_db, excess_db, eta", [
    (7.5, 0.2, 0.95), (0.0, 0.0, 0.95), (7.5, 0.2, 1.0), (0.0, 0.0, 1.0),
], ids=["twin_on_a_gain_line", "no_gain_no_excess", "lossless", "both"])
def test_every_trace_draws_fourteen_normals_per_head_bin(peak_gain_db, excess_db, eta):
    """A trace on k head bins draws 4·k normals for the synthesis, then 2·k
    for each of the two reference detections, the channel and the two fast
    detections, whatever the config: the stream's bit generator ends where
    14·k normals drawn in one call leave it."""
    base = preset_fig2_line()
    cfg = replace(base, detunings_hz=(0.0,), line=replace(base.line, peak_gain_db=peak_gain_db),
                  channel=replace(base.channel, eta=eta, excess_noise_db=excess_db),
                  sampling=replace(base.sampling, samples=1 << 14, traces=1))
    head = _chain_head(cfg)
    channel = _point_channel(cfg, cfg.line.make(), head, 0.0)
    rng, ref = (np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0, 0)))
                for _ in range(2))
    _measure_trace(cfg, head, channel, rng, {})
    ref.standard_normal(14 * head.support)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [11, 12345])
def test_noise_is_continuous_as_the_excess_reaches_0_db(seed):
    """`coherent-ref` runs on a line with no gain: at an excess of 0 dB its
    channel multiplies by 1 and adds zero-deviation noise, drawing what it
    draws at 1e-9 dB, so the noise figure moves by far less than its scatter
    (about 0.4 dB at 2^14 samples and 2 traces)."""
    base = preset_coherent_ref()
    cfg = replace(base, seed=seed, sampling=replace(base.sampling, samples=1 << 14, traces=2))
    noise = [_measure_point(replace(cfg, channel=replace(cfg.channel, excess_noise_db=x)),
                            0.0, _point_seed(seed, 0))["simulated_noise_db"]
             for x in (0.0, 1e-9)]
    assert abs(noise[1] - noise[0]) < 1e-3, noise


_DARK_CASES = ["no_line_gain", "far_detuning"]


def _dark_after_the_line(case):
    """A coherent pair at gain1 = 1 with a 0.2 dB excess, its noise read in
    0.1-20 MHz, whose conjugate is still dark after the line: `coherent-ref`
    on its line with no gain, or on the fig2-line line at a detuning where
    the intensity gain rounds to exactly 1."""
    base = preset_coherent_ref()
    cfg = replace(base, source=replace(base.source, gain1=1.0), noise_band_hz=(1e5, 2e7),
                  channel=replace(base.channel, excess_noise_db=0.2))
    if case == "far_detuning":
        cfg = replace(cfg, line=preset_fig2_line().line, detunings_hz=(1e15,))
    return cfg


@pytest.mark.parametrize("case", _DARK_CASES)
def test_excess_on_a_conjugate_dark_after_the_line_is_a_flux_variance(case):
    """On a conjugate still dark after the line the channel adds the excess
    alone, the flat per-sample variance x mean_p / eta, and a point measures
    a finite noise figure there (0.19.0 converted the excess to the dark
    beam's shot units, and this call raised ZeroDivisionError)."""
    cfg = _dark_after_the_line(case)
    cfg = replace(cfg, sampling=replace(cfg.sampling, samples=1 << 14, traces=1))
    eta, d = cfg.channel.eta, cfg.detunings_hz[0]
    head = _chain_head(cfg)
    channel = _point_channel(cfg, cfg.line.make(), head, 2.0 * math.pi * d)
    assert head.mean_c == channel.mean_out == 0.0
    x = 10.0 ** 0.02 - 1.0
    np.testing.assert_allclose(channel.noise_var[1:], x * head.mean_p / eta, rtol=1e-12)
    row = _measure_point(cfg, d, _point_seed(cfg.seed, 0))
    assert math.isfinite(row["simulated_noise_db"])


@pytest.mark.parametrize("case", _DARK_CASES)
def test_excess_on_a_conjugate_dark_after_the_line_reads_its_db(case):
    """The seed-averaged noise of a conjugate still dark after the line is
    the config's excess, less the figure's _jensen_db: 8 seeds of 20 traces
    at 2^18 samples, 2,087 noise bins per trace (about 0.1 s per case)."""
    cfg = _dark_after_the_line(case)
    bins = _band_bins(cfg.sampling.samples, cfg.sampling.rate_hz, *cfg.noise_band_hz)
    assert len(bins) == 2087
    _assert_unbiased(_per_seed_mean(cfg, "simulated_noise_db"),
                     cfg.channel.excess_noise_db + _jensen_db(len(bins) * cfg.sampling.traces))
