"""Bias of the scenarios' shot-normalized noise against the analytic
predictions, over fixed seeds.  Each seed's number is the mean over the
scan's rows; the check is that the mean over seeds lies within 3 standard
errors of the mean (the seed-to-seed spread over sqrt(seeds)) of zero."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from fastlight.analysis import _band_bins
from fastlight.cli import main
from fastlight.config import preset_coherent_ref, preset_fig2_line, preset_fig4_advance
from fastlight.predict import predicted_difference_noise_snu
from fastlight.scenario import (_measure_correlation_point, _measure_noise_point,
                                _point_seed)

SEEDS = range(501, 509)


def _per_seed_mean(cfg, column, reference=None):
    means = []
    for seed in SEEDS:
        # As the CLI runs it: the trace seeds derive from cfg.seed.
        seeded = replace(cfg, seed=seed)
        rows = [_measure_noise_point(seeded, d, _point_seed(seed, i))
                for i, d in enumerate(cfg.detunings_hz)]
        means.append(np.mean([r[column] - (r[reference] if reference else 0.0)
                              for r in rows]))
    return np.array(means)


def _assert_unbiased(means):
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means)) < 3.0 * se, (np.mean(means), se)


def test_line_scan_one_trace_noise_is_unbiased():
    """`line-scan --preset fig2-line --traces 1`: simulated minus predicted
    noise.  Dividing by a per-trace Monte-Carlo shot estimate instead of the
    analytic floor reads about +0.5 dB here (a ratio of estimates)."""
    base = preset_fig2_line()
    cfg = replace(base, sampling=replace(base.sampling, traces=1))
    _assert_unbiased(_per_seed_mean(cfg, "simulated_noise_db", "predicted_noise_db"))


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
    means = [_measure_correlation_point(replace(cfg, seed=seed), cfg.offset_hz,
                                        _point_seed(seed, 0), want_fullband=False)
             ["squeezing_db_band"] - predicted_db for seed in SEEDS]
    _assert_unbiased(np.array(means))


# delay_s_fullband and delay_s_band of the first three points of a fig2-line
# delay-scan whose full band reaches Nyquist, as version 0.4.0 drew them.
_NYQUIST_DELAYS = [
    -1.400942487849405e-07, -2.1507056295362003e-09,
    -3.4909574471205464e-13, -5.6922838676810646e-08,
    -5.923280329678845e-08, -4.334823030094788e-09,
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
    rows = [_measure_noise_point(cfg, 0.0, _point_seed(seed, 0))
            for seed in (cfg.seed, cfg.seed + 1)]
    assert rows[0]["simulated_noise_db"] != rows[1]["simulated_noise_db"]
    again = _measure_noise_point(cfg, 0.0, _point_seed(cfg.seed + 1, 0))
    assert again == rows[1]
