"""Bias of the scenarios' shot-normalized noise against the analytic
predictions, over fixed seeds.  Each seed's number is the mean over the
scan's rows; the check is that the mean over seeds lies within 3 standard
errors of the mean (the seed-to-seed spread over sqrt(seeds)) of zero."""

from dataclasses import replace

import numpy as np

from fastlight.config import preset_coherent_ref, preset_fig2_line
from fastlight.scenario import _measure_noise_point, _point_seed

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
