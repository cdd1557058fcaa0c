from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.analysis import (XcorrResult, _band_end, _fwhm, _parabola_peak,
                                band_response, correlation_plan, cross_spectrum,
                                lag_curves, peak_delay, spectral_correlation)
from fastlight.errors import DegeneratePeakError, InvalidParameterError
from oracles import allocating_lag_curves, circular_correlation

RATE = 2.5e9


def _white_spectrum(n, seed):
    """The rfft of an n-sample white record."""
    return np.fft.rfft(np.random.default_rng(seed).standard_normal(n))


def _delayed(x, n, delay):
    """An rfft spectrum under the phase ramp that delays its record by
    ``delay`` seconds, circularly."""
    return x * np.exp(-2j * np.pi * np.fft.rfftfreq(n, 1.0 / RATE) * delay)


def _bandpass(samples, f_lo, f_hi):
    """A record band-filtered by band_response: its rfft times H, transformed back."""
    n = samples.size
    h = band_response(np.fft.rfftfreq(n, 1.0 / RATE), f_lo, f_hi)
    return np.fft.irfft(np.fft.rfft(samples) * h, n)


def test_band_response_half_power_at_corners():
    f = np.array([1e5, 3e6])
    h = band_response(f, 1e5, 3e6)
    np.testing.assert_allclose(20 * np.log10(h), -3.0103, atol=0.02)


def test_band_response_midband_unity_and_stopband_zero():
    h = band_response(np.array([2e5, 1e6, 40e6]), 1e5, 3e6)
    assert h[0] == 1.0 and h[1] == 1.0 and h[2] == 0.0


@pytest.mark.parametrize("band", [(1e5, 3e6), (1e4, 2e7), (1e6, 2e7)])
def test_band_response_is_zero_from_band_end_up(band):
    end = _band_end(band[1])
    f = np.array([end * (1.0 - 1e-9), np.nextafter(end, 0.0), end,
                  np.nextafter(end, np.inf), 2.0 * end])
    h = band_response(f, *band)
    assert np.all(h[:2] > 0.0) and np.all(h[2:] == 0.0), h


def test_band_response_rejects_bad_bands():
    with pytest.raises(InvalidParameterError, match="f_lo < f_hi"):
        band_response(np.array([1e6]), 3e6, 1e5)
    with pytest.raises(InvalidParameterError, match="edges overlap"):
        band_response(np.array([1e6]), 1e6, 1.2e6)


def test_spectral_correlation_self_peaks_at_zero():
    n = 1 << 16
    x = _white_spectrum(n, seed=10)
    xc = spectral_correlation(x, x, correlation_plan(n, RATE, (1e5, 3e6), 1e-6))
    assert xc.peak_lag == pytest.approx(0.0, abs=1e-12)
    assert xc.values.max() == pytest.approx(1.0, rel=1e-9)
    assert np.max(np.abs(xc.values)) <= 1.0 + 1e-9


def test_spectral_correlation_shift_theorem_sign():
    n, k = 1 << 16, 25
    a = np.random.default_rng(11).standard_normal(n)
    xc = spectral_correlation(np.fft.rfft(a), np.fft.rfft(np.roll(a, k)),
                              correlation_plan(n, RATE, (1e5, 3e6), 1e-6))
    assert xc.peak_lag == pytest.approx(k / RATE, abs=0.05 / RATE)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_spectral_correlation_matches_time_domain_oracle(data):
    n = 1 << data.draw(st.integers(min_value=10, max_value=14), label="log2_n")
    bin_hz = RATE / n
    f_lo = data.draw(st.floats(min_value=4 * bin_hz, max_value=RATE / 200), label="f_lo")
    # Ratio >= 3.1 keeps the default raised-cosine edges from overlapping.
    f_hi = f_lo * data.draw(st.floats(min_value=3.1, max_value=min(100.0, 0.45 * RATE / f_lo)),
                            label="f_hi / f_lo")
    n_lag = data.draw(st.integers(min_value=1, max_value=n // 8), label="n_lag")
    kind = data.draw(st.sampled_from(["correlated", "delayed", "independent"]), label="pair")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    if kind == "correlated":
        b = 0.8 * a + 0.6 * b
    elif kind == "delayed":
        b = np.roll(a, int(rng.integers(-n_lag, n_lag + 1))) + 0.3 * b
    lags = np.arange(-n_lag, n_lag + 1) / RATE
    banded = XcorrResult.from_values(lags, circular_correlation(
        _bandpass(a, f_lo, f_hi), _bandpass(b, f_lo, f_hi), n_lag))
    raw = XcorrResult.from_values(lags, circular_correlation(a, b, n_lag))

    max_lag = n_lag / RATE
    plan = correlation_plan(n, RATE, (f_lo, f_hi), max_lag)
    all_pass = correlation_plan(n, RATE, None, max_lag)
    assert all_pass.support == n // 2 + 1  # the Nyquist bin included
    xa, xb = np.fft.rfft(a), np.fft.rfft(b)
    k = plan.support
    for got, oracle in (
            (spectral_correlation(xa, xb, plan), banded),
            (spectral_correlation(xa[:k], xb[:k], plan), banded),
            (spectral_correlation(xa, xb, all_pass), raw)):
        np.testing.assert_array_equal(got.lags, oracle.lags)
        np.testing.assert_allclose(got.values, oracle.values, rtol=0, atol=1e-12)
        assert got.peak_lag == pytest.approx(oracle.peak_lag, rel=0, abs=1e-6 / RATE)
        np.testing.assert_allclose(got.fwhm, oracle.fwhm, rtol=0, atol=1e-6 / RATE)


def _is_7_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


def test_correlation_plan_support_is_where_the_band_is():
    n = 1 << 14
    freqs = np.fft.rfftfreq(n, 1.0 / RATE)
    for band in ((1e5, 3e6), (1e6, 2e8), (3e7, 4e8)):
        plan = correlation_plan(n, RATE, band, 1e-7)
        h2 = band_response(freqs, *band) ** 2
        assert plan.support == np.flatnonzero(h2)[-1] + 1
        assert plan.weights[0] == 0.5 * h2[0]
        np.testing.assert_array_equal(plan.weights[1:], h2[1:plan.support])
        # The smallest 2^a 3^b 5^c 7^d at or above 2K - 1 + 2 n_lag.
        size = plan.kernel.size
        assert size >= 2 * plan.support - 1 + 2 * 250
        assert all(not _is_7_smooth(m) for m in range(2 * plan.support - 1 + 2 * 250, size))
        assert _is_7_smooth(size)
    # At the presets' sizes: both bands of fig2-line, the band of fig4-advance.
    from fastlight.config import preset_fig2_line, preset_fig4_advance
    for cfg, bands, sizes in ((preset_fig2_line(), ("band_hz", "fullband_hz"), [11250, 18225]),
                              (preset_fig4_advance(), ("band_hz",), [15000])):
        n, rate = cfg.sampling.samples, cfg.sampling.rate_hz
        assert [correlation_plan(n, rate, getattr(cfg, band), cfg.max_lag_s).kernel.size
                for band in bands] == sizes
    # One plan per (n, rate, band, lag window), whatever the lag's spelling.
    assert correlation_plan(n, RATE, (1e5, 3e6), 1e-7) is correlation_plan(
        n, RATE, [100000, 3000000], 1e-7 + 1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_n=st.integers(min_value=10, max_value=14),
       n_lag=st.integers(min_value=1, max_value=128))
def test_bins_past_the_support_never_reach_the_curve(seed, log_n, n_lag):
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    plan = correlation_plan(n, RATE, (RATE / 400, RATE / 40), n_lag / RATE)
    k = plan.support
    assert k < n // 2 + 1
    xa, xb = (np.fft.rfft(rng.standard_normal(n)) for _ in range(2))
    want = spectral_correlation(xa, xb, plan)
    xa[k:] = rng.standard_normal(xa.size - k) + 1j * rng.standard_normal(xa.size - k)
    xb[k:] *= 1e6
    got = spectral_correlation(xa, xb, plan)
    assert np.array_equal(got.values, want.values)
    assert got.peak_lag == want.peak_lag and np.array_equal(got.fwhm, want.fwhm, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_n=st.integers(min_value=8, max_value=14),
       n_lag=st.integers(min_value=1, max_value=64), traces=st.integers(1, 4),
       all_pass=st.booleans())
def test_paired_lag_curves_equal_the_separate_and_per_trace_curves(seed, log_n, n_lag,
                                                                   traces, all_pass):
    """One transform of a + i b carries the curve of a in its real part and
    that of b in its imaginary part, and the curve of summed cross spectra is
    the sum of the per-trace curves; the all-pass support holds Nyquist."""
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    plan = correlation_plan(n, RATE, None if all_pass else (RATE / 400, RATE / 40),
                            min(n_lag, n // 8) / RATE)
    assert (plan.support == n // 2 + 1) == all_pass

    def spectrum():
        return np.fft.rfft(rng.standard_normal(n))

    pairs = {}
    for name in ("ref", "fast"):
        pairs[name] = []
        for _ in range(traces):
            x1 = spectrum()
            pairs[name].append((x1, 0.6 * x1 + spectrum()))
    crossed = {name: [cross_spectrum(x1, x2, plan) for x1, x2 in pair]
               for name, pair in pairs.items()}
    a, b = crossed["ref"][0], crossed["fast"][0]
    ref, fast = lag_curves(a, b, plan)
    np.testing.assert_allclose(ref, lag_curves(a, np.zeros_like(b), plan)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast, lag_curves(b, np.zeros_like(a), plan)[0], rtol=0, atol=1e-12)
    mean_ref, mean_fast = lag_curves(sum(crossed["ref"]) / traces,
                                     sum(crossed["fast"]) / traces, plan)
    for got, pair in ((mean_ref, pairs["ref"]), (mean_fast, pairs["fast"])):
        want = np.mean([spectral_correlation(x1, x2, plan).values for x1, x2 in pair], axis=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lag_curves_in_the_work_buffer_equal_the_allocating_transform():
    """Bit for bit the allocating transform, with calls interleaved across
    the two fig2-line plans (kernel lengths 11,250 and 18,225); the curves
    share no memory with the plans' work buffers, and a later call leaves
    earlier curves as they were."""
    from fastlight.config import preset_fig2_line

    cfg = preset_fig2_line()
    n, rate = cfg.sampling.samples, cfg.sampling.rate_hz
    plans = [correlation_plan(n, rate, band, cfg.max_lag_s)
             for band in (cfg.band_hz, cfg.fullband_hz)]
    assert [plan.kernel.size for plan in plans] == [11250, 18225]
    rng = np.random.default_rng(23)
    kept = []
    for _ in range(3):
        for plan in plans:
            a, b = (cross_spectrum(_white_spectrum(n, rng), _white_spectrum(n, rng), plan)
                    for _ in range(2))
            got = lag_curves(a, b, plan)
            want = allocating_lag_curves(a, b, plan)
            for curve, expected in zip(got, want):
                assert np.array_equal(curve, expected)
                assert not any(np.shares_memory(curve, p.work) for p in plans)
            kept.append((got, [curve.copy() for curve in got]))
    for got, copies in kept:
        assert all(np.array_equal(curve, copy) for curve, copy in zip(got, copies))


def test_spectral_correlation_rejects_bad_inputs():
    n = 1 << 12
    x = _white_spectrum(n, seed=18)
    plan = correlation_plan(n, RATE, (1e6, 2e8), 1e-7)
    with pytest.raises(InvalidParameterError, match="at least"):
        spectral_correlation(x, x[:plan.support - 1], plan)
    with pytest.raises(InvalidParameterError, match="rfft grid"):
        spectral_correlation(np.append(x, 0.0), x, plan)
    with pytest.raises(InvalidParameterError, match="zero-energy"):
        spectral_correlation(x, np.zeros(x.size), plan)
    with pytest.raises(InvalidParameterError, match="below one sample"):
        correlation_plan(n, RATE, None, 0.1 / RATE)
    with pytest.raises(InvalidParameterError, match="too long"):
        correlation_plan(n, RATE, None, 513 / RATE)
    # A band between two bins of the grid has no support at all.
    with pytest.raises(InvalidParameterError, match="zero-energy"):
        correlation_plan(n, RATE, (1.0, 4.0), 1e-7)


def test_correlation_point_fft_count(monkeypatch):
    """Guards the spectral chain: a trace stays an rfft spectrum on the head
    of the grid from synthesis to the band power of its difference, so no
    trace takes a full-length transform; the traces' cross spectra are summed,
    and each band's reference and fast curves are one paired chirp-z
    transform per point (an fft and an ifft of the plan's kernel length),
    whatever the trace count; the shot-noise level is analytic and takes none."""
    from fastlight import scenario
    from fastlight.config import config_from_dict, preset_fig2_line

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((fn.__name__, out.shape[-1]))
            return out
        return wrapper

    base = preset_fig2_line().to_dict()
    for traces in (1, 3):
        cfg = config_from_dict({**base, "scenario": "delay-scan",
                                "sampling": {"rate_hz": RATE, "samples": 1 << 16,
                                             "traces": traces}})
        sizes = [correlation_plan(1 << 16, RATE, band, cfg.max_lag_s).kernel.size
                 for band in (cfg.band_hz, cfg.fullband_hz)]
        # The plans are built once per process, before this point's traces.
        scenario._measure_correlation_point(cfg, 5e6, scenario._point_seed(1, 0))
        with monkeypatch.context() as patch:
            for name in ("rfft", "irfft", "fft", "ifft"):
                patch.setattr(np.fft, name, counted(getattr(np.fft, name)))
            # A delay-scan point correlates in both bands, an xcorr point in band_hz.
            for point_cfg, bands in ((cfg, 2), (replace(cfg, scenario="xcorr"), 1)):
                calls.clear()
                scenario._measure_correlation_point(point_cfg, 5e6, scenario._point_seed(1, 0))
                assert sorted(calls) == sorted((name, size) for size in sizes[:bands]
                                               for name in ("fft", "ifft"))
            calls.clear()
            scenario._measure_noise_point(replace(cfg, scenario="line-scan"), 5e6,
                                          scenario._point_seed(1, 0))
            assert calls == []


def test_trace_normal_draws_per_trace_stream(monkeypatch):
    """Each trace draws from one generator, keyed by its (point, trace) spawn
    key, on the head of the rfft grid only, its first k bins: 4 k normals
    for the synthesis, then 2 k for each detection of the reference pair,
    2 k for the channel noise and 2 k for each detection of the fast pair,
    14 k per trace in that order.  k is the largest band support, or one
    past the noise band's last bin when nothing is correlated."""
    from fastlight import scenario
    from fastlight.analysis import _band_bins
    from fastlight.config import config_from_dict, preset_fig2_line

    traces, n = 2, 1 << 16
    cfg = config_from_dict({**preset_fig2_line().to_dict(), "scenario": "delay-scan",
                            "sampling": {"rate_hz": RATE, "samples": n, "traces": traces}})
    drawn = {}  # spawn key -> [[kernel, normals drawn], ...] in call order
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            assert seed.spawn_key not in drawn, "a second generator on one key"
            self.key = seed.spawn_key
            self.rng = default_rng(seed)
            drawn[self.key] = []

        def standard_normal(self, size=None, out=None):
            z = self.rng.standard_normal(size, out=out)
            drawn[self.key][-1][1] += z.size
            return z

    def logged(name, kernel):
        def wrapper(*args, **kwargs):
            rng, = [a for a in (*args, *kwargs.values()) if isinstance(a, Counted)]
            drawn[rng.key].append([name, 0])
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: seed if isinstance(seed, Counted) else Counted(seed))
    for name in ("synth_twin_spectra", "detect_spectrum", "apply_channel"):
        monkeypatch.setattr(scenario, name, logged(name, getattr(scenario, name)))

    def per_trace(k):
        detect = ["detect_spectrum", 2 * k]
        trace = [["synth_twin_spectra", 4 * k], detect, detect,
                 ["apply_channel", 2 * k], detect, detect]
        return {(3, j): trace for j in range(traces)}

    for point_cfg, bands in ((cfg, (cfg.band_hz, cfg.fullband_hz)),
                             (replace(cfg, scenario="xcorr"), (cfg.band_hz,))):
        k = max(correlation_plan(n, RATE, band, cfg.max_lag_s).support for band in bands)
        drawn.clear()
        scenario._measure_correlation_point(point_cfg, 5e6, scenario._point_seed(1, 3))
        assert drawn == per_trace(k)
    k = _band_bins(n, RATE, *cfg.noise_band_hz).stop
    assert 0 < k < 100
    drawn.clear()
    scenario._measure_noise_point(replace(cfg, scenario="line-scan"), 5e6,
                                  scenario._point_seed(1, 3))
    assert drawn == per_trace(k)


def test_noise_point_frees_each_trace():
    """A trace's records are freed before the next synthesis, so the memory
    peak of a scan point does not grow with its trace count."""
    import tracemalloc

    from fastlight import scenario
    from fastlight.config import config_from_dict, preset_fig2_line

    def peak(traces):
        cfg = config_from_dict({**preset_fig2_line().to_dict(),
                                "sampling": {"rate_hz": RATE, "samples": 1 << 18,
                                             "traces": traces}})
        tracemalloc.start()
        try:
            scenario._measure_noise_point(cfg, 0.0, scenario._point_seed(cfg.seed, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call set-up is not part of the comparison
    assert peak(3) <= 1.05 * peak(1)


def test_peak_delay_pure_shifts():
    n = 1 << 18
    x = _white_spectrum(n, seed=14)
    plan = correlation_plan(n, RATE, (1e5, 3e6), 2e-6)
    ref = spectral_correlation(x, x, plan)
    for delay in (12e-9, -12e-9, 0.5 / RATE):
        fast = spectral_correlation(x, _delayed(x, n, delay), plan)
        got = peak_delay(fast, ref)
        assert got == pytest.approx(delay, abs=0.1 / RATE)


def test_peak_delay_subsample_accuracy():
    n = 1 << 18
    x = _white_spectrum(n, seed=15)
    plan = correlation_plan(n, RATE, (1e5, 3e6), 2e-6)
    ref = spectral_correlation(x, x, plan)
    for frac in (0.3, 0.5, 0.7):
        got = peak_delay(spectral_correlation(x, _delayed(x, n, frac / RATE), plan), ref)
        assert abs(got - frac / RATE) < 0.1 / RATE


def test_peak_delay_antisymmetry():
    n = 1 << 17
    a = _white_spectrum(n, seed=16)
    b = _delayed(a, n, 7.3e-9)
    plan = correlation_plan(n, RATE, (1e5, 3e6), 2e-6)
    ref = spectral_correlation(a, a, plan)
    fwd = peak_delay(spectral_correlation(a, b, plan), ref)
    rev = peak_delay(spectral_correlation(b, a, plan), ref)
    assert fwd == pytest.approx(-rev, abs=0.1 / RATE)


def test_peak_delay_band_invariance():
    # Filtering both records identically moves an in-band pure shift < 0.2 ns.
    n = 1 << 18
    x = _white_spectrum(n, seed=17)
    shifted = _delayed(x, n, 12e-9)
    delays = []
    for band in ((1e5, 20e6), (1e5, 3e6)):
        plan = correlation_plan(n, RATE, band, 2e-6)
        delays.append(peak_delay(spectral_correlation(x, shifted, plan),
                                 spectral_correlation(x, x, plan)))
    raw, banded = delays
    assert abs(banded - raw) < 0.2e-9


def test_peak_delay_degenerate_flat_correlation():
    lags = np.arange(-50, 51) / RATE
    flat = XcorrResult.from_values(lags, np.full(101, 0.5))
    with pytest.raises(DegeneratePeakError):
        peak_delay(flat, flat)


def test_peak_delay_degenerate_separated_maxima():
    lags = np.arange(-50, 51) / RATE
    x = np.arange(-50, 51)
    twin = np.exp(-0.5 * ((x - 20) / 4.0) ** 2) + np.exp(-0.5 * ((x + 20) / 4.0) ** 2)
    one = XcorrResult.from_values(lags, np.exp(-0.5 * (x / 4.0) ** 2))
    with pytest.raises(DegeneratePeakError):
        peak_delay(XcorrResult.from_values(lags, twin), one)


def test_peak_delay_accepts_a_broad_smooth_peak():
    """Samples within the tie tolerance of the top on the slopes of one
    peak are no second maximum."""
    lags = np.arange(-500, 501) / RATE
    x = np.arange(-500, 501)
    broad = XcorrResult.from_values(lags, 0.335 - 1e-7 * (x - 3.3) ** 2)
    assert np.sum(broad.values >= broad.values.max() - 1e-6) > 3
    one = XcorrResult.from_values(lags, np.exp(-0.5 * (x / 4.0) ** 2))
    assert peak_delay(broad, one) == pytest.approx(3.3 / RATE, abs=1e-6 / RATE)


def test_peak_delay_compares_distinct_lag_arrays_only(monkeypatch):
    """Two curves on one lag array need no comparison; distinct arrays are
    compared, and equal values pass while a grid off by a part in a million does
    not."""
    lags = np.arange(-50, 51) / RATE
    values = np.exp(-0.5 * (np.arange(-50, 51) / 4.0) ** 2)
    one = XcorrResult.from_values(lags, values)
    compared = []

    def allclose(*args, **kwargs):
        compared.append(args)
        return np.isclose(*args, **kwargs).all()

    monkeypatch.setattr(np, "allclose", allclose)
    assert peak_delay(one, XcorrResult.from_values(lags, np.roll(values, 3))) == \
        pytest.approx(-3 / RATE, abs=1e-6 / RATE)
    assert compared == []
    assert peak_delay(one, XcorrResult.from_values(lags.copy(), values)) == 0.0
    assert len(compared) == 1
    with pytest.raises(InvalidParameterError, match="identical lag grids"):
        peak_delay(one, XcorrResult.from_values(lags * (1.0 + 1e-6), values))


def test_peak_delay_grid_mismatch():
    lags_a = np.arange(-50, 51) / RATE
    lags_b = np.arange(-40, 41) / RATE
    values = np.exp(-np.linspace(-3, 3, 101) ** 2)
    a = XcorrResult.from_values(lags_a, values)
    b = XcorrResult.from_values(lags_b, values[10:-10])
    with pytest.raises(InvalidParameterError):
        peak_delay(a, b)


def test_xcorr_fwhm_of_gaussian():
    lags = np.linspace(-1e-6, 1e-6, 2001)
    sigma = 70e-9
    xc = XcorrResult.from_values(lags, np.exp(-0.5 * (lags / sigma) ** 2))
    assert xc.fwhm == pytest.approx(2.3548 * sigma, rel=1e-3)


def test_xcorr_fwhm_is_measured_on_first_read():
    lags = np.arange(-50, 51) / RATE
    values = np.exp(-0.5 * ((np.arange(-50, 51) - 0.3) / 4.0) ** 2)
    xc = XcorrResult.from_values(lags, values)
    assert "fwhm" not in vars(xc)
    assert xc.peak_value == _parabola_peak(*values[49:52])[1]
    assert xc.fwhm == _fwhm(lags, values, xc.peak_value)
    assert vars(xc)["fwhm"] is xc.fwhm


def test_parabola_peak_vertex_and_flat_fallback():
    def y(x):
        return 2.0 - 3.0 * (x - 0.3) ** 2
    shift, value = _parabola_peak(y(-1.0), y(0.0), y(1.0))
    assert shift == pytest.approx(0.3, abs=1e-15)
    assert value == pytest.approx(2.0, abs=1e-15)
    # Straight or upward-bending points have no interior maximum.
    assert _parabola_peak(1.0, 2.0, 3.0) == (0.0, 2.0)
    assert _parabola_peak(1.0, 0.5, 1.0) == (0.0, 0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       k=st.integers(min_value=-200, max_value=200))
def test_correlation_bounded_property(seed, k):
    n = 1 << 14
    a = np.random.default_rng(seed).standard_normal(n)
    xc = spectral_correlation(np.fft.rfft(a), np.fft.rfft(np.roll(a, k)),
                              correlation_plan(n, RATE, (1e5, 3e6), 4e-7))
    assert np.max(np.abs(xc.values)) <= 1.0 + 1e-9
