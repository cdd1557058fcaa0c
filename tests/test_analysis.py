import numpy as np
import pytest
from scipy import signal as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.analysis import (NORM_DB, Spectrum, XcorrResult, _band_end,
                                _parabola_peak, band_filter, band_response,
                                band_squeezing_db,
                                correlation_plan, cross_correlation, cross_spectrum,
                                lag_curves, peak_delay, psd, shot_floor,
                                shot_noise_density, snu_normalize,
                                spectral_correlation)
from fastlight.errors import (DegeneratePeakError, IncompatibleSpectraError,
                              IncompatibleTracesError, InvalidParameterError)
from fastlight.simulate import Trace, fractional_shift
from oracles import circular_correlation

RATE = 2.5e9


def _white(n, seed, mean=1e6):
    return Trace(RATE, mean, np.random.default_rng(seed).standard_normal(n) * np.sqrt(mean))


def _banded(n, seed, lo=1e5, hi=3e6):
    return band_filter(_white(n, seed), lo, hi)


def test_psd_white_noise_integrates_to_variance():
    t = _white(1 << 18, seed=1)
    spec = psd(t, 1 << 14)
    assert np.trapezoid(spec.values, spec.frequencies) == pytest.approx(
        np.var(t.samples), rel=0.01)
    snu = np.mean(spec.values[1:]) / shot_noise_density(t.mean_flux, RATE)
    assert snu == pytest.approx(1.0, abs=0.02)


def test_psd_sine_concentrates_in_one_bin():
    n, seg = 1 << 16, 1 << 12
    f0 = 64 * RATE / seg  # bin center of the segment grid
    tt = np.arange(n) / RATE
    amp = 100.0
    t = Trace(RATE, 1e6, amp * np.sin(2 * np.pi * f0 * tt))
    spec = psd(t, seg)
    k = np.argmax(spec.values)
    assert spec.frequencies[k] == pytest.approx(f0, rel=1e-9)
    df = spec.frequencies[1] - spec.frequencies[0]
    power = np.sum(spec.values[k - 2:k + 3]) * df
    assert power == pytest.approx(amp ** 2 / 2, rel=0.01)


def test_psd_rejects_bad_segments():
    t = _white(1 << 12, seed=2)
    with pytest.raises(InvalidParameterError):
        psd(t, 1 << 13)
    with pytest.raises(InvalidParameterError):
        psd(t, 1000)


def test_snu_normalize_self_is_zero_db():
    t = _white(1 << 16, seed=3)
    spec = psd(t, 1 << 12)
    norm = snu_normalize(spec, spec)
    assert norm.normalization == NORM_DB
    np.testing.assert_allclose(norm.values, 0.0, atol=1e-12)


def test_snu_normalize_rejects_mismatched_grids():
    a = psd(_white(1 << 14, seed=4), 1 << 10)
    b = psd(_white(1 << 14, seed=5), 1 << 11)
    with pytest.raises(IncompatibleSpectraError):
        snu_normalize(a, b)


@pytest.mark.parametrize("overlap", [0.0, 0.5], ids=lambda overlap: f"{overlap}-hann")
def test_shot_floor_is_expected_welch_density_of_white_noise(overlap):
    """The mean psd of many white-noise draws of per-sample variance M equals
    the floor in every bin, DC and Nyquist included, within 3 standard errors."""
    variance, seg, draws = 1e6, 16, 400
    floor = shot_floor(variance, RATE, seg, overlap)
    assert np.all(floor.values[1:-1] == shot_noise_density(variance, RATE))
    assert floor.values[0] == floor.values[-1] == 0.5 * shot_noise_density(variance, RATE)
    rng = np.random.default_rng(7)
    values = np.array([
        psd(Trace(RATE, variance, rng.standard_normal(1 << 12) * np.sqrt(variance)),
            seg, overlap).values
        for _ in range(draws)])
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean - floor.values) <= 3.0 * se), (mean - floor.values) / se


def test_shot_floor_carries_psd_settings():
    t = _white(1 << 14, seed=6)
    spec = psd(t, 1 << 10, 0.0)
    floor = shot_floor(t.mean_flux, RATE, 1 << 10, 0.0)
    np.testing.assert_array_equal(floor.frequencies, spec.frequencies)
    assert snu_normalize(spec, floor).values.shape == spec.values.shape
    with pytest.raises(IncompatibleSpectraError):
        snu_normalize(spec, shot_floor(t.mean_flux, RATE, 1 << 10))
    with pytest.raises(InvalidParameterError):
        shot_floor(t.mean_flux, RATE, 1000)


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


def test_band_filter_all_pass_on_in_band_content():
    # A trace whose content lies inside the flat region passes unchanged.
    t = _white(1 << 16, seed=8)
    inner = band_filter(t, 2e5, 2e6)
    wide = band_filter(inner, 4e4, 0.4 * RATE)
    rms = np.sqrt(np.mean(inner.samples ** 2))
    assert np.max(np.abs(wide.samples - inner.samples)) < 1e-9 * rms


def test_band_filter_attenuates_far_sine():
    n = 1 << 16
    tt = np.arange(n) / RATE
    t = Trace(RATE, 1e6, 100.0 * np.sin(2 * np.pi * 30e6 * tt))
    out = band_filter(t, 1e5, 3e6)
    attenuation_db = 10 * np.log10(np.mean(out.samples ** 2) / np.mean(t.samples ** 2))
    assert attenuation_db < -40.0


def test_band_filter_rejects_bad_bands():
    t = _white(1 << 12, seed=9)
    with pytest.raises(InvalidParameterError):
        band_filter(t, 3e6, 1e5)
    with pytest.raises(InvalidParameterError):
        band_filter(t, 1e5, RATE)


def test_cross_correlation_self_peaks_at_zero():
    t = _banded(1 << 16, seed=10)
    xc = cross_correlation(t, t, 1e-6)
    assert xc.peak_lag == pytest.approx(0.0, abs=1e-12)
    assert xc.values.max() == pytest.approx(1.0, rel=1e-9)
    assert np.max(np.abs(xc.values)) <= 1.0 + 1e-9


def test_cross_correlation_shift_theorem_sign():
    t = _banded(1 << 16, seed=11)
    k = 25
    delayed = Trace(RATE, t.mean_flux, np.roll(t.samples, k))
    xc = cross_correlation(t, delayed, 1e-6)
    assert xc.peak_lag == pytest.approx(k / RATE, abs=0.05 / RATE)


def test_cross_correlation_rejects_mismatch():
    a = _banded(1 << 14, seed=12)
    b = _banded(1 << 15, seed=13)
    with pytest.raises(IncompatibleTracesError):
        cross_correlation(a, b, 1e-6)
    with pytest.raises(InvalidParameterError):
        cross_correlation(a, a, 1e-3)  # max_lag too long for the trace


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
    ta, tb = Trace(RATE, 1.0, a), Trace(RATE, 1.0, b)
    fa, fb = band_filter(ta, f_lo, f_hi), band_filter(tb, f_lo, f_hi)
    lags = np.arange(-n_lag, n_lag + 1) / RATE
    banded = XcorrResult.from_values(lags, circular_correlation(fa.samples, fb.samples, n_lag))
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
            (spectral_correlation(xa, xb, all_pass), raw),
            (cross_correlation(fa, fb, max_lag), banded),
            (cross_correlation(ta, tb, max_lag), raw)):
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


def test_spectral_correlation_rejects_bad_inputs():
    n = 1 << 12
    x = np.fft.rfft(_white(n, seed=18).samples)
    plan = correlation_plan(n, RATE, (1e6, 2e8), 1e-7)
    with pytest.raises(IncompatibleTracesError):
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
        scenario._measure_correlation_point(cfg, 5e6, scenario._point_seed(1, 0), True)
        with monkeypatch.context() as patch:
            for name in ("rfft", "irfft", "fft", "ifft"):
                patch.setattr(np.fft, name, counted(getattr(np.fft, name)))
            for want_fullband, bands in ((True, 2), (False, 1)):
                calls.clear()
                scenario._measure_correlation_point(cfg, 5e6, scenario._point_seed(1, 0),
                                                    want_fullband)
                assert sorted(calls) == sorted((name, size) for size in sizes[:bands]
                                               for name in ("fft", "ifft"))
            calls.clear()
            scenario._measure_noise_point(cfg, 5e6, scenario._point_seed(1, 0))
            assert calls == []


def test_trace_normal_draws_per_role(monkeypatch):
    """Roles 0-5 draw on the head of the rfft grid only, its first k bins (4 k
    normals for the synthesis, 2 k for each other role): 14 k per trace.  k
    is the largest band support, or one past the noise band's last bin when
    nothing is correlated; there is no further role."""
    from fastlight import scenario
    from fastlight.analysis import _band_bins
    from fastlight.config import config_from_dict, preset_fig2_line

    traces, n = 2, 1 << 16
    cfg = config_from_dict({**preset_fig2_line().to_dict(), "scenario": "delay-scan",
                            "sampling": {"rate_hz": RATE, "samples": n, "traces": traces}})
    drawn = {}
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.role = seed.spawn_key[-1]
            self.rng = default_rng(seed)

        def standard_normal(self, size=None, out=None):
            z = self.rng.standard_normal(size, out=out)
            drawn[self.role] = drawn.get(self.role, 0) + z.size
            return z

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: seed if isinstance(seed, Counted) else Counted(seed))

    def per_trace(k):
        return {0: traces * 4 * k, **{r: traces * 2 * k for r in range(1, 6)}}

    for want_fullband in (True, False):
        bands = (cfg.band_hz, cfg.fullband_hz) if want_fullband else (cfg.band_hz,)
        k = max(correlation_plan(n, RATE, band, cfg.max_lag_s).support for band in bands)
        drawn.clear()
        scenario._measure_correlation_point(cfg, 5e6, scenario._point_seed(1, 0),
                                            want_fullband)
        assert drawn == per_trace(k)
        assert sum(drawn.values()) == traces * 14 * k
    k = _band_bins(n, RATE, *cfg.noise_band_hz).stop
    assert 0 < k < 100
    drawn.clear()
    scenario._measure_noise_point(cfg, 5e6, scenario._point_seed(1, 0))
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
    t = _banded(1 << 18, seed=14)
    ref = cross_correlation(t, t, 2e-6)
    for delay in (12e-9, -12e-9, 0.5 / RATE):
        shifted = fractional_shift(t, delay)
        fast = cross_correlation(t, shifted, 2e-6)
        got = peak_delay(fast, ref)
        assert got == pytest.approx(delay, abs=0.1 / RATE)


def test_peak_delay_subsample_accuracy():
    t = _banded(1 << 18, seed=15)
    ref = cross_correlation(t, t, 2e-6)
    for frac in (0.3, 0.5, 0.7):
        shifted = fractional_shift(t, frac / RATE)
        got = peak_delay(cross_correlation(t, shifted, 2e-6), ref)
        assert abs(got - frac / RATE) < 0.1 / RATE


def test_peak_delay_antisymmetry():
    a = _banded(1 << 17, seed=16)
    b = fractional_shift(a, 7.3e-9)
    fwd = peak_delay(cross_correlation(a, b, 2e-6), cross_correlation(a, a, 2e-6))
    rev = peak_delay(cross_correlation(b, a, 2e-6), cross_correlation(a, a, 2e-6))
    assert fwd == pytest.approx(-rev, abs=0.1 / RATE)


def test_peak_delay_band_filter_invariance():
    # Filtering both traces identically moves an in-band pure shift < 0.2 ns.
    t = _white(1 << 18, seed=17)
    shifted = fractional_shift(t, 12e-9)
    raw = peak_delay(
        cross_correlation(band_filter(t, 1e5, 20e6), band_filter(shifted, 1e5, 20e6), 2e-6),
        cross_correlation(band_filter(t, 1e5, 20e6), band_filter(t, 1e5, 20e6), 2e-6))
    banded = peak_delay(
        cross_correlation(band_filter(t, 1e5, 3e6), band_filter(shifted, 1e5, 3e6), 2e-6),
        cross_correlation(band_filter(t, 1e5, 3e6), band_filter(t, 1e5, 3e6), 2e-6))
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


def test_parabola_peak_vertex_and_flat_fallback():
    def y(x):
        return 2.0 - 3.0 * (x - 0.3) ** 2
    shift, value = _parabola_peak(y(-1.0), y(0.0), y(1.0))
    assert shift == pytest.approx(0.3, abs=1e-15)
    assert value == pytest.approx(2.0, abs=1e-15)
    # Straight or upward-bending points have no interior maximum.
    assert _parabola_peak(1.0, 2.0, 3.0) == (0.0, 2.0)
    assert _parabola_peak(1.0, 0.5, 1.0) == (0.0, 0.5)


def test_band_squeezing_db_flat_inputs():
    f = np.linspace(1e4, 1e7, 512)
    flat0 = Spectrum(f, np.zeros_like(f), NORM_DB)
    assert band_squeezing_db(flat0, 1e5, 3e6) == 0.0
    flat = Spectrum(f, np.full_like(f, -2.5), NORM_DB)
    assert band_squeezing_db(flat, 1e5, 3e6) == pytest.approx(-2.5, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        band_squeezing_db(flat, 2e7, 3e7)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       k=st.integers(min_value=-200, max_value=200))
def test_correlation_bounded_property(seed, k):
    t = _banded(1 << 14, seed=seed)
    other = Trace(RATE, t.mean_flux, np.roll(t.samples, k))
    xc = cross_correlation(t, other, 4e-7)
    assert np.max(np.abs(xc.values)) <= 1.0 + 1e-9


def _scipy_welch(t, segment_len, overlap):
    return sps.welch(t.samples, fs=t.sample_rate, window="hann", nperseg=segment_len,
                     noverlap=int(overlap * segment_len), detrend=False,
                     return_onesided=True, scaling="density")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), log_n=st.integers(min_value=10, max_value=16),
       overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_psd_matches_scipy_welch(data, log_n, overlap, seed):
    segment_len = 1 << data.draw(st.integers(min_value=1, max_value=log_n))
    samples = np.random.default_rng(seed).standard_normal(1 << log_n) * 30.0
    t = Trace(RATE, 1e6, samples)
    spec = psd(t, segment_len, overlap)
    freqs, values = _scipy_welch(t, segment_len, overlap)
    np.testing.assert_allclose(spec.frequencies, freqs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(spec.values, values, rtol=1e-12, atol=0)
