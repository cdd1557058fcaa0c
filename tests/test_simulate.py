import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.analysis import psd, shot_noise_density
from fastlight.dispersion import GainLine, calibrate
from fastlight.errors import IncompatibleTracesError, InvalidParameterError
from fastlight.simulate import (SpectralTargets, Trace, apply_channel,
                                apply_detection, build_targets,
                                channel_response, detect_spectrum, difference,
                                fractional_shift, load_trace_binary,
                                load_trace_csv, propagate_channel,
                                save_trace_binary, save_trace_csv,
                                shot_reference, synth_twin_spectra,
                                synth_twin_traces, synthesis_factors,
                                white_spectrum)
from fastlight.twinbeam import TwinBeamSource, gain_for_squeezing, seeded_stats
from oracles import channel_round_trip, hermitian_pair

RATE = 2.5e9
G1 = gain_for_squeezing(-2.5)
SOURCE = TwinBeamSource(gain1=G1, seed_flux=1e6)
STATS = seeded_stats(G1, 1e6)


def _targets(n):
    return build_targets(SOURCE, np.fft.rfftfreq(n, 1.0 / RATE))


def _pair(n, seed):
    return synth_twin_traces(_targets(n), n, RATE, STATS.mean_p, STATS.mean_c, seed)


def test_trace_validation():
    with pytest.raises(InvalidParameterError):
        Trace(RATE, 1e6, np.zeros(1000))  # not a power of two
    with pytest.raises(InvalidParameterError):
        Trace(RATE, 0.0, np.zeros(1024))
    with pytest.raises(InvalidParameterError):
        Trace(-1.0, 1e6, np.zeros(1024))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_samples(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        Trace(1e9, 1.0, [bad, 1.0, 2.0, 3.0])


def test_trace_samples_are_locked():
    t, _ = shot_reference(1e6, 1e6, 1 << 12, RATE, 0)
    with pytest.raises(ValueError):
        t.samples[0] = 1.0


def test_build_targets_coherent_limit():
    src = TwinBeamSource(gain1=1.0, seed_flux=1e6)
    t = build_targets(src, np.fft.rfftfreq(1 << 12, 1.0 / RATE))
    np.testing.assert_allclose(t.s_pp, 1.0)
    np.testing.assert_allclose(t.s_cc, 1.0)
    np.testing.assert_allclose(t.s_pc, 0.0)


def test_build_targets_in_band_difference():
    t = _targets(1 << 12)
    low = t.frequencies < 1e6
    diff = t.s_pp[low] + t.s_cc[low] - 2 * t.s_pc[low]
    # Equal-shot combination: in band the difference PSD hits 1/(2G1-1).
    mean_total = STATS.mean_p + STATS.mean_c
    weighted = (STATS.mean_p * t.s_pp[low] + STATS.mean_c * t.s_cc[low]
                - 2 * np.sqrt(STATS.mean_p * STATS.mean_c) * t.s_pc[low]) / mean_total
    np.testing.assert_allclose(weighted, 10 ** -0.25, rtol=1e-4)
    assert np.all(diff > 0)


@settings(max_examples=50, deadline=None)
@given(g1=st.floats(min_value=1.0, max_value=50.0),
       bw=st.floats(min_value=1e6, max_value=5e7),
       order=st.floats(min_value=0.5, max_value=4.0))
def test_build_targets_positive_semidefinite(g1, bw, order):
    src = TwinBeamSource(gain1=g1, seed_flux=1e6, pair_bandwidth=bw, rolloff=order)
    t = build_targets(src, np.linspace(0, RATE / 2, 257))
    assert np.all(t.s_pc ** 2 <= t.s_pp * t.s_cc * (1 + 1e-12))


def test_targets_validation():
    f = np.linspace(0, 1e9, 64)
    with pytest.raises(InvalidParameterError):
        SpectralTargets(f, np.ones(64), np.ones(64), 1.5 * np.ones(64))
    with pytest.raises(InvalidParameterError):
        SpectralTargets(f, -np.ones(64), np.ones(64), np.zeros(64))


def test_synth_rejects_mismatched_grid():
    with pytest.raises(InvalidParameterError):
        synth_twin_traces(_targets(1 << 12), 1 << 13, RATE, 1e6, 1e6, 0)
    with pytest.raises(InvalidParameterError):
        synth_twin_traces(_targets(1000), 1000, RATE, 1e6, 1e6, 0)


def test_synth_traces_are_real_and_zero_mean():
    n = 1 << 16
    p, c = _pair(n, seed=42)
    for t in (p, c):
        # 5-sigma bound on the empirical mean of a zero-mean record.
        sigma_mean = np.std(t.samples) / np.sqrt(n)
        assert abs(np.mean(t.samples)) < 5 * sigma_mean
    # Realness oracle: rebuild through the full complex transform.
    spec = np.fft.fft(p.samples)
    sym = spec - np.conj(spec[np.r_[0, np.arange(n - 1, 0, -1)]])
    assert np.max(np.abs(sym)) < 1e-9 * np.sqrt(np.mean(p.samples ** 2)) * n


def test_synth_parseval():
    n = 1 << 20
    p, _ = _pair(n, seed=7)
    spec = psd(p, 1 << 16)
    integral = np.trapezoid(spec.values, spec.frequencies)
    assert integral == pytest.approx(np.var(p.samples), rel=0.01)


def test_synth_welch_converges_to_targets():
    n = 1 << 16
    tgt = _targets(n)
    acc_p = acc_d = None
    n_traces = 60
    for j in range(n_traces):
        p, c = synth_twin_traces(tgt, n, RATE, STATS.mean_p, STATS.mean_c,
                                 np.random.SeedSequence(5, spawn_key=(j,)))
        sp = psd(p, 1 << 13)
        sd = psd(difference(p, c), 1 << 13)
        acc_p = sp.values if acc_p is None else acc_p + sp.values
        acc_d = sd.values if acc_d is None else acc_d + sd.values
    freqs = sp.frequencies
    in_band = (freqs > 2e5) & (freqs < 3e6)
    got_pp = np.mean(acc_p[in_band]) / n_traces / shot_noise_density(STATS.mean_p, RATE)
    assert got_pp == pytest.approx(2 * G1 - 1, rel=0.03)
    got_diff = (np.mean(acc_d[in_band]) / n_traces
                / shot_noise_density(STATS.mean_p + STATS.mean_c, RATE))
    assert 10 * np.log10(got_diff) == pytest.approx(-2.5, abs=0.15)


def test_synth_pair_correlation_peaks_at_zero_lag():
    from fastlight.analysis import band_filter, cross_correlation
    n = 1 << 18
    p, c = _pair(n, seed=11)
    xc = cross_correlation(band_filter(p, 1e5, 10e6), band_filter(c, 1e5, 10e6), 2e-6)
    assert abs(xc.peak_lag) < 2.0 / RATE
    assert xc.values.max() > 0.5


def test_synth_determinism():
    p1, c1 = _pair(1 << 14, seed=99)
    p2, c2 = _pair(1 << 14, seed=99)
    assert np.array_equal(p1.samples, p2.samples)
    assert np.array_equal(c1.samples, c2.samples)
    p3, _ = _pair(1 << 14, seed=100)
    assert not np.array_equal(p1.samples, p3.samples)


def test_shot_reference_properties():
    n = 1 << 18
    t1, t2 = shot_reference(STATS.mean_p, STATS.mean_c, n, RATE, seed=3)
    assert t1.mean_flux + t2.mean_flux == STATS.mean_p + STATS.mean_c
    d = difference(t1, t2)
    spec = psd(d, 1 << 14)
    snu = np.mean(spec.values[1:]) / shot_noise_density(d.mean_flux, RATE)
    assert 10 * np.log10(snu) == pytest.approx(0.0, abs=0.05)


def test_propagate_vacuum_is_bit_identical():
    p, _ = _pair(1 << 14, seed=1)
    line = GainLine(g=0.0, gamma=1e7)
    out = propagate_channel(p, line, 0.0, 0.0, seed=5)
    assert np.array_equal(out.samples, p.samples)
    assert out.mean_flux == p.mean_flux


def test_propagate_flat_gain_matches_amplifier_snu():
    # Flat-limit contract: a very wide line at G = 1.25 on a coherent input
    # lands at 2G - 1 = 1.5 SNU (+1.76 dB).
    line = calibrate(10 * np.log10(1.25), 1e15, 0.025)
    n = 1 << 17
    acc = None
    n_traces = 50
    for j in range(n_traces):
        t, _ = shot_reference(1e6, 1e6, n, RATE, np.random.SeedSequence(21, spawn_key=(j,)))
        out = propagate_channel(t, line, 0.0, 0.0, np.random.SeedSequence(22, spawn_key=(j,)))
        spec = psd(out, 1 << 14)
        acc = spec.values if acc is None else acc + spec.values
    assert out.mean_flux == pytest.approx(1.25e6 + 0.25, rel=1e-12)
    snu = np.mean(acc[1:]) / n_traces / shot_noise_density(out.mean_flux, RATE)
    assert 10 * np.log10(snu) == pytest.approx(10 * np.log10(1.5), abs=0.1)


def test_propagate_added_noise_uncorrelated_with_input():
    # The added component must show no cross-spectrum with the input probe.
    line = calibrate(6.0, 1e15, 0.025)
    n = 1 << 16
    gain0 = 10 ** 0.6
    cross = 0.0
    n_traces = 40
    for j in range(n_traces):
        t, _ = shot_reference(1e6, 1e6, n, RATE, np.random.SeedSequence(31, spawn_key=(j,)))
        out = propagate_channel(t, line, 0.0, 0.0, np.random.SeedSequence(32, spawn_key=(j,)))
        added = out.samples - gain0 * t.samples
        cross += np.dot(added, t.samples) / n
    cross /= n_traces
    # Null hypothesis scale: var(added)*var(input)/n per trace.
    sigma = np.sqrt((gain0 - 1.0) * gain0 * 1e6 * 1e6 / n / n_traces)
    assert abs(cross) < 3 * sigma


def test_detection_identity_and_loss_map():
    p, _ = _pair(1 << 16, seed=55)
    out = apply_detection(p, 1.0, seed=6)
    assert np.array_equal(out.samples, p.samples)
    eta = 0.95
    n_traces = 40
    acc = 0.0
    for j in range(n_traces):
        t, _ = shot_reference(1e6, 1e6, 1 << 16, RATE, np.random.SeedSequence(41, spawn_key=(j,)))
        out = apply_detection(t, eta, np.random.SeedSequence(42, spawn_key=(j,)))
        acc += np.var(out.samples) / out.mean_flux
    assert acc / n_traces == pytest.approx(1.0, abs=0.01)  # coherent stays 1 SNU


def test_detection_on_squeezed_difference():
    # 0.5625 SNU through eta = 0.95 -> 0.584 +/- 0.01 over 100 traces.
    n = 1 << 18
    tgt = _targets(n)
    eta = 0.95
    acc = 0.0
    n_traces = 100
    for j in range(n_traces):
        p, c = synth_twin_traces(tgt, n, RATE, STATS.mean_p, STATS.mean_c,
                                 np.random.SeedSequence(51, spawn_key=(j,)))
        pd_ = apply_detection(p, eta, np.random.SeedSequence(52, spawn_key=(j,)))
        cd = apply_detection(c, eta, np.random.SeedSequence(53, spawn_key=(j,)))
        d = difference(pd_, cd)
        spec = psd(d, 1 << 15)
        in_band = (spec.frequencies > 2.5e5) & (spec.frequencies < 3e6)
        acc += np.mean(spec.values[in_band]) / shot_noise_density(d.mean_flux, RATE)
    assert acc / n_traces == pytest.approx(0.584, abs=0.01)


def test_white_spectrum_edges_are_real():
    x = white_spectrum(1 << 12, 3.0, 7)
    assert x.shape == ((1 << 11) + 1,)
    assert x[0].imag == 0.0 and x[-1].imag == 0.0
    assert x[0].real != 0.0 and x[-1].real != 0.0


def test_white_spectrum_matches_rfft_of_white_samples():
    # rfft of n iid N(0, v) samples: interior |X_k|^2 / (n v) ~ Exp(1), with
    # real and imaginary parts of equal variance n v / 2.
    n, v = 1 << 16, 2.5
    x = white_spectrum(n, v, np.random.SeedSequence(61))[1:-1]
    power = np.abs(x) ** 2 / (n * v)
    assert abs(np.mean(power) - 1.0) < 3 * np.std(power) / np.sqrt(power.size)
    re2 = x.real ** 2 / (n * v)
    im2 = x.imag ** 2 / (n * v)
    se = np.sqrt((np.var(re2) + np.var(im2)) / x.size)
    assert abs(np.mean(re2) - np.mean(im2)) < 3 * se


def test_white_spectrum_on_leading_bins():
    # K < n/2 + 1 bins: real DC, no Nyquist bin, the real parts are the first
    # K of the whole grid's draw, and interior parts keep variance n v / 2.
    n, v, k = 1 << 16, 2.5, 3001
    full = white_spectrum(n, v, np.random.SeedSequence(62))
    x = np.zeros(k, dtype=complex)
    assert white_spectrum(n, v, np.random.SeedSequence(62), add_to=x) is x
    assert x[0].imag == 0.0 and x[0].real != 0.0 and x[-1].imag != 0.0
    assert np.array_equal(x.real, full.real[:k])
    for part in (x.real[1:], x.imag[1:]):
        z2 = part ** 2 / (0.5 * n * v)
        assert abs(np.mean(z2) - 1.0) < 3 * np.std(z2) / np.sqrt(z2.size)
    with pytest.raises(InvalidParameterError):
        white_spectrum(n, v, 1, add_to=np.zeros(n // 2 + 2, dtype=complex))


def test_white_spectrum_adds_in_place():
    base = white_spectrum(1 << 10, 1.0, 1)
    total = base.copy()
    assert white_spectrum(1 << 10, 2.0, 2, add_to=total) is total
    np.testing.assert_allclose(total - base, white_spectrum(1 << 10, 2.0, 2), atol=1e-12)


def test_spectral_kernel_identities_are_bit_exact():
    x = np.fft.rfft(_pair(1 << 12, seed=3)[0].samples)
    kept = x.copy()
    assert np.array_equal(detect_spectrum(x, 1.0, 1e6, 4), kept)
    vacuum = channel_response(GainLine(g=0.0, gamma=1e7), 0.0, 1 << 12, RATE, 1e6)
    assert vacuum.transfer is None and vacuum.mean_out == 1e6
    assert apply_channel(x, vacuum, 5) is x
    assert np.array_equal(x, kept)


def test_synthesis_spectra_reproduce_out_of_place_draw():
    n = 1 << 12
    factors = synthesis_factors(_targets(n), n, RATE, STATS.mean_p, STATS.mean_c)
    got = synth_twin_spectra(factors, np.random.SeedSequence(71))
    want = hermitian_pair(*factors, np.random.SeedSequence(71))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("offset, excess_db", [(0.0, 0.0), (6.5e6, 0.3), (-2e7, 0.0)])
def test_channel_reproduces_out_of_place_round_trip(offset, excess_db):
    line = calibrate(7.5, 10e6, 0.025)
    p, _ = _pair(1 << 12, seed=17)
    seed = np.random.SeedSequence(72)
    out = propagate_channel(p, line, 2 * np.pi * offset, excess_db, seed)
    samples, mean_out = channel_round_trip(p.samples, RATE, p.mean_flux, line,
                                           2 * np.pi * offset, excess_db, seed)
    assert out.mean_flux == mean_out
    np.testing.assert_allclose(out.samples, samples, rtol=0,
                               atol=1e-12 * np.abs(samples).max())


def test_fractional_shift_matches_roll():
    p, _ = _pair(1 << 14, seed=8)
    k = 30
    shifted = fractional_shift(p, k / RATE)
    np.testing.assert_allclose(shifted.samples, np.roll(p.samples, k), atol=1e-9)


def test_difference_requires_compatible_traces():
    p, _ = _pair(1 << 12, seed=9)
    q, _ = _pair(1 << 13, seed=9)
    with pytest.raises(IncompatibleTracesError):
        difference(p, q)


def test_csv_round_trip(tmp_path):
    p, _ = _pair(1 << 10, seed=12)
    path = tmp_path / "trace.csv"
    save_trace_csv(p, path)
    back = load_trace_csv(path)
    assert back.sample_rate == p.sample_rate
    assert back.mean_flux == p.mean_flux
    np.testing.assert_array_equal(back.samples, p.samples)


def test_binary_round_trip(tmp_path):
    p, _ = _pair(1 << 10, seed=13)
    path = tmp_path / "trace.bin"
    save_trace_binary(p, path)
    back = load_trace_binary(path)
    assert back.sample_rate == p.sample_rate
    assert back.mean_flux == p.mean_flux
    np.testing.assert_array_equal(back.samples, p.samples)


def test_binary_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(InvalidParameterError):
        load_trace_binary(path)


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"FLTRACE\x00" + b"\x00" * 10)
    with pytest.raises(InvalidParameterError, match="truncated trace file"):
        load_trace_binary(path)
