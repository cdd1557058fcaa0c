import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.analysis import correlation_plan, spectral_correlation
from fastlight.dispersion import GainLine, calibrate
from fastlight.errors import InvalidParameterError
from fastlight.simulate import (ChannelResponse, SpectralTargets, apply_channel,
                                build_targets, channel_response, detect_spectrum,
                                synth_twin_spectra, synthesis_factors, white_spectrum)
from fastlight.twinbeam import TwinBeamSource, gain_for_squeezing, seeded_stats
from oracles import band_periodogram, channel_round_trip, hermitian_pair

RATE = 2.5e9
G1 = gain_for_squeezing(-2.5)
SOURCE = TwinBeamSource(gain1=G1, seed_flux=1e6)
STATS = seeded_stats(G1, 1e6)


def _targets(n):
    return build_targets(SOURCE, np.fft.rfftfreq(n, 1.0 / RATE))


def _factors(n):
    return synthesis_factors(_targets(n), n, RATE, STATS.mean_p, STATS.mean_c)


def _pair(n, seed):
    """One synthesized pair of records: the spectral draw, inverse transformed."""
    xp, xc = synth_twin_spectra(_factors(n), seed, n)
    return np.fft.irfft(xp, n), np.fft.irfft(xc, n)


def _white(n, seed, mean=1e6):
    """A coherent (white, 1 SNU) record of the given mean flux."""
    return np.random.default_rng(seed).standard_normal(n) * np.sqrt(mean)


def _snu(x, n, mean, band=None):
    """Noise of the rfft spectrum x of an n-sample record in SNU of the
    given mean flux: over ``band``, or over every bin but DC."""
    return band_periodogram(x, n, RATE, *(band or (0.5 * RATE / n, RATE / 2)), mean)


def _channel(line, offset, n, mean_flux, excess=0.0):
    return channel_response(line, offset, n, RATE, mean_flux, excess, bins=n // 2 + 1)


def test_trace_validation():
    """The synthesis refuses a record that is not a power of two long, a zero
    mean flux and a sample rate whose rfft grid is not the targets'."""
    t = _targets(1024)
    with pytest.raises(InvalidParameterError):
        synthesis_factors(t, 1000, RATE, STATS.mean_p, STATS.mean_c)
    with pytest.raises(InvalidParameterError):
        synthesis_factors(t, 1024, RATE, 0.0, STATS.mean_c)
    with pytest.raises(InvalidParameterError):
        synthesis_factors(t, 1024, -RATE, STATS.mean_p, STATS.mean_c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_samples(bad):
    """A record carrying a non-finite sample has no normalized correlation:
    the analysis refuses its spectrum instead of returning a NaN curve."""
    n = 1 << 10
    samples = _white(n, 0)
    samples[3] = bad
    plan = correlation_plan(n, RATE, None, 8 / RATE)
    with pytest.raises(InvalidParameterError, match="finite"):
        spectral_correlation(np.fft.rfft(samples), np.fft.rfft(_white(n, 1)), plan)


def test_build_targets_coherent_limit():
    f = np.fft.rfftfreq(1 << 12, 1.0 / RATE)
    t = build_targets(TwinBeamSource(gain1=1.0, seed_flux=1e6), f)
    np.testing.assert_allclose(t.s_pp, 1.0)
    np.testing.assert_allclose(t.s_cc, 1.0)
    np.testing.assert_allclose(t.s_pc, 0.0)
    # A coherent pair at the presets' gain has no correlation weight at all.
    t = build_targets(TwinBeamSource(gain1=G1, seed_flux=1e6, coherent=True), f)
    assert (t.s_pp == 1.0).all() and (t.s_cc == 1.0).all() and (t.s_pc == 0.0).all()


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
        synthesis_factors(_targets(1 << 12), 1 << 13, RATE, 1e6, 1e6)
    with pytest.raises(InvalidParameterError):
        synthesis_factors(_targets(1000), 1000, RATE, 1e6, 1e6)


def test_synth_traces_are_real_and_zero_mean():
    n = 1 << 16
    p, c = _pair(n, seed=42)
    for t in (p, c):
        # 5-sigma bound on the empirical mean of a zero-mean record.
        sigma_mean = np.std(t) / np.sqrt(n)
        assert abs(np.mean(t)) < 5 * sigma_mean
    # Realness oracle: rebuild through the full complex transform.
    spec = np.fft.fft(p)
    sym = spec - np.conj(spec[np.r_[0, np.arange(n - 1, 0, -1)]])
    assert np.max(np.abs(sym)) < 1e-9 * np.sqrt(np.mean(p ** 2)) * n


def test_synth_parseval():
    # The spectrum is a real record's: zero DC, a real Nyquist bin, and its
    # one-sided power is the record's variance.
    n = 1 << 20
    xp, _ = synth_twin_spectra(_factors(n), 7, n)
    p = np.fft.irfft(xp, n)
    power = np.abs(xp) ** 2
    one_sided = (power[0] + 2.0 * np.sum(power[1:-1]) + power[-1]) / n ** 2
    assert xp[0] == 0.0 and xp[-1].imag == 0.0
    assert one_sided == pytest.approx(np.var(p), rel=1e-9)


def test_synth_welch_converges_to_targets():
    """Periodograms averaged over the traces and the band's bins (Welch's
    method with one rectangular segment per trace) reach the targets."""
    n = 1 << 16
    got_pp = got_diff = 0.0
    n_traces = 60
    for j in range(n_traces):
        xp, xc = synth_twin_spectra(_factors(n), np.random.SeedSequence(5, spawn_key=(j,)), n)
        got_pp += _snu(xp, n, STATS.mean_p, (2e5, 3e6)) / n_traces
        got_diff += _snu(xp - xc, n, STATS.mean_p + STATS.mean_c, (2e5, 3e6)) / n_traces
    assert got_pp == pytest.approx(2 * G1 - 1, rel=0.03)
    assert 10 * np.log10(got_diff) == pytest.approx(-2.5, abs=0.15)


def test_synth_pair_correlation_peaks_at_zero_lag():
    n = 1 << 18
    xp, xc = synth_twin_spectra(_factors(n), 11, n)
    xcorr = spectral_correlation(xp, xc, correlation_plan(n, RATE, (1e5, 10e6), 2e-6))
    assert abs(xcorr.peak_lag) < 2.0 / RATE
    assert xcorr.values.max() > 0.5


def test_synth_determinism():
    p1, c1 = _pair(1 << 14, seed=99)
    p2, c2 = _pair(1 << 14, seed=99)
    assert np.array_equal(p1, p2)
    assert np.array_equal(c1, c2)
    p3, _ = _pair(1 << 14, seed=100)
    assert not np.array_equal(p1, p3)


def test_coherent_pair_difference_reads_one_snu():
    # Independent coherent beams: the difference reads the analytic shot
    # level of their total flux, n (mean_p + mean_c) in every bin.
    n = 1 << 18
    rng = np.random.default_rng(3)
    d = np.fft.rfft(_white(n, rng, STATS.mean_p) - _white(n, rng, STATS.mean_c))
    snu = _snu(d, n, STATS.mean_p + STATS.mean_c)
    assert 10 * np.log10(snu) == pytest.approx(0.0, abs=0.05)


def test_propagate_vacuum_is_bit_identical():
    n = 1 << 14
    x, _ = synth_twin_spectra(_factors(n), 1, n)
    kept = x.copy()
    vacuum = _channel(GainLine(g=0.0, gamma=1e7), 0.0, n, STATS.mean_p)
    assert vacuum.mean_out == STATS.mean_p
    assert apply_channel(x, vacuum, 5, n) is x
    assert np.array_equal(x, kept)


def test_propagate_flat_gain_matches_amplifier_snu():
    # Flat-limit contract: a very wide line at G = 1.25 on a coherent input
    # lands at 2G - 1 = 1.5 SNU (+1.76 dB).
    line = calibrate(10 * np.log10(1.25), 1e15, 0.025)
    n = 1 << 17
    channel = _channel(line, 0.0, n, 1e6)
    snu = 0.0
    n_traces = 50
    for j in range(n_traces):
        x = np.fft.rfft(_white(n, np.random.SeedSequence(21, spawn_key=(j,))))
        apply_channel(x, channel, np.random.SeedSequence(22, spawn_key=(j,)), n)
        snu += _snu(x, n, channel.mean_out) / n_traces
    assert channel.mean_out == pytest.approx(1.25e6 + 0.25, rel=1e-12)
    assert 10 * np.log10(snu) == pytest.approx(10 * np.log10(1.5), abs=0.1)


def test_propagate_added_noise_uncorrelated_with_input():
    # The added component must show no cross-spectrum with the input probe.
    line = calibrate(6.0, 1e15, 0.025)
    n = 1 << 16
    gain0 = 10 ** 0.6
    channel = _channel(line, 0.0, n, 1e6)
    cross = 0.0
    n_traces = 40
    for j in range(n_traces):
        t = _white(n, np.random.SeedSequence(31, spawn_key=(j,)))
        x = apply_channel(np.fft.rfft(t), channel,
                          np.random.SeedSequence(32, spawn_key=(j,)), n)
        added = np.fft.irfft(x, n) - gain0 * t
        cross += np.dot(added, t) / n
    cross /= n_traces
    # Null hypothesis scale: var(added)*var(input)/n per trace.
    sigma = np.sqrt((gain0 - 1.0) * gain0 * 1e6 * 1e6 / n / n_traces)
    assert abs(cross) < 3 * sigma


def test_detection_identity_and_loss_map():
    n = 1 << 16
    x, _ = synth_twin_spectra(_factors(n), 55, n)
    assert np.array_equal(detect_spectrum(x, 1.0, STATS.mean_p, 6, n), x)
    eta = 0.95
    n_traces = 40
    acc = 0.0
    for j in range(n_traces):
        x = np.fft.rfft(_white(n, np.random.SeedSequence(41, spawn_key=(j,))))
        detect_spectrum(x, eta, 1e6, np.random.SeedSequence(42, spawn_key=(j,)), n, out=x)
        acc += np.var(np.fft.irfft(x, n)) / (eta * 1e6)
    assert acc / n_traces == pytest.approx(1.0, abs=0.01)  # coherent stays 1 SNU


def test_detection_on_squeezed_difference():
    # 0.5625 SNU through eta = 0.95 -> 0.584 +/- 0.01 over 100 traces.
    n = 1 << 18
    factors = _factors(n)
    eta = 0.95
    acc = 0.0
    n_traces = 100
    for j in range(n_traces):
        xp, xc = synth_twin_spectra(factors, np.random.SeedSequence(51, spawn_key=(j,)), n)
        detect_spectrum(xp, eta, STATS.mean_p, np.random.SeedSequence(52, spawn_key=(j,)), n,
                        out=xp)
        detect_spectrum(xc, eta, STATS.mean_c, np.random.SeedSequence(53, spawn_key=(j,)), n,
                        out=xc)
        acc += _snu(xp - xc, n, eta * (STATS.mean_p + STATS.mean_c), (2.5e5, 3e6))
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


@pytest.mark.parametrize("variance", [-1.0, np.nan, np.inf, "negative bin", "nan bin",
                                      "short", "long"])
def test_white_spectrum_refuses_a_bad_variance(variance):
    """A negative or non-finite variance, or a per-bin variance that is not
    one value per drawn bin, is refused before any draw."""
    n, k = 1 << 10, 300
    per_bin = {"negative bin": np.r_[np.ones(k - 1), -1.0],
               "nan bin": np.r_[np.nan, np.ones(k - 1)],
               "short": np.ones(k - 1), "long": np.ones(k + 1)}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParameterError, match="variance"):
        white_spectrum(n, per_bin.get(variance, variance), rng,
                       add_to=np.zeros(k, dtype=complex))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("k", [300, (1 << 10) // 2 + 1])
def test_white_spectrum_of_a_constant_spectrum_is_the_scalar_draw(k):
    n = 1 << 10
    scalar = white_spectrum(n, 2.5, 3, add_to=np.zeros(k, dtype=complex))
    per_bin = white_spectrum(n, np.full(k, 2.5), 3, add_to=np.zeros(k, dtype=complex))
    assert np.array_equal(scalar, per_bin)


def test_channel_noise_is_the_white_spectrum_of_its_variance():
    """A unit transfer on a zero head leaves exactly the white spectrum of
    the response's per-bin noise variance, drawn at the same seed."""
    n, k = N_SPLIT, 300
    _, channel = _chain_constants(n)
    head = channel._replace(transfer=np.ones(k, dtype=complex),
                            noise_var=channel.noise_var[:k])
    got = apply_channel(np.zeros(k, dtype=complex), head, 9, n)
    want = white_spectrum(n, head.noise_var, 9, add_to=np.zeros(k, dtype=complex))
    assert np.array_equal(got, want)


def test_synthesis_refuses_factors_longer_than_the_grid():
    """Factors of n/2 + 2 bins do not fit the rfft grid; nothing is drawn."""
    n = 1 << 10
    factors = tuple(f[:n // 2 + 2] for f in _factors(2 * n))
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParameterError, match="synthesis factors of 514 bins"):
        synth_twin_spectra(factors, rng, n)
    assert rng.bit_generator.state == state


def test_spectral_kernel_identities_are_bit_exact():
    """eta = 1 and a vacuum line leave the head of a pair spectrum as it is."""
    n, k = 1 << 12, 300
    x, _ = synth_twin_spectra(tuple(f[:k] for f in _factors(n)), 3, n)
    kept = x.copy()
    assert np.array_equal(detect_spectrum(x, 1.0, 1e6, 4, n), kept)
    vacuum = channel_response(GainLine(g=0.0, gamma=1e7), 0.0, n, RATE, 1e6, bins=k)
    assert vacuum.mean_out == 1e6
    assert apply_channel(x, vacuum, 5, n) is x
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("n", [1001, 1000])
@pytest.mark.parametrize("kernel", ["white_spectrum", "synth_twin_spectra",
                                    "channel_response", "apply_channel"])
def test_kernels_refuse_a_length_that_is_not_a_power_of_two(kernel, n):
    """Only a power-of-two n has the real Nyquist bin n/2 the kernels draw."""
    line = calibrate(7.5, 10e6, 0.025)
    factors = tuple(f[:n // 2 + 1] for f in _factors(1 << 11))
    response = ChannelResponse(np.ones(n // 2 + 1, dtype=complex), np.ones(n // 2 + 1), 1e6)
    calls = {
        "white_spectrum": lambda: white_spectrum(n, 1.0, 0),
        "synth_twin_spectra": lambda: synth_twin_spectra(factors, 0, n),
        "channel_response": lambda: channel_response(line, 0.0, n, RATE, 1e6,
                                                     bins=n // 2 + 1),
        "apply_channel": lambda: apply_channel(np.zeros(n // 2 + 1, dtype=complex),
                                               response, 0, n),
    }
    with pytest.raises(InvalidParameterError, match="power of two"):
        calls[kernel]()


def test_synthesis_spectra_reproduce_out_of_place_draw():
    n = 1 << 12
    factors = synthesis_factors(_targets(n), n, RATE, STATS.mean_p, STATS.mean_c)
    got = synth_twin_spectra(factors, np.random.SeedSequence(71), n)
    want = hermitian_pair(*factors, np.random.SeedSequence(71))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("offset, excess_snu", [(0.0, 0.0), (6.5e6, 0.3), (-2e7, 0.0)])
def test_channel_reproduces_out_of_place_round_trip(offset, excess_snu):
    """The excess is a flux variance: excess_snu shot-noise units of the input beam."""
    line = calibrate(7.5, 10e6, 0.025)
    n = 1 << 12
    p, _ = _pair(n, seed=17)
    seed = np.random.SeedSequence(72)
    excess = excess_snu * STATS.mean_p
    channel = _channel(line, 2 * np.pi * offset, n, STATS.mean_p, excess)
    out = np.fft.irfft(apply_channel(np.fft.rfft(p), channel, seed, n), n)
    samples, mean_out = channel_round_trip(p, RATE, STATS.mean_p, line,
                                           2 * np.pi * offset, excess, seed)
    assert channel.mean_out == mean_out
    np.testing.assert_allclose(out, samples, rtol=0,
                               atol=1e-12 * np.abs(samples).max())


N_SPLIT = 1 << 12
DRAWS = 1500


def _chain_constants(n):
    return _factors(n), _channel(calibrate(7.5, 10e6, 0.025), 2 * np.pi * 6.5e6, n,
                                 STATS.mean_c, 0.3 * STATS.mean_c)


def _fast_pair(factors, channel, eta, n, seed, bins):
    """The detected fast pair from the spectral kernels on the first ``bins``
    bins of the grid: synthesis, the channel on the conjugate, detection."""
    synth, chan, det_p, det_c = np.random.SeedSequence(seed).spawn(4)
    p, c = synth_twin_spectra(tuple(f[:bins] for f in factors), synth, n)
    head = channel._replace(transfer=channel.transfer[:bins],
                            noise_var=channel.noise_var[:bins])
    apply_channel(c, head, chan, n)
    detect_spectrum(p, eta, STATS.mean_p, det_p, n, out=p)
    detect_spectrum(c, eta, channel.mean_out, det_c, n, out=c)
    return p, c


def _assert_z_spread(z):
    # Hundreds to thousands of bin parts: 3 SE each would fail some by chance
    # (about 11 of 4,096), so each is held to 5 SE and their mean to 3 SE.
    assert np.abs(z).max() < 5.0, np.abs(z).max()
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size), z.mean()


@pytest.mark.parametrize("k", [1, 300, N_SPLIT // 2, N_SPLIT // 2 + 1])
def test_head_constants_equal_the_whole_grid_sliced(k):
    """Synthesis factors and channel constants built on the first k rfft bins
    are the whole grid's first k, to the bit: below k = n/2 + 1 the last bin
    is interior (complex transfer), at k = n/2 + 1 it is the real Nyquist bin."""
    n = N_SPLIT
    whole_factors, whole = _chain_constants(n)
    head_targets = build_targets(SOURCE, np.fft.rfftfreq(n, 1.0 / RATE)[:k])
    factors = synthesis_factors(head_targets, n, RATE, STATS.mean_p, STATS.mean_c)
    for got, want in zip(factors, whole_factors):
        assert np.array_equal(got, want[:k])
    head = channel_response(calibrate(7.5, 10e6, 0.025), 2 * np.pi * 6.5e6, n, RATE,
                            STATS.mean_c, 0.3 * STATS.mean_c, bins=k)
    assert head.mean_out == whole.mean_out
    assert np.array_equal(head.transfer, whole.transfer[:k])
    assert np.array_equal(head.noise_var, whole.noise_var[:k])
    assert (head.transfer[-1].imag == 0.0) == (k in (1, n // 2 + 1))


def test_fast_pair_head_matches_the_whole_grid_draw():
    """The kernels on the first K bins draw the fast pair those bins of the
    whole grid carry: the first normal row is the same numbers, the last
    head bin is complex, and per bin |p|^2, |c|^2 and Re(p c*) agree."""
    n, eta, k = N_SPLIT, 0.9, 300
    nb = n // 2 + 1
    factors, channel = _chain_constants(n)
    whole, _ = synth_twin_spectra(factors, 85, n)
    p, c = synth_twin_spectra(tuple(f[:k].copy() for f in factors), 85, n)
    assert np.array_equal(p.real, whole.real[:k])
    assert p[-1].imag != 0.0 and c[-1].imag != 0.0
    head = channel._replace(transfer=channel.transfer[:k], noise_var=channel.noise_var[:k])
    assert apply_channel(np.zeros(k, dtype=complex), head, 86, n)[-1].imag != 0.0
    stats = []
    for bins in (k, nb):
        acc = np.zeros((2, 3, k))
        for r in range(DRAWS):
            p, c = _fast_pair(factors, channel, eta, n, (87, bins, r), bins)
            q = np.array([np.abs(p[:k]) ** 2, np.abs(c[:k]) ** 2, (p[:k] * c[:k].conj()).real])
            acc[0] += q
            acc[1] += q ** 2
        mean = acc[0] / DRAWS
        stats.append((mean, (acc[1] / DRAWS - mean ** 2) / DRAWS))
    (m_head, v_head), (m_whole, v_whole) = stats
    _assert_z_spread(((m_head - m_whole) / np.sqrt(v_head + v_whole)).ravel())
