"""Independent oracles used to cross-check closed forms and fast kernels.

The Monte-Carlo oracles sample the underlying Gaussian field model directly
(complex field amplitudes with half-photon vacuum quadrature noise) rather
than reusing any formula from the package, so they provide an independent
route to the photon-number statistics.  ``dense_correlation_shift`` is the
predicted correlation shift as a trapezoid integral over frequency at every
lag, and ``circular_correlation`` the direct time-domain sum behind the FFT
correlation kernels.  ``hermitian_pair`` and ``channel_round_trip`` are the
straightforward out-of-place forms of the synthesis and channel draws, which
the in-place spectral kernels must reproduce from the same seed.
``solve_advance_line`` is the solve behind the ``fig4-advance`` preset's
compiled-in line strength and anchor offset.  ``band_periodogram`` reads a
spectrum's band noise in shot-noise units as the scenarios do.
``allocating_lag_curves`` and ``format_rows_csv`` are the allocating forms
of the chirp-z lag curves and the CSV writer, which the kernels that reuse
their buffers must reproduce byte for byte.
"""

import math

import numpy as np


def _vacuum(rng, n):
    # Circular complex Gaussian with E|z|^2 = 1/2 (symmetric-ordered vacuum).
    return 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def photon_number(field):
    # Symmetric-ordering correction: <|a|^2> = n + 1/2.
    return np.abs(field) ** 2 - 0.5


def mc_amplifier(gain, n_in, n_samples, seed):
    """Sample the output photon number of a phase-insensitive amplifier fed
    with a coherent state of mean photon number n_in."""
    rng = np.random.default_rng(seed)
    a_in = np.sqrt(n_in) + _vacuum(rng, n_samples)
    idler = _vacuum(rng, n_samples)
    a_out = np.sqrt(gain) * a_in + np.sqrt(gain - 1.0) * np.conj(idler)
    return photon_number(a_out)


def mc_twin_pair(gain1, seed_flux, n_samples, seed):
    """Sample photon numbers of a seeded two-mode amplifier pair."""
    rng = np.random.default_rng(seed)
    seed_field = np.sqrt(seed_flux) + _vacuum(rng, n_samples)
    idler = _vacuum(rng, n_samples)
    a_p = np.sqrt(gain1) * seed_field + np.sqrt(gain1 - 1.0) * np.conj(idler)
    a_c = np.sqrt(gain1 - 1.0) * np.conj(seed_field) + np.sqrt(gain1) * idler
    return a_p, a_c


def mc_difference_noise(gain1, gain2, eta, seed_flux, n_samples, seed):
    """Empirical difference noise in shot units of the detected total power,
    for the twin pair with the conjugate arm amplified and both arms lossy."""
    pair_seed, local_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(local_seed)
    a_p, a_c = mc_twin_pair(gain1, seed_flux, n_samples, pair_seed)
    if gain2 > 1.0:
        a_c = np.sqrt(gain2) * a_c + np.sqrt(gain2 - 1.0) * np.conj(_vacuum(rng, n_samples))
    if eta < 1.0:
        a_p = np.sqrt(eta) * a_p + np.sqrt(1.0 - eta) * _vacuum(rng, n_samples)
        a_c = np.sqrt(eta) * a_c + np.sqrt(1.0 - eta) * _vacuum(rng, n_samples)
    n_p = photon_number(a_p)
    n_c = photon_number(a_c)
    d = n_p - n_c
    return np.var(d) / (np.mean(n_p) + np.mean(n_c))


def band_periodogram(x, n_samples, sample_rate, f_lo, f_hi, mean):
    """Band noise, in shot-noise units, of the rfft spectrum x of an
    n_samples record (or of its first bins): the mean of |X_k|^2 over the
    band's bins (``analysis._band_bins``), over the shot level n * mean of
    white noise with per-sample variance ``mean``."""
    from fastlight.analysis import _band_bins

    bins = _band_bins(n_samples, sample_rate, f_lo, f_hi)
    band = np.asarray(x)[bins.start:bins.stop]
    return float(np.mean(band.real ** 2 + band.imag ** 2)) / (n_samples * mean)


def var_standard_error(sample_var, n_samples):
    """Standard error of a variance estimate for near-Gaussian data."""
    return sample_var * np.sqrt(2.0 / n_samples)


# Points of the dense oracle's frequency grid, from 0 to past the band's
# upper ramp: the grid the fig4-advance constants were solved on.
_DENSE_N_F = 1600
# The last dense grid's key, lags, frequencies and cos/sin phase matrices
# (77 MB at the default size); a new grid replaces it.
_GRID = {}


def _dense_grid(t_window: float, n_t: int, f_top: float, n_f: int):
    key = (t_window, n_t, f_top, n_f)
    if key not in _GRID:
        _GRID.clear()
        t = np.linspace(-t_window, t_window, n_t)
        f = np.linspace(0.0, f_top, n_f)
        phase = 2.0 * np.pi * np.outer(t, f)
        _GRID[key] = t, f, np.cos(phase), np.sin(phase)
        for array in _GRID[key]:
            array.setflags(write=False)
    return _GRID[key]


def dense_correlation_shift(line, offset_hz, source, f_lo, f_hi, t_window=1.5e-7, n_t=3001):
    """Reference for ``predicted_correlation_shift``: the noise-free
    correlation of the band-filtered pair as a trapezoid integral of
    H^2 s_pc M(f) exp(2 pi i t f) over frequency, evaluated on every one of
    the n_t lags of +-t_window, then the parabolic-refined argmax.  The
    phase matrices of the last (lag, frequency) grid are reused, so
    consecutive calls on one grid evaluate cos and sin once."""
    from fastlight.analysis import _band_end, band_response
    from fastlight.dispersion import modulation_transfer
    from fastlight.simulate import build_targets

    t, f, cos_phase, sin_phase = _dense_grid(t_window, n_t, _band_end(f_hi) * 1.02,
                                             _DENSE_N_F)
    response = band_response(f, f_lo, f_hi)
    s_pc = build_targets(source, f).s_pc
    transfer = modulation_transfer(line, 2.0 * np.pi * offset_hz, f)
    cross = response ** 2 * s_pc * transfer

    corr = np.trapezoid(cos_phase * cross.real - sin_phase * cross.imag, f, axis=1)
    i = int(np.argmax(corr))
    if 0 < i < n_t - 1:
        y0, y1, y2 = corr[i - 1], corr[i], corr[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            return float(t[i] + 0.5 * (y0 - y2) / denom * (t[1] - t[0]))
    return float(t[i])


def solve_advance_line(shift, find_root):
    """Solve the advance preset's peak gain (dB) and anchor offset (Hz),
    which ``fastlight.config`` holds as ``_ADVANCE_PEAK_DB`` and
    ``_ADVANCE_ANCHOR_HZ``; the comment there says why the line is narrowed.

    ``shift`` is ``dense_correlation_shift``, the shift the constants were
    solved with, or a stand-in with its first five arguments;
    ``find_root(f, a, b, xtol=, rtol=)`` is a bracketing root finder such as
    ``scipy.optimize.brentq``.
    """
    from fastlight.config import (_ADVANCE_FWHM_HZ, _ADVANCE_OFFSET_HZ,
                                  ADVANCE_TARGET_S)
    from fastlight.dispersion import DEFAULT_CELL_LENGTH, calibrate, peak_advance
    from fastlight.twinbeam import TwinBeamSource, gain_for_squeezing

    source = TwinBeamSource(gain1=gain_for_squeezing(-2.5), seed_flux=1e6)

    def shift_error(peak_db):
        line = calibrate(peak_db, _ADVANCE_FWHM_HZ, DEFAULT_CELL_LENGTH)
        return shift(line, _ADVANCE_OFFSET_HZ, source, 1e5, 3e6) - ADVANCE_TARGET_S

    peak_db = find_root(shift_error, 4.0, 40.0, xtol=1e-9, rtol=1e-12)
    line = calibrate(peak_db, _ADVANCE_FWHM_HZ, DEFAULT_CELL_LENGTH)

    def advance_error(offset_hz):
        return peak_advance(line, 2.0 * math.pi * offset_hz) - ADVANCE_TARGET_S

    gamma_hz = line.gamma / (2.0 * math.pi)
    anchor_hz = find_root(advance_error, math.sqrt(3.0) * gamma_hz, _ADVANCE_OFFSET_HZ,
                          xtol=1e-3, rtol=1e-12)
    return float(peak_db), float(anchor_hz)


def circular_correlation(a, b, n_lag):
    """Direct O(n * lags) normalized circular correlation,
    C[l] = sum_t a[t] b[(t + l) mod n] / sqrt(sum a^2 * sum b^2),
    for l = -n_lag .. n_lag."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    values = np.array([np.sum(a * np.roll(b, -lag)) for lag in range(-n_lag, n_lag + 1)])
    return values / np.sqrt(np.sum(a * a) * np.sum(b * b))


def hermitian_pair(sigma_p, l21, l22, seed):
    """Correlated rfft pair from one (4, bins) normal draw, built out of place."""
    rng = np.random.default_rng(seed)
    zp_re, zp_im, zc_re, zc_im = rng.standard_normal((4, sigma_p.size))
    xp = sigma_p * (zp_re + 1j * zp_im) * np.sqrt(0.5)
    xc = (l21 * (zp_re + 1j * zp_im) + l22 * (zc_re + 1j * zc_im)) * np.sqrt(0.5)
    xp[0] = xc[0] = 0.0
    xp[-1] = sigma_p[-1] * zp_re[-1]
    xc[-1] = l21[-1] * zp_re[-1] + l22[-1] * zc_re[-1]
    return xp, xc


def channel_round_trip(samples, sample_rate, mean_flux, line, carrier_offset,
                       excess, seed):
    """Gain-line channel as one rfft/irfft round trip with the noise spectrum
    built out of place from one (2, bins) normal draw; ``excess`` is a flat
    per-sample variance in the samples' flux units."""
    from fastlight.dispersion import intensity_gain, modulation_transfer

    n = samples.size
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    gain0 = float(intensity_gain(line, carrier_offset))
    transfer = gain0 * modulation_transfer(line, carrier_offset, freqs)
    transfer[0] = transfer[0].real
    transfer[-1] = transfer[-1].real
    mean_out = gain0 * mean_flux + (gain0 - 1.0)
    g_bar = 0.5 * (intensity_gain(line, carrier_offset + 2.0 * np.pi * freqs)
                   + intensity_gain(line, carrier_offset - 2.0 * np.pi * freqs))
    s_add = (g_bar - 1.0) * g_bar / gain0
    sigma = np.sqrt(n * (mean_out * np.maximum(s_add, 0.0) + excess))
    z_re, z_im = np.random.default_rng(seed).standard_normal((2, freqs.size))
    noise = sigma * (z_re + 1j * z_im) * np.sqrt(0.5)
    noise[0] = 0.0
    noise[-1] = sigma[-1] * z_re[-1]
    return np.fft.irfft(np.fft.rfft(samples) * transfer + noise, n), mean_out


def allocating_lag_curves(a, b, plan):
    """``analysis.lag_curves`` with every intermediate a new array: the
    two-sided spectrum padded by ``np.fft.fft`` to the kernel length, and
    the inverse transform's output cut to the lags."""
    k = plan.support
    a = np.asarray(a)[:k]
    ib = 1j * np.asarray(b)[:k]
    z = np.zeros(2 * k - 1, dtype=complex)
    z[k - 1:] = a + ib
    z[:k] += np.conjugate(a - ib)[::-1]
    z *= plan.chirp_in
    conv = np.fft.fft(z, plan.kernel.size)
    conv *= plan.kernel
    conv = np.fft.ifft(conv)[:plan.lags.size]
    conv *= plan.chirp_out
    return conv.real, conv.imag


def format_rows_csv(path, columns):
    """A CSV of {name: values} with a header row, each cell formatted by
    ``"{!r}"`` from the columns' ``tolist()``."""
    columns = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row.format(*cells) for cells in
                      zip(*(values.tolist() for values in columns.values())))
