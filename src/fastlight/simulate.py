"""Seeded synthesis and propagation of correlated photocurrent traces.

The photocurrent model is semiclassical: each trace stores zero-mean
fluctuations (photons per sample) riding on a bright mean flux that is
tracked separately.  A coherent beam of mean flux ``m`` has white fluctuations
with per-sample variance ``m`` (1 shot-noise unit).  All synthesis happens in
the frequency domain so that target spectra are hit exactly in expectation:
an rfft bin of an N-sample trace carries E|X[k]|^2 = N * m * s(f_k) when the
one-sided spectrum in shot-noise units is s(f).

Reproducibility: every stochastic operation takes a seed (int or
numpy.random.SeedSequence).  Scans derive per-task seeds by SeedSequence
spawning, so results are independent of execution order.  Outputs are
bit-identical for identical seeds on one platform; across platforms FFT
rounding limits agreement to ~1e-12 relative.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersion import GainLine, line_response
from .errors import IncompatibleTracesError, InvalidParameterError
from .twinbeam import TwinBeamSource

_BINARY_MAGIC = b"FLTRACE\x00"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<8sIddQ")


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Trace:
    """A sampled real-valued photocurrent fluctuation record.

    sample_rate: Hz.
    mean_flux: mean photon number per sample (> 0); the shot-noise scale.
    samples: finite, zero-mean fluctuation sequence in photons per sample;
        length is a power of two.  The array is locked read-only, so an
        operation that changes nothing may return its input trace itself.
    """

    sample_rate: float
    mean_flux: float
    samples: np.ndarray

    def __post_init__(self):
        if not (self.sample_rate > 0.0 and np.isfinite(self.sample_rate)):
            raise InvalidParameterError(f"sample_rate must be > 0, got {self.sample_rate}")
        if not (self.mean_flux > 0.0 and np.isfinite(self.mean_flux)):
            raise InvalidParameterError(f"mean_flux must be > 0, got {self.mean_flux}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or not _is_power_of_two(samples.size):
            raise InvalidParameterError(
                f"samples must be a 1-d array with power-of-two length, got shape {samples.shape}")
        # min and max carry any NaN or inf, without a full-size boolean temporary.
        if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise InvalidParameterError("samples must be finite")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


def difference(t1: Trace, t2: Trace) -> Trace:
    """Intensity-difference record t1 - t2.

    The mean fluxes add: the shot-noise reference of a difference measurement
    is the total detected power.
    """
    if len(t1) != len(t2) or t1.sample_rate != t2.sample_rate:
        raise IncompatibleTracesError(
            f"traces differ in length or rate: ({len(t1)}, {t1.sample_rate}) vs "
            f"({len(t2)}, {t2.sample_rate})")
    return Trace(t1.sample_rate, t1.mean_flux + t2.mean_flux, t1.samples - t2.samples)


@dataclass(frozen=True)
class SpectralTargets:
    """One-sided spectral targets for a correlated trace pair, in SNU.

    s_pc is normalized by the geometric mean of the two shot levels, so the
    per-bin spectral matrix [[s_pp, s_pc], [s_pc*, s_cc]] must be positive
    semidefinite.
    """

    frequencies: np.ndarray
    s_pp: np.ndarray
    s_cc: np.ndarray
    s_pc: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        if f.ndim != 1 or np.any(np.diff(f) <= 0) or f[0] < 0:
            raise InvalidParameterError("frequency grid must be non-negative and increasing")
        for name in ("s_pp", "s_cc", "s_pc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != f.shape:
                raise InvalidParameterError(f"{name} must match the frequency grid")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "frequencies", f)
        if np.any(self.s_pp < 0) or np.any(self.s_cc < 0):
            raise InvalidParameterError("auto-spectra must be non-negative")
        if np.any(self.s_pc ** 2 > self.s_pp * self.s_cc * (1.0 + 1e-12)):
            raise InvalidParameterError("per-bin spectral matrix is not positive semidefinite")


def correlation_band_weight(source: TwinBeamSource, f):
    """Roll-off weight of the correlation band: 1 in band, 1/2 at half the
    pair bandwidth, -> 0 far outside."""
    f = np.asarray(f, dtype=float)
    corner = source.pair_bandwidth / 2.0
    return 1.0 / (1.0 + np.abs(f / corner) ** (2.0 * source.rolloff))


def build_targets(source: TwinBeamSource, frequencies) -> SpectralTargets:
    """Spectral embedding of the seeded-pair statistics.

    In band both beams sit at 2*G1 - 1 SNU individually while the difference
    sits at 1/(2*G1 - 1); out of band everything relaxes to the shot floor.
    The cross spectrum is s_pc = 2 sqrt(G1 (G1-1)) * w(f), which distributes
    the closed-form covariance over the correlation band and keeps the
    per-bin spectral matrix positive definite for any weight w in [0, 1].
    """
    f = np.asarray(frequencies, dtype=float)
    w = correlation_band_weight(source, f)
    g1 = source.gain1
    excess = 2.0 * (g1 - 1.0) * w
    s_pp = 1.0 + excess
    s_cc = 1.0 + excess
    s_pc = 2.0 * np.sqrt(g1 * (g1 - 1.0)) * w
    return SpectralTargets(frequencies=f, s_pp=s_pp, s_cc=s_cc, s_pc=s_pc)


def synthesis_factors(targets: SpectralTargets, n_samples: int, sample_rate: float,
                      mean_p: float, mean_c: float):
    """Per-bin Cholesky factors (sigma_p, l21, l22) of the pair's bin covariance.

    They scale unit circular Gaussians into rfft bins of an n_samples-long
    pair hitting the targets; they depend only on the targets and the means,
    so a scan point builds them once for all its traces.
    """
    if not _is_power_of_two(n_samples):
        raise InvalidParameterError(f"n_samples must be a power of two, got {n_samples}")
    if mean_p <= 0.0 or mean_c <= 0.0:
        raise InvalidParameterError("mean fluxes must be positive")
    expected = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    if targets.frequencies.shape != expected.shape or not np.allclose(
            targets.frequencies, expected, rtol=1e-9, atol=1e-3):
        raise InvalidParameterError(
            "targets grid does not match the rfft grid of (n_samples, sample_rate)")
    s_pp, s_cc, s_pc = targets.s_pp, targets.s_cc, targets.s_pc
    sigma_p = np.sqrt(n_samples * mean_p * s_pp)
    l21 = np.sqrt(n_samples * mean_c) * s_pc / np.sqrt(s_pp)
    l22 = np.sqrt(n_samples * mean_c) * np.sqrt(np.maximum(s_cc - s_pc ** 2 / s_pp, 0.0))
    return sigma_p, l21, l22


def synth_twin_spectra(factors, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw one correlated pair of rfft spectra from ``synthesis_factors``.

    Per positive-frequency bin a complex bivariate circular Gaussian is drawn
    with the factors' covariance.  Bin 0 is zero (zero-mean traces); the
    Nyquist bin is real and carries the full variance in one real draw.
    """
    sigma_p, l21, l22 = factors
    rng = np.random.default_rng(seed)
    nb = sigma_p.size
    xp = np.empty(nb, dtype=complex)
    xc = np.empty(nb, dtype=complex)
    # Four unit normals per bin (probe re/im, conjugate re/im), drawn one row
    # at a time into a shared buffer.
    z = np.empty(nb)
    for part in (xp.real, xp.imag, xc.real, xc.imag):
        rng.standard_normal(out=z)
        part[...] = z
    zp_nyq, zc_nyq = xp.real[-1], xc.real[-1]
    xc *= l22
    xc.real += l21 * xp.real
    xc.imag += l21 * xp.imag
    xc *= np.sqrt(0.5)
    xp *= sigma_p
    xp *= np.sqrt(0.5)
    xp[0] = 0.0
    xc[0] = 0.0
    xp[-1] = sigma_p[-1] * zp_nyq
    xc[-1] = l21[-1] * zp_nyq + l22[-1] * zc_nyq
    return xp, xc


def synth_twin_traces(targets: SpectralTargets, n_samples: int, sample_rate: float,
                      mean_p: float, mean_c: float, seed) -> tuple[Trace, Trace]:
    """Synthesize one correlated trace pair hitting the spectral targets.

    The pair's spectra come from ``synth_twin_spectra`` and are inverse
    transformed.  Welch estimates of many such pairs converge to the targets.
    """
    factors = synthesis_factors(targets, n_samples, sample_rate, mean_p, mean_c)
    xp, xc = synth_twin_spectra(factors, seed)
    return (Trace(sample_rate, mean_p, np.fft.irfft(xp, n_samples)),
            Trace(sample_rate, mean_c, np.fft.irfft(xc, n_samples)))


def white_spectrum(n_samples: int, variance: float, seed, add_to=None) -> np.ndarray:
    """The rfft of n_samples iid N(0, variance) samples, drawn directly.

    DC and Nyquist are real N(0, n*variance); every interior bin has
    independent real and imaginary parts N(0, n*variance/2).  That is the
    exact distribution of ``np.fft.rfft`` of white Gaussian samples.  seed may
    be anything ``np.random.default_rng`` accepts, a Generator included.
    With ``add_to`` (a complex array on the same rfft grid, or on its first
    bins only) the draw is added to it in place and it is returned.  On
    K < n/2 + 1 bins it is K real parts, then K imaginary parts: the real
    parts are the whole grid's first K, and there is no Nyquist bin.
    """
    nb = n_samples // 2 + 1
    bins = nb if add_to is None else add_to.size
    if not 1 <= bins <= nb:
        raise InvalidParameterError(f"add_to must hold 1 to {nb} bins, got {bins}")
    out = np.zeros(nb, dtype=complex) if add_to is None else add_to
    rng = np.random.default_rng(seed)
    scale = np.sqrt(0.5 * n_samples * variance)
    z = rng.standard_normal(bins)
    z *= scale
    z[0] *= np.sqrt(2.0)
    if bins == nb:
        z[-1] *= np.sqrt(2.0)
    out.real += z
    rng.standard_normal(out=z)
    z *= scale
    z[0] = 0.0
    if bins == nb:
        z[-1] = 0.0
    out.imag += z
    return out


def shot_reference(mean_p: float, mean_c: float, n_samples: int, sample_rate: float,
                   seed) -> tuple[Trace, Trace]:
    """Two independent coherent (white, 1 SNU) traces with the given means.

    Used as the shot-noise calibration pair: their difference reads exactly
    1 SNU against the total power mean_p + mean_c.
    """
    if mean_p <= 0.0 or mean_c <= 0.0:
        raise InvalidParameterError("mean fluxes must be positive")
    if not _is_power_of_two(n_samples):
        raise InvalidParameterError(f"n_samples must be a power of two, got {n_samples}")
    rng = np.random.default_rng(seed)
    t1 = Trace(sample_rate, mean_p, rng.standard_normal(n_samples) * np.sqrt(mean_p))
    t2 = Trace(sample_rate, mean_c, rng.standard_normal(n_samples) * np.sqrt(mean_c))
    return t1, t2


class ChannelResponse(NamedTuple):
    """Constants of the dispersive gain line for one offset, input mean and
    rfft grid.

    transfer: absolute transfer G(offset) * M(f), with real DC and Nyquist
        bins; None for a line that is the identity (zero gain, no excess).
    noise_std: standard deviation of the real part of each bin's added
        noise; interior imaginary parts share it, DC and Nyquist have none.
    mean_out: output mean flux G*m + (G - 1).
    """

    transfer: np.ndarray | None
    noise_std: np.ndarray | None
    mean_out: float


def channel_response(line: GainLine, carrier_offset: float, n_samples: int,
                     sample_rate: float, mean_flux: float,
                     excess_db: float = 0.0) -> ChannelResponse:
    """Constants of ``propagate_channel`` for an n_samples trace of the given
    mean flux; they are the same for every trace of a scan point."""
    if excess_db < 0.0:
        raise InvalidParameterError(f"excess_db must be >= 0, got {excess_db}")
    if line.g == 0.0 and excess_db == 0.0:
        return ChannelResponse(None, None, mean_flux)
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    gain0, transfer, added = line_response(line, carrier_offset, freqs)
    # Hermitian-symmetric application on the rfft grid: the shared DC and
    # Nyquist bins must stay real.
    transfer[0] = transfer[0].real
    transfer[-1] = transfer[-1].real

    mean_out = gain0 * mean_flux + (gain0 - 1.0)
    s_add = added + (10.0 ** (excess_db / 10.0) - 1.0)
    noise_std = np.sqrt(n_samples * mean_out * np.maximum(s_add, 0.0))
    noise_std[1:-1] *= np.sqrt(0.5)
    noise_std[0] = 0.0
    return ChannelResponse(transfer, noise_std, mean_out)


def apply_channel(x: np.ndarray, response: ChannelResponse, seed) -> np.ndarray:
    """Send an rfft spectrum through the gain line, in place; returns x.

    Multiplies by the transfer and adds independent circular Gaussian noise
    with the response's per-bin deviation.  An identity response leaves x
    untouched and draws nothing.
    """
    if response.transfer is None:
        return x
    x *= response.transfer
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(x.size)
    z *= response.noise_std
    x.real += z
    rng.standard_normal(out=z)
    z *= response.noise_std
    z[-1] = 0.0
    x.imag += z
    return x


def propagate_channel(trace: Trace, line: GainLine, carrier_offset: float,
                      excess_db: float = 0.0, seed=0) -> Trace:
    """Send a trace through the dispersive gain line.

    The fluctuation spectrum is multiplied by the absolute transfer
    G(offset) * M(f), the mean flux follows the amplifier mean
    G*m + (G - 1), and independent Gaussian noise is added with one-sided
    spectrum (Gbar(f) - 1) * Gbar(f) / G(offset) in output-beam SNU, where
    Gbar(f) is the sideband-averaged intensity gain.  ``excess_db`` adds a
    flat technical floor, also in the propagated beam's own SNU.

    In the flat-gain limit (line width >> trace bandwidth) the output mean
    and variance reproduce the ideal amplifier relations and the SNU map is
    exactly G*s + (G - 1).  A zero-gain line with zero excess returns the
    input unchanged (no generator draws are consumed).  This is
    ``channel_response`` and ``apply_channel`` between an rfft and an irfft.
    """
    n = len(trace)
    response = channel_response(line, carrier_offset, n, trace.sample_rate,
                                trace.mean_flux, excess_db)
    if response.transfer is None:
        return trace
    x = apply_channel(np.fft.rfft(trace.samples), response, seed)
    return Trace(trace.sample_rate, response.mean_out, np.fft.irfft(x, n))


def detect_spectrum(x: np.ndarray, eta: float, mean_flux: float, seed,
                    out: np.ndarray | None = None,
                    n_samples: int | None = None) -> np.ndarray:
    """Detection with efficiency eta on an rfft spectrum: eta*x plus the
    white vacuum spectrum of per-sample variance (1 - eta) * eta * mean_flux.

    Writes into ``out`` (which may be x itself) or a new array.  x may hold
    only the first bins of the grid of an n_samples record (default: x is the
    whole grid); the vacuum is then drawn on those bins only, as
    ``white_spectrum`` draws them.  eta = 1 draws nothing and leaves the
    values of x bit-exact.
    """
    if not (0.0 < eta <= 1.0):
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    out = np.multiply(x, eta, out=out)
    if eta < 1.0:
        n = 2 * (x.size - 1) if n_samples is None else n_samples
        white_spectrum(n, (1.0 - eta) * eta * mean_flux, seed, add_to=out)
    return out


def apply_detection(trace: Trace, eta: float, seed=0) -> Trace:
    """Beam-splitter detection model with efficiency eta.

    Scales the mean by eta and the fluctuations by eta while adding white
    vacuum noise of per-sample variance (1 - eta) * eta * mean_flux, so the
    SNU map is exactly eta*s + (1 - eta) in expectation.  eta = 1 is the
    identity (bit-exact, no generator draws).  This is ``detect_spectrum``
    between an rfft and an irfft.
    """
    if not (0.0 < eta <= 1.0):
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    if eta == 1.0:
        return trace
    x = np.fft.rfft(trace.samples)
    detect_spectrum(x, eta, trace.mean_flux, seed, out=x)
    return Trace(trace.sample_rate, eta * trace.mean_flux, np.fft.irfft(x, len(trace)))


def fractional_shift(trace: Trace, delay: float) -> Trace:
    """Circularly shift a trace by ``delay`` seconds (positive delays it).

    Implemented as an exact frequency-domain phase ramp; integer-sample
    delays reproduce np.roll to rounding.
    """
    n = len(trace)
    freqs = np.fft.rfftfreq(n, 1.0 / trace.sample_rate)
    phase = np.exp(-2j * np.pi * freqs * delay)
    x = np.fft.rfft(trace.samples) * phase
    return Trace(trace.sample_rate, trace.mean_flux, np.fft.irfft(x, n))


# ---------------------------------------------------------------------------
# Trace import/export


def save_trace_csv(trace: Trace, path):
    """Write a trace as CSV: metadata comments, then 'index,value' rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# sample_rate_hz={float(trace.sample_rate)!r}\n")
        fh.write(f"# mean_flux={float(trace.mean_flux)!r}\n")
        fh.write("index,value\n")
        for i, v in enumerate(trace.samples):
            fh.write(f"{i},{float(v)!r}\n")


def load_trace_csv(path, sample_rate: float | None = None,
                   mean_flux: float | None = None) -> Trace:
    """Read a trace written by ``save_trace_csv``.

    Explicit sample_rate/mean_flux override the metadata comments; files
    without metadata must supply both.
    """
    values = []
    with open(path, "r", newline="") as fh:
        for row in fh:
            row = row.strip()
            if not row:
                continue
            if row.startswith("#"):
                key, _, val = row.lstrip("# ").partition("=")
                if key.strip() == "sample_rate_hz" and sample_rate is None:
                    sample_rate = float(val)
                elif key.strip() == "mean_flux" and mean_flux is None:
                    mean_flux = float(val)
                continue
            if row.lower().startswith("index"):
                continue
            _, _, val = row.partition(",")
            values.append(float(val))
    if sample_rate is None or mean_flux is None:
        raise InvalidParameterError("CSV lacks metadata; pass sample_rate and mean_flux")
    return Trace(sample_rate, mean_flux, np.asarray(values))


def save_trace_binary(trace: Trace, path):
    """Write the documented little-endian binary layout.

    Header: magic 'FLTRACE\\x00' (8 bytes), version u32, sample_rate f64,
    mean_flux f64, count u64; then count float64 samples.
    """
    header = _HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION,
                          trace.sample_rate, trace.mean_flux, len(trace))
    data = np.ascontiguousarray(trace.samples, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def load_trace_binary(path) -> Trace:
    """Read a trace written by ``save_trace_binary`` (exact round trip)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise InvalidParameterError("truncated trace file")
        magic, version, rate, mean, count = _HEADER.unpack(raw)
        if magic != _BINARY_MAGIC:
            raise InvalidParameterError(f"bad magic {magic!r} in trace file")
        if version != _BINARY_VERSION:
            raise InvalidParameterError(f"unsupported trace file version {version}")
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
        if data.size != count:
            raise InvalidParameterError("truncated trace file")
    return Trace(rate, mean, data.astype(float))
