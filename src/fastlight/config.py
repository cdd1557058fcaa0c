"""Scenario configuration: dataclasses, JSON loading, and built-in presets.

A configuration is a single flat JSON document; presets are compiled in and
return fully resolved configs so that runs are reproducible and diffable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .analysis import _band_bins, band_response
from .dispersion import (DEFAULT_CELL_LENGTH, DEFAULT_WAVELENGTH, LIGHT_SPEED,
                         GainLine, calibrate)
from .errors import ConfigError, InvalidParameterError
from .simulate import _is_power_of_two
from .twinbeam import TwinBeamSource, gain_for_squeezing

SCENARIOS = ("line-scan", "delay-scan", "xcorr", "selftest")

ADVANCE_TARGET_S = -12e-9
_ADVANCE_FWHM_HZ = 2.6e6
_ADVANCE_OFFSET_HZ = 6.5e6


@dataclass(frozen=True)
class LineConfig:
    peak_gain_db: float = 7.5
    fwhm_hz: float = 10e6
    length_m: float = DEFAULT_CELL_LENGTH
    wavelength_nm: float = DEFAULT_WAVELENGTH * 1e9

    def make(self) -> GainLine:
        omega = 2.0 * math.pi * LIGHT_SPEED / (self.wavelength_nm * 1e-9)
        return calibrate(self.peak_gain_db, self.fwhm_hz, self.length_m, omega)


@dataclass(frozen=True)
class SourceConfig:
    squeezing_db: float = -2.5
    gain1: float | None = None
    seed_flux: float = 1e6
    pair_bandwidth_hz: float = 20e6
    rolloff: float = 2.0
    coherent: bool = False

    def resolved_gain1(self) -> float:
        if self.gain1 is not None:
            return self.gain1
        return gain_for_squeezing(self.squeezing_db)

    def make(self) -> TwinBeamSource:
        return TwinBeamSource(gain1=self.resolved_gain1(), seed_flux=self.seed_flux,
                              pair_bandwidth=self.pair_bandwidth_hz, rolloff=self.rolloff)


@dataclass(frozen=True)
class ChannelConfig:
    eta: float = 0.95
    excess_noise_db: float = 0.2


@dataclass(frozen=True)
class SamplingConfig:
    rate_hz: float = 2.5e9
    samples: int = 1 << 20
    traces: int = 100


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "xcorr"
    line: LineConfig = field(default_factory=LineConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    detunings_hz: tuple = ()
    offset_hz: float = 0.0
    band_hz: tuple = (1e5, 3e6)
    fullband_hz: tuple = (1e4, 2e7)
    noise_band_hz: tuple = (5e5, 1e6)
    max_lag_s: float = 2e-6
    seed: int = 12345
    out_dir: str = "out"
    jobs: int = 1
    advance_anchor_offset_hz: float | None = None
    advance_target_s: float | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}'; choose from {SCENARIOS}")
        if self.scenario in ("line-scan", "delay-scan") and not self.detunings_hz:
            raise ConfigError("field 'detunings_hz' must be a non-empty list for scans")
        sampling = self.sampling
        if not (_is_finite(sampling.rate_hz) and sampling.rate_hz > 0.0):
            raise ConfigError("field 'sampling.rate_hz' must be a finite number > 0")
        if not (_is_int(sampling.samples) and _is_power_of_two(sampling.samples)):
            raise ConfigError("field 'sampling.samples' must be a power of two")
        if not _is_int(sampling.traces) or sampling.traces < 1:
            raise ConfigError("field 'sampling.traces' must be an integer >= 1")
        for name in ("band_hz", "fullband_hz", "noise_band_hz"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo < hi < sampling.rate_hz / 2.0):
                raise ConfigError(f"field '{name}' must satisfy 0 < lo < hi < Nyquist")
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ConfigError("field 'jobs' must be an integer >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("field 'seed' must be a non-negative integer")
        if not _is_finite(self.offset_hz):
            raise ConfigError("field 'offset_hz' must be a finite number")
        if not all(_is_finite(d) for d in self.detunings_hz):
            raise ConfigError("field 'detunings_hz' must hold finite numbers")
        if not (_is_finite(self.channel.eta) and 0.0 < self.channel.eta <= 1.0):
            raise ConfigError("field 'channel.eta' must be a finite number in (0, 1]")
        if not (_is_finite(self.channel.excess_noise_db) and self.channel.excess_noise_db >= 0.0):
            raise ConfigError("field 'channel.excess_noise_db' must be a finite number >= 0")
        # The noise figure averages the difference's rfft bins in this band.
        name = {"line-scan": "noise_band_hz", "delay-scan": "band_hz",
                "xcorr": "band_hz"}.get(self.scenario)
        if name is not None and not _band_bins(sampling.samples, sampling.rate_hz,
                                               *getattr(self, name)):
            raise ConfigError(f"field '{name}' holds no bin of the rfft grid of "
                              f"{sampling.samples} samples at rate_hz {sampling.rate_hz}")
        # The bands a scenario band-filters must carry band_response's
        # raised-cosine edges (an empty grid runs only its checks).
        filtered = {"delay-scan": ("band_hz", "fullband_hz"),
                    "xcorr": ("band_hz",), "selftest": ("band_hz",)}.get(self.scenario, ())
        for name in filtered:
            try:
                band_response((), *getattr(self, name))
            except InvalidParameterError as exc:
                raise ConfigError(f"field '{name}' is invalid: {exc}") from exc
        if self.scenario in ("delay-scan", "xcorr"):
            # The correlation kernel's lag window: one sample to an eighth of a trace.
            if not (_is_finite(self.max_lag_s) and 1.0 <= self.max_lag_s
                    * self.sampling.rate_hz <= self.sampling.samples / 8):
                raise ConfigError("field 'max_lag_s' must lie between one sample period "
                                  "and samples / (8 * rate_hz)")
        # Fail early on invalid physics parameters, with the field named.
        try:
            self.line.make()
        except Exception as exc:
            raise ConfigError(f"field 'line' is invalid: {exc}") from exc
        try:
            source = self.source.make()
        except Exception as exc:
            raise ConfigError(f"field 'source' is invalid: {exc}") from exc
        if not self.source.coherent and source.gain1 <= 1.0:
            raise ConfigError("field 'source': twin-beam runs need gain1 > 1 "
                              "(the conjugate is dark at gain1 = 1); "
                              "use coherent: true for a coherent pair")
        if self.source.coherent and self.scenario in ("delay-scan", "xcorr"):
            raise ConfigError(f"field 'source.coherent' must be false on {self.scenario}: "
                              "its delays are read from the correlation of a twin pair")

    def to_dict(self) -> dict:
        return _as_dict(self)

    def config_hash(self) -> str:
        payload = {k: v for k, v in self.to_dict().items() if k not in ("out_dir", "jobs")}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _as_dict(section) -> dict:
    """A config dataclass as plain JSON data.  Numbers in float-typed fields
    and in the tuple fields are written as floats, so configs that compare
    equal (``0 == 0.0``) give equal dicts and equal hashes."""
    d = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            value = _as_dict(value)
        elif f.name in _TUPLE_FIELDS:
            value = [float(v) for v in value]
        elif f.type in ("float", "float | None") and value is not None:
            value = float(value)
        d[f.name] = value
    return d


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_SECTION_TYPES = {
    "line": LineConfig,
    "source": SourceConfig,
    "channel": ChannelConfig,
    "sampling": SamplingConfig,
}

_TUPLE_FIELDS = ("detunings_hz", "band_hz", "fullband_hz", "noise_band_hz")


def _build_section(name: str, cls, payload) -> object:
    if not isinstance(payload, dict):
        raise ConfigError(f"field '{name}' must be an object")
    allowed = set(cls.__dataclass_fields__)
    for key, value in payload.items():
        if key not in allowed:
            raise ConfigError(f"unknown field '{name}.{key}'")
        if key == "coherent":
            if not isinstance(value, bool):
                raise ConfigError(f"field '{name}.{key}' must be a boolean")
        elif value is not None and not isinstance(value, (int, float)):
            raise ConfigError(f"field '{name}.{key}' must be a number")
    try:
        return cls(**payload)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"field '{name}' is invalid: {exc}") from exc


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    allowed = set(ScenarioConfig.__dataclass_fields__)
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"unknown field '{key}'")
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(key, _SECTION_TYPES[key], value)
        elif key in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, (int, float)) for v in value):
                raise ConfigError(f"field '{key}' must be a list of numbers")
            kwargs[key] = tuple(float(v) for v in value)
        else:
            kwargs[key] = value
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# Presets


# A 10 MHz line cannot advance the 0.1-3 MHz correlation band by 12 ns while
# keeping the gain at the operating point near one (the advance-gain
# trade-off of a single Lorentzian caps |advance| below ~0.11/gamma seconds),
# so the advance preset narrows the line to 2.6 MHz and drives it with the
# peak gain at which the predicted band-filtered correlation shift at the
# 6.5 MHz operating offset equals -12 ns.  The anchor offset is where the
# plain group-delay expression gives exactly -12 ns.  Both are solved once,
# with Brent's method, by tests/oracles.solve_advance_line, which the tests
# run to check these constants bit for bit.
_ADVANCE_PEAK_DB = 19.50531536947279
_ADVANCE_ANCHOR_HZ = 5769501.500567063


def preset_fig2_line() -> ScenarioConfig:
    """Gain-line scan preset: 7.5 dB peak, 10 MHz FWHM, 25 mm cell."""
    return ScenarioConfig(
        scenario="line-scan",
        line=LineConfig(peak_gain_db=7.5, fwhm_hz=10e6),
        source=SourceConfig(squeezing_db=-2.5),
        sampling=SamplingConfig(rate_hz=2.5e9, samples=1 << 18, traces=20),
        detunings_hz=tuple(float(d) for d in np.linspace(-30e6, 30e6, 25)),
        offset_hz=0.0,
    )


def preset_fig4_advance() -> ScenarioConfig:
    """Advance preset: narrowed line driven so the band-filtered correlation
    shift at the operating offset equals -12 ns, with near-unity gain there."""
    return ScenarioConfig(
        scenario="xcorr",
        line=LineConfig(peak_gain_db=_ADVANCE_PEAK_DB, fwhm_hz=_ADVANCE_FWHM_HZ),
        source=SourceConfig(squeezing_db=-2.5),
        sampling=SamplingConfig(rate_hz=2.5e9, samples=1 << 20, traces=100),
        detunings_hz=(-10e6, -8e6, -6.5e6, -5.5e6, -4.5e6,
                      4.5e6, 5.5e6, 6.5e6, 8e6, 10e6),
        offset_hz=_ADVANCE_OFFSET_HZ,
        advance_anchor_offset_hz=_ADVANCE_ANCHOR_HZ,
        advance_target_s=ADVANCE_TARGET_S,
    )


def preset_coherent_ref() -> ScenarioConfig:
    """Shot-noise calibration preset: independent coherent beams carrying the
    same total power as the twin pair, no medium."""
    return ScenarioConfig(
        scenario="line-scan",
        line=LineConfig(peak_gain_db=0.0, fwhm_hz=10e6),
        source=SourceConfig(squeezing_db=-2.5, coherent=True),
        channel=ChannelConfig(eta=0.95, excess_noise_db=0.0),
        sampling=SamplingConfig(rate_hz=2.5e9, samples=1 << 18, traces=20),
        detunings_hz=(0.0,),
        offset_hz=0.0,
    )


PRESETS = {
    "fig2-line": preset_fig2_line,
    "fig4-advance": preset_fig4_advance,
    "coherent-ref": preset_coherent_ref,
}


def load_config(path_or_preset: str) -> ScenarioConfig:
    """Load a scenario config from a preset name or a JSON file path."""
    if path_or_preset in PRESETS:
        return PRESETS[path_or_preset]()
    if os.path.exists(path_or_preset):
        try:
            with open(path_or_preset, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse {path_or_preset}: line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path_or_preset}: {exc}") from exc
        return config_from_dict(data)
    raise ConfigError(f"unknown preset or missing file '{path_or_preset}'; "
                      f"presets: {sorted(PRESETS)}")
