"""Scenario configuration: dataclasses, JSON loading, and built-in presets.

A configuration is a single flat JSON document; presets are compiled in and
return fully resolved configs so that runs are reproducible and diffable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache, reduce
from typing import get_type_hints

from .analysis import _band_bins, band_response
from .dispersion import (DEFAULT_CELL_LENGTH, DEFAULT_WAVELENGTH, LIGHT_SPEED,
                         GainLine, calibrate)
from .errors import ConfigError, InvalidParameterError
from .simulate import _is_power_of_two
from .twinbeam import TwinBeamSource, gain_for_squeezing

# What each scenario's points read and write: the band fields they correlate
# in, where the advance is measured, each with the column of its measured
# delay; the band field whose rfft bins their noise figure averages, where the
# loss of correlation is measured, with the column of that figure; and the
# columns of their rows, in order.  The selftest runs no point of its own
# scenario.
SCENARIOS = {
    "line-scan": ({}, ("noise_band_hz", "simulated_noise_db"), (
        "detuning_hz", "gain_db", "predicted_noise_db", "simulated_noise_db", "group_index")),
    "delay-scan": ({"band_hz": "delay_s_band", "fullband_hz": "delay_s_fullband"},
                   ("band_hz", "squeezing_db_band"), (
        "detuning_hz", "delay_s_fullband", "delay_s_band", "squeezing_db_band",
        "analytic_squeezing_db")),
    "xcorr": ({"band_hz": "delay_s_band"}, ("band_hz", "squeezing_db_band"), (
        "detuning_hz", "gain_db", "delay_s_band", "squeezing_db_band",
        "analytic_squeezing_db", "predicted_delta_t_s")),
    "selftest": ({}, (None, None), ()),
}

ADVANCE_TARGET_S = -12e-9
_ADVANCE_FWHM_HZ = 2.6e6
_ADVANCE_OFFSET_HZ = 6.5e6

# Every numeric range bound, {dotted field: (low, high)}, both ends closed.
BOUNDS = {
    # The synthesis takes a power of two (checked on its own) of at least 2.
    # The chirp-z plans square int64 bin and lag indices of up to 5n/8
    # (``analysis._chirp``), which passes 2^63 from 2^33 samples on.
    "sampling.samples": (2, 1 << 32),
    # The trace count enters float64 arithmetic (the mean cross spectra, the
    # noise figure's divisor), which holds every integer only up to 2^53.
    "sampling.traces": (1, 1 << 53),
    # The cross spectrum divides by sqrt(E1 E2), which needs E1 E2 above 2.2e-308,
    # float64's smallest normal.  An energy is about n eta S (G1 - 1) seed_flux,
    # S the band's weight sum; with n S >= 1 and G1 (G1 - 1) >= 2.2e-16, E1 E2
    # clears that while eta seed_flux > 1e-146; floors of 1e-50 keep it >= 1e-100.
    # The channel noise adds the excess x = 10^(dB / 10) - 1 as the flux variance
    # x (mean_p + mean_c_out) / eta (scenario._point_channel), about 6e84 / eta at
    # the other bounds' upper ends: 6e134 at the floor, below float64's 1.8e308.
    "channel.eta": (1e-50, 1.0),
    # Above 10 log10(2^53) = 159.5 dB one shot-noise unit lies below the
    # float64 resolution of the excess, so the noise figures read the excess
    # alone (and at 3,000 dB the chain's powers overflow); 150 leaves a margin.
    "channel.excess_noise_db": (0.0, 150.0),
    # The floor as for eta.  A band energy is up to about K n G^2 seed_flux (n <= 2^32,
    # K <= 2^31, G the peak intensity gain): at 1e30 and 300 dB (G = 1e30) below
    # 9.3e108, and E1 E2 below 8.6e217, with a margin for the source gain; the
    # prediction's mean_p mean_c ~ G1 (G1 - 1) seed_flux^2 passes 1.8e308 from 1.3e154.
    "source.seed_flux": (1e-50, 1e30),
    "line.peak_gain_db": (-math.inf, 300.0),
    # At least one process runs the points; more than there are points idle.
    "jobs": (1, math.inf),
    # A SeedSequence takes non-negative entropy.
    "seed": (0, math.inf),
}


def _bound(value) -> str:
    """A bound as an error prints it; powers of two past 2^20 as 2^k."""
    power = isinstance(value, int) and value > 1 << 20 and not value & (value - 1)
    return f"2^{value.bit_length() - 1}" if power else f"{value:g}"


def _check_scenario(name) -> None:
    if not (isinstance(name, str) and name in SCENARIOS):
        raise ConfigError(f"field 'scenario' must be one of {tuple(SCENARIOS)}, got {name!r}")


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
        return gain_for_squeezing(self.squeezing_db) if self.gain1 is None else self.gain1

    def make(self) -> TwinBeamSource:
        return TwinBeamSource(gain1=self.resolved_gain1(), seed_flux=self.seed_flux,
                              pair_bandwidth=self.pair_bandwidth_hz, rolloff=self.rolloff,
                              coherent=self.coherent)


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
    detunings_hz: tuple[float, ...] = ()
    offset_hz: float = 0.0
    band_hz: tuple[float, float] = (1e5, 3e6)
    fullband_hz: tuple[float, float] = (1e4, 2e7)
    noise_band_hz: tuple[float, float] = (5e5, 1e6)
    max_lag_s: float = 2e-6
    seed: int = 12345
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        _check_types(self)
        _check_scenario(self.scenario)
        if self.scenario in ("line-scan", "delay-scan") and not self.detunings_hz:
            raise ConfigError("field 'detunings_hz' must be a non-empty list for scans")
        for name, (low, high) in BOUNDS.items():
            if not low <= reduce(getattr, name.split("."), self) <= high:
                raise ConfigError(f"field '{name}' must lie in [{_bound(low)}, {_bound(high)}]")
        sampling = self.sampling
        if not _is_power_of_two(sampling.samples):
            raise ConfigError("field 'sampling.samples' must be a power of two")
        for name in ("band_hz", "fullband_hz", "noise_band_hz"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo < hi < sampling.rate_hz / 2.0):
                raise ConfigError(f"field '{name}' needs 0 < lo < hi < 'sampling.rate_hz' / 2")
        correlated, (noise, _), _ = SCENARIOS[self.scenario]
        for name in filter(None, dict.fromkeys((noise, *correlated))):
            if not _band_bins(sampling.samples, sampling.rate_hz, *getattr(self, name)):
                raise ConfigError(f"field '{name}' holds no rfft bin at 'sampling.samples' "
                                  f"{sampling.samples}, 'sampling.rate_hz' {sampling.rate_hz}")
        # The bands a scenario band-filters must carry band_response's
        # raised-cosine edges (an empty grid runs only its checks); the
        # selftest's delay check filters band_hz.
        for name in correlated if noise is not None else ("band_hz",):
            try:
                band_response((), *getattr(self, name))
            except InvalidParameterError as exc:
                raise ConfigError(f"field '{name}' is invalid: {exc}") from exc
        # The correlation kernel's lag window: one sample to an eighth of a trace.
        if correlated and not 1.0 <= self.max_lag_s * sampling.rate_hz <= sampling.samples / 8:
            raise ConfigError("field 'max_lag_s' must lie between one sample period and "
                              "'sampling.samples' / (8 * 'sampling.rate_hz')")
        # The line's modulation transfer needs every bin below half the carrier.
        if not self.line.wavelength_nm * 1e-9 * sampling.rate_hz < LIGHT_SPEED:
            raise ConfigError("field 'line.wavelength_nm' must put the optical carrier "
                              "above 'sampling.rate_hz'")
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
            raise ConfigError("field 'source': twin-beam runs need gain1 > 1 (the conjugate is "
                              "dark at gain1 = 1); use coherent: true for a coherent pair")
        if self.source.coherent and correlated:
            raise ConfigError(f"field 'source.coherent' must be false on {self.scenario}: "
                              "its delays are read from the correlation of a twin pair")

    def to_dict(self) -> dict:
        return _as_dict(self)

    def config_hash(self) -> str:
        payload = {k: v for k, v in self.to_dict().items() if k not in ("out_dir", "jobs")}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    """{field name: annotation} of a config dataclass, the annotations evaluated."""
    return get_type_hints(cls)


def _is_finite(value) -> bool:
    """A number that converts to a finite float.  A JSON boolean is a bool, an
    int subclass, and no number; NaN, the infinities and ints beyond the
    float range fail the comparison."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# What each field annotation admits, and how an error says so.
_TYPE_RULES = {
    float: (_is_finite, "a finite number"),
    float | None: (lambda v: v is None or _is_finite(v), "null or a finite number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    tuple[float, ...]: (lambda v: isinstance(v, tuple) and all(map(_is_finite, v)),
                        "a list of finite numbers"),
    tuple[float, float]: (lambda v: isinstance(v, tuple) and len(v) == 2
                          and all(map(_is_finite, v)), "a list of two finite numbers"),
}


def _check_types(section, prefix: str = "") -> None:
    """Check every field of a config dataclass against its annotation,
    recursing into sections; an error names the field by its dotted path."""
    for name, kind in _field_types(type(section)).items():
        value, where = getattr(section, name), prefix + name
        if is_dataclass(kind):
            if not isinstance(value, kind):
                raise ConfigError(f"field '{where}' must be an object")
            _check_types(value, where + ".")
        elif not _TYPE_RULES[kind][0](value):
            raise ConfigError(f"field '{where}' must be {_TYPE_RULES[kind][1]}")


def _as_dict(section) -> dict:
    """A config dataclass as plain JSON data.  Numbers in float-typed fields
    and in the tuple fields are written as floats, so configs that compare
    equal (``0 == 0.0``) give equal dicts and equal hashes."""
    d = {}
    for name, kind in _field_types(type(section)).items():
        value = getattr(section, name)
        if is_dataclass(kind):
            value = _as_dict(value)
        elif isinstance(value, tuple):
            value = [float(v) for v in value]
        elif kind in (float, float | None) and value is not None:
            value = float(value)
        d[name] = value
    return d


def config_from_dict(data: dict, cls=ScenarioConfig, prefix: str = ""):
    """A config from JSON data: objects become sections and lists tuples.
    Unknown keys are refused here; ScenarioConfig checks every type."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    types = _field_types(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown field '{prefix}{key}'")
        if is_dataclass(types[key]) and isinstance(value, dict):
            value = config_from_dict(value, types[key], f"{prefix}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Presets


# A 10 MHz line cannot advance the 0.1-3 MHz correlation band by 12 ns while
# keeping the gain at the operating point near one (the advance-gain
# trade-off of a single Lorentzian caps |advance| below ~0.11/gamma seconds),
# so the advance preset narrows the line to 2.6 MHz and drives it with the
# peak gain at which the predicted band-filtered correlation shift at the
# 6.5 MHz operating offset equals -12 ns.  The anchor offset, which no run
# reads, is where the plain group-delay expression gives exactly -12 ns; the
# tests check the line against it.  Both are solved once,
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
        detunings_hz=tuple(2.5e6 * i - 30e6 for i in range(25)),
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
    )


PRESETS = {
    "fig2-line": preset_fig2_line,
    "fig4-advance": preset_fig4_advance,
    "coherent-ref": preset_coherent_ref,
}


def load_data(path_or_preset: str):
    """The JSON data of a preset name or a JSON file path, unchecked."""
    if path_or_preset in PRESETS:
        return PRESETS[path_or_preset]().to_dict()
    if os.path.exists(path_or_preset):
        try:
            with open(path_or_preset, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse {path_or_preset}: line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path_or_preset}: {exc}") from exc
    raise ConfigError(f"unknown preset or missing file '{path_or_preset}'; "
                      f"presets: {sorted(PRESETS)}")


def load_config(path_or_preset: str, overrides: dict | None = None) -> ScenarioConfig:
    """A preset's or a file's config, built once, each {dotted field: value} of
    ``overrides`` merged into its data first; a section that is not an object
    keeps its error, and a file's own ``scenario`` must still name one."""
    data = load_data(path_or_preset)
    if isinstance(data, dict):
        _check_scenario(data.get("scenario", ScenarioConfig.scenario))
        for dotted, value in (overrides or {}).items():
            *section, name = dotted.split(".")
            target = data.setdefault(section[0], {}) if section else data
            if isinstance(target, dict):
                target[name] = value
    return config_from_dict(data)
