"""The configuration contract over mutated preset configs, run in-process
through ``cli.main`` at 2^12 samples and one trace.  Each mutation deletes a
field, gives it the wrong type, makes it non-finite or pushes it out of
range; each end of each bound in ``config.BOUNDS`` is also pushed just past
itself on every base.  Every run must end one of three ways:

* exit 2, with the field named and no file written;
* exit 0, with finite outputs and an empty stderr;
* exit 3, for a runtime condition that README documents.
"""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.cli import main
from fastlight.config import BOUNDS, PRESETS

# (preset, command): each runs at 2^12 samples and one trace as it stands.
_BASES = [("fig2-line", "line-scan"), ("fig2-line", "delay-scan"),
          ("fig4-advance", "xcorr"), ("coherent-ref", "line-scan")]
# What README documents as runtime errors (exit 3): a correlation curve with
# no unique peak or no width, a scan worker that ends without its report and
# a non-finite number refused by a writer.
_DOCUMENTED_RUNTIME = ("correlation peak degenerate", "is undefined",
                       "before reporting its points", "not written to")
_WRONG_TYPES = [None, "1", True, [1.0], {"value": 1.0}]
_NON_FINITE = [float("nan"), float("inf"), -float("inf"), 10 ** 400]
_SCALES = [-1.0, 0.0, 1e-300, 1e-30, 1e-3, 3.0, 1e3, 1e30, 1e300]


def _past(end, step: int):
    """The value just past a bound's end, on the side ``step`` points to."""
    return end + step if isinstance(end, int) else math.nextafter(end, step * math.inf)


# (field, value) just past each finite end of each bound.
_PAST_BOUNDS = [(dotted, _past(end, step)) for dotted, (low, high) in BOUNDS.items()
                for end, step in ((low, -1), (high, 1)) if math.isfinite(end)]
# The size fields take only values that are refused or cheap, and are pushed
# past their bounds, never onto them: no mutation may ask for a long trace,
# many traces or many workers.
_SIZES = {"sampling.samples": [3, 4095, -4096, 1 << 40],
          "sampling.traces": [-1, 2, 1 << 60],
          "jobs": [-1, 2, 3, 10 ** 6]}


def _base(preset: str, command: str, out_dir: str) -> dict:
    """The preset as a config dict for the command, at 2^12 samples, one
    trace, a lag window that fits them and at most three detunings."""
    cfg = PRESETS[preset]().to_dict()
    cfg.update(scenario=command, out_dir=out_dir, max_lag_s=2e-7,
               detunings_hz=cfg["detunings_hz"][::12][:3],
               sampling={**cfg["sampling"], "samples": 1 << 12, "traces": 1})
    return cfg


def _paths(cfg: dict) -> list[str]:
    """The dotted path of every field and section but out_dir, whose
    mutations would write outside the run's directory."""
    out = []
    for key, value in cfg.items():
        if key != "out_dir":
            out.append(key)
        if isinstance(value, dict):
            out += [f"{key}.{name}" for name in value]
    return out


def _get(cfg: dict, dotted: str):
    """(the dict that holds the field, its key)."""
    *section, name = dotted.split(".")
    return (cfg[section[0]] if section else cfg), name


def _mutations(dotted: str, value) -> list:
    """("delete", None) and ("set", v) for every value tried on a field."""
    if dotted in _SIZES:
        values = _SIZES[dotted]
    elif isinstance(value, bool):
        values = [not value]
    elif isinstance(value, int):
        values = [-value, 0, 3 * value, value * 10 ** 30, 1.5, *_NON_FINITE]
    elif isinstance(value, float):
        values = [*(value * s for s in _SCALES), *_SCALES, *_NON_FINITE]
    elif value is None:
        values = [*_SCALES, *_NON_FINITE]
    elif isinstance(value, list):
        values = [[*value[:-1], v] for v in _NON_FINITE]
        values += [[v * s for v in value] for s in _SCALES]
        values += [value[::-1], value[:1]]
    else:  # a string or a section
        values = []
    values = [*values, *(v for name, v in _PAST_BOUNDS if name == dotted)]
    return [("delete", None)] + [("set", v) for v in (*_WRONG_TYPES, *values)]


def _names(err: str, dotted: str) -> bool:
    """The error names the field, its section or a field of its section, or,
    for a deterministic column that is not finite, its row or its section
    among those the column reads."""
    section = dotted.split(".")[0]
    if any(name in err for name in (f"'{dotted}'", f"'{section}'", f"'{section}.",
                                    f" at {dotted} ")):
        return True
    reads = err.partition("check the config's ")[2].strip()
    return section in re.split(r", | and ", reads)


def _finite_outputs(out: str) -> bool:
    def refuse(constant):
        raise ValueError(constant)

    for name in os.listdir(out):
        with open(os.path.join(out, name)) as fh:
            if name.endswith(".json"):
                json.load(fh, parse_constant=refuse)
            elif not all(math.isfinite(float(v)) for row in list(csv.reader(fh))[1:]
                         for v in row):
                return False
    return True


def _outcome(preset: str, command: str, dotted: str, mutation) -> tuple[int, str | None, str]:
    """Run the mutated config: its exit code; None if the run ends one of the
    three allowed ways, else what went wrong; and its stderr."""
    with tempfile.TemporaryDirectory(prefix="mutated-") as work:
        out = os.path.join(work, "o")
        cfg = _base(preset, command, out)
        section, name = _get(cfg, dotted)
        kind, value = mutation
        if kind == "delete":
            del section[name]
        else:
            section[name] = value
        path = os.path.join(work, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", path])
        finally:
            gc.unfreeze()
        err = stderr.getvalue()
        files = os.listdir(out) if os.path.isdir(out) else []
        if code == 2:
            if "configuration error" not in err or not _names(err, dotted):
                return code, f"exit 2 without naming {dotted}: {err!r}", err
            return code, f"exit 2 wrote {files}" if files else None, err
        if code == 0:
            if err:
                return code, f"exit 0 with stderr {err!r}", err
            ok = files and _finite_outputs(out)
            return code, None if ok else f"exit 0 wrote {files}", err
        if code == 3 and any(text in err for text in _DOCUMENTED_RUNTIME):
            return code, None, err
        return code, f"exit {code}: {err!r}", err


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_preset_configs_end_in_an_allowed_way(data):
    preset, command = data.draw(st.sampled_from(_BASES), label="base")
    cfg = _base(preset, command, "o")
    dotted = data.draw(st.sampled_from(_paths(cfg)), label="field")
    section, name = _get(cfg, dotted)
    mutation = data.draw(st.sampled_from(_mutations(dotted, section[name])), label="mutation")
    assert _outcome(preset, command, dotted, mutation)[1] is None


# Cases the property found, each an exit 2 that names the field now.  A
# correlated band without a bin and a carrier below the sample rate exited 3
# after their draws; the others exited 2 naming only another field of the
# check (the rate in a band's, the noise band's or the lag window's), or no
# field at all.
_FOUND = [
    ("fig2-line", "delay-scan", "fullband_hz", [10.0, 20000.0]),
    ("fig2-line", "delay-scan", "line.wavelength_nm", 1e30),
    ("fig2-line", "delay-scan", "line.wavelength_nm", 1e300),
    ("fig2-line", "line-scan", "sampling.rate_hz", 1000.0),
    ("coherent-ref", "line-scan", "sampling.rate_hz", 7.5e9),
    ("fig4-advance", "xcorr", "sampling.rate_hz", 7.5e9),
    ("fig4-advance", "xcorr", "max_lag_s", 2.5e-9),
    ("fig2-line", "line-scan", "scenario", "1"),
]


@pytest.mark.parametrize("preset, command, dotted, value", _FOUND,
                         ids=[f"{c[1]}-{c[2]}-{c[3]}" for c in _FOUND])
def test_found_mutation_exits_2_naming_the_field(preset, command, dotted, value):
    assert _outcome(preset, command, dotted, ("set", value))[:2] == (2, None)


@pytest.mark.parametrize("dotted, value", _PAST_BOUNDS,
                         ids=[f"{dotted}-{value!r}" for dotted, value in _PAST_BOUNDS])
def test_value_just_past_a_bound_exits_2_naming_the_bound(dotted, value):
    for preset, command in _BASES:
        code, problem, err = _outcome(preset, command, dotted, ("set", value))
        assert (code, problem) == (2, None), (preset, command)
        assert f"field '{dotted}' must lie in [" in err, (preset, command, err)
