"""In-process span recorder for one traced `fastlight` invocation.

`Tracer.install()` replaces the public functions of the fastlight layer
modules, wherever a fastlight module holds a reference to them, with wrappers
that record one span per call: label, start, end, parent span and the trace id
(point, trace).  It also counts `numpy.fft.rfft`/`irfft` calls and the bytes
of their input and output arrays.  Nothing under `src/` changes; the wrappers
exist only in the traced process.  Spans stay in memory until `dump()`.

The trace id is derived from the call sequence: a point starts at each
per-point scenario routine, and a trace starts at each `synth_twin_traces`
call.  Traced runs use one process (`--jobs 1`), so the sequence is the
execution order.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("dispersion", "twinbeam", "amplifier", "simulate", "analysis",
          "predict", "config", "scenario")
ROOT = "scenario.run_scenario"
POINT = "scenario.point"
# Per-point routines of fastlight.scenario; the outermost one opens a point span.
_POINT_FUNCTIONS = ("_noise_point_worker", "_correlation_point_worker",
                    "_measure_noise_point", "_measure_correlation_point")
_TRACE_START = "simulate.synth_twin_traces"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        # Each span: [label, start, end, parent index or -1, point, trace].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._point = -1
        self._trace = -1
        self._in_point = False
        self._in_run = False
        self.fft_calls = 0
        self.fft_bytes = 0

    def _span(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label == _TRACE_START:
                self._trace += 1
            parent = self._stack[-1] if self._stack else -1
            span = [label, 0.0, 0.0, parent, self._point, self._trace]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if label == ROOT:
                self._in_run = True
            span[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _now()
                self._stack.pop()
                if label == ROOT:
                    self._in_run = False
        return wrapper

    def _point_span(self, fn):
        traced = self._span(POINT, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_point:
                return fn(*args, **kwargs)
            self._in_point = True
            self._point += 1
            self._trace = -1
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_point = False
        return wrapper

    def _fft_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._in_run:
                self.fft_calls += 1
                self.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out
        return wrapper

    def install(self):
        """Wrap every public function of the layer modules in every fastlight
        namespace that refers to it, plus the scenario's per-point routines
        and numpy's real FFTs."""
        import numpy.fft
        import fastlight.scenario

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fastlight.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._span(f"{layer}.{name}", obj)
        for name in _POINT_FUNCTIONS:
            obj = getattr(fastlight.scenario, name)
            wrappers[obj] = self._point_span(obj)
        for name, module in list(sys.modules.items()):
            if name == "fastlight" or name.startswith("fastlight."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        numpy.fft.rfft = self._fft_counter(numpy.fft.rfft)
        numpy.fft.irfft = self._fft_counter(numpy.fft.irfft)

    def dump(self) -> dict:
        return {"spans": self.spans, "fft_calls": self.fft_calls,
                "fft_bytes": self.fft_bytes}
