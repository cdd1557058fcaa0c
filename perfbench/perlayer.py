"""Per-layer metrics from the records of traced invocations.

A span's self time is its duration minus the time its child spans cover.
Spans that start before `run_scenario` belong to set-up; the rest belong to
the run and are divided by the run's trace count (points x traces per point).
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, POINT

# Span labels reported as `<label>.ms`, the median duration per call, and
# `<label>.calls`, the run-phase calls per trace unless noted below.
CALLS = (
    "simulate.synth_twin_traces", "simulate.propagate_channel",
    "simulate.apply_detection", "simulate.shot_reference",
    "simulate.difference", "simulate.build_targets",
    "analysis.band_filter", "analysis.cross_correlation", "analysis.psd",
    "analysis.snu_normalize", "analysis.band_squeezing_db", "analysis.peak_delay",
    "predict.predicted_correlation_shift", "predict.predicted_difference_noise_snu",
    "twinbeam.seeded_stats", "twinbeam.gain_for_squeezing",
    "amplifier.difference_noise_after_channel",
)
# Counted in set-up, per process: the brentq iterations of the preset solve.
SETUP_CALLS = ("predict.predicted_correlation_shift",)
# Counted per scan point: the config re-parse in each worker.
POINT_CALLS = ("config.config_from_dict",)

# Stage -> span label, with the split ROADMAP measured by hand for one
# 2^20-sample fig4-advance trace, in percent of the trace's time.
STAGES = (
    ("band filter", "analysis.band_filter", 23),
    ("channel", "simulate.propagate_channel", 16),
    ("Welch", "analysis.psd", 15),
    ("correlation", "analysis.cross_correlation", 15),
    ("synthesis", "simulate.synth_twin_traces", 13),
    ("detection", "simulate.apply_detection", 10),
    ("shot reference", "simulate.shot_reference", 4),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label in CALLS:
        units[f"{label}.ms"] = "ms"
        units[f"{label}.calls"] = "calls/proc" if label in SETUP_CALLS else "calls/trace"
    for label in POINT_CALLS:
        units[f"{label}.calls"] = "calls/point"
    for layer in LAYERS:
        units[f"{layer}.self_ms_per_trace"] = "ms/trace"
    units.update({
        "config.load_config.s": "s",
        "scenario.par_eff": "ratio",
        "cli.import_s": "s",
        "fft.calls_per_trace": "calls/trace",
        "fft.bytes_per_trace": "B/trace",
        "trace.overhead_pct": "%",
        "trace.self_sum_pct": "%",
    })
    return units


def _durations(record: dict) -> tuple[list, list[float]]:
    spans = record["spans"]
    self_time = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    return spans, self_time


def counts(record: dict) -> dict[str, float]:
    """Call counts of one traced invocation; they must repeat exactly."""
    spans = record["spans"]
    run_start = record["run_start"]
    points = record["points"]
    traces = points * record["traces"]
    run_calls: dict[str, int] = {}
    setup_calls: dict[str, int] = {}
    for label, start, _, _, _, _ in spans:
        calls = run_calls if start >= run_start else setup_calls
        calls[label] = calls.get(label, 0) + 1
    out = {}
    for label in CALLS:
        if label in SETUP_CALLS:
            out[f"{label}.calls"] = float(setup_calls.get(label, 0))
        else:
            out[f"{label}.calls"] = run_calls.get(label, 0) / traces
    for label in POINT_CALLS:
        out[f"{label}.calls"] = run_calls.get(label, 0) / points
    out["fft.calls_per_trace"] = record["fft_calls"] / traces
    out["fft.bytes_per_trace"] = record["fft_bytes"] / traces
    return out


def per_layer(traced: list[dict], untraced_serial_run_s: list[float],
              untraced_run_s: list[float], jobs: int) -> dict[str, float]:
    """Per-layer metrics pooled over the traced invocations.

    untraced_serial_run_s: run_s of untraced `--jobs 1` invocations, the base
    of the tracing overhead.  untraced_run_s and jobs: run_s of untraced
    invocations at the workload's own `--jobs`, the base of par_eff.
    """
    per_call: dict[str, list[float]] = {}
    layer_self = {layer: [] for layer in LAYERS}
    load_config, import_s, busy, run_s, self_sum_pct = [], [], [], [], []
    for record in traced:
        spans, self_time = _durations(record)
        run_start, run_end = record["run_start"], record["run_end"]
        traces = record["points"] * record["traces"]
        totals = dict.fromkeys(LAYERS, 0.0)
        for (label, start, end, _, _, _), own in zip(spans, self_time):
            per_call.setdefault(label, []).append(1e3 * (end - start))
            if label == "config.load_config":
                load_config.append(end - start)
            if start >= run_start:
                totals[label.split(".")[0]] += own
                if label == POINT:
                    busy.append(end - start)
        for layer in LAYERS:
            layer_self[layer].append(1e3 * totals[layer] / traces)
        run_s.append(run_end - run_start)
        self_sum_pct.append(100.0 * sum(totals.values()) / (run_end - run_start))
        import_s.append(record["import_end"] - record["import_start"])

    out: dict[str, float] = {}
    for label in CALLS:
        out[f"{label}.ms"] = statistics.median(per_call[label]) if label in per_call else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_trace"] = statistics.median(layer_self[layer])
    out.update(counts(traced[0]))
    out["config.load_config.s"] = statistics.median(load_config)
    out["scenario.par_eff"] = (sum(busy) / len(traced)) / (jobs * statistics.median(untraced_run_s))
    out["cli.import_s"] = statistics.median(import_s)
    base = statistics.median(untraced_serial_run_s)
    out["trace.overhead_pct"] = 100.0 * (statistics.median(run_s) - base) / base
    out["trace.self_sum_pct"] = statistics.median(self_sum_pct)
    return {name: out[name] for name in metric_units()}


def stage_split(traced: list[dict]) -> list[tuple[str, float, int]]:
    """Share of traced run time per measurement stage, in percent, next to
    ROADMAP's hand-measured share."""
    shares = []
    for stage, label, roadmap_pct in STAGES:
        pct = []
        for record in traced:
            run_start, run_end = record["run_start"], record["run_end"]
            inside = sum(end - start for name, start, end, _, _, _ in record["spans"]
                         if name == label and start >= run_start)
            pct.append(100.0 * inside / (run_end - run_start))
        shares.append((stage, statistics.median(pct), roadmap_pct))
    return shares
