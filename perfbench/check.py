"""Output check for one `fastlight` invocation; its failures feed `failed_frac`.

An invocation fails when any of these hold:
- its exit code is not 0;
- an expected output file is missing;
- a CSV or `summary.json` number is non-finite;
- its outputs are not byte-identical to the first invocation of the same
  workload and seed in this benchmark process (acceptance criterion 10);
- the scan CSV does not have one row per configured detuning, in order;
- for `xcorr`, |delta_t_s - predicted_delta_t_s| exceeds 2 ns (criterion 6),
  or band_squeezing_db is not below 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

OUTPUTS = {
    "line-scan": ("line_scan.csv", "summary.json"),
    "delay-scan": ("delay_scan.csv", "summary.json"),
    "xcorr": ("xcorr.csv", "summary.json"),
}
ADVANCE_TOLERANCE_S = 2e-9


def read_outputs(scenario: str, out_dir: str) -> dict[str, bytes]:
    """The expected output files that exist, as bytes."""
    found = {}
    for name in OUTPUTS[scenario]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[name] = fh.read()
    return found


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _check_finite_json(value, where: str) -> list[str]:
    if isinstance(value, dict):
        return [e for k, v in value.items() for e in _check_finite_json(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [e for i, v in enumerate(value) for e in _check_finite_json(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is non-finite"]
    return []


def check_outputs(scenario: str, returncode: int, outputs: dict[str, bytes],
                  reference: dict[str, bytes] | None,
                  detunings_hz: list[float]) -> list[str]:
    """Every reason the invocation fails the check; empty when it passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    errors = [f"missing {name}" for name in OUTPUTS[scenario] if name not in outputs]
    if errors:
        return errors
    csv_name, json_name = OUTPUTS[scenario]

    rows = list(csv.DictReader(io.StringIO(outputs[csv_name].decode())))
    for i, row in enumerate(rows):
        for column, text in row.items():
            try:
                number = float(text)
            except (TypeError, ValueError):
                errors.append(f"{csv_name} row {i} {column}: not a number: {text!r}")
                continue
            if not math.isfinite(number):
                errors.append(f"{csv_name} row {i} {column} is non-finite")
    if not rows:
        errors.append(f"{csv_name} has no rows")

    try:
        summary = json.loads(outputs[json_name], parse_constant=_reject_constant)
    except ValueError as exc:
        return errors + [f"{json_name}: {exc}"]
    errors += _check_finite_json(summary, json_name)

    if reference is not None:
        errors += [f"{name} differs from the first invocation"
                   for name in OUTPUTS[scenario] if outputs[name] != reference.get(name)]

    if scenario in ("line-scan", "delay-scan"):
        try:
            got = [float(row["detuning_hz"]) for row in rows]
        except (KeyError, TypeError, ValueError):
            got = None
        if got != [float(d) for d in detunings_hz]:
            errors.append(f"{csv_name} rows do not match the {len(detunings_hz)} "
                          "configured detunings in order")
    else:
        try:
            miss = abs(summary["delta_t_s"] - summary["predicted_delta_t_s"])
            squeezing = summary["band_squeezing_db"]
        except (KeyError, TypeError) as exc:
            return errors + [f"{json_name} lacks {exc}"]
        if not miss <= ADVANCE_TOLERANCE_S:
            errors.append(f"|delta_t_s - predicted_delta_t_s| = {miss:.3e} s exceeds 2 ns")
        if not squeezing < 0.0:
            errors.append(f"band_squeezing_db = {squeezing} is not below 0")
    return errors
