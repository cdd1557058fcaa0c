"""The outputs of a fixed check set, pinned against ``tests/golden/outputs.json``.

Each case runs ``cli.main`` in-process at seeds 11 and 12345 and compares
what it wrote with the file: every scan CSV cell, every 100th row of
``xcorr.csv`` and every summary number within 1e-9 relative (FFT rounding
across platforms is about 1e-12; a changed random-number stream moves values
by O(1)), every string and boolean exactly.  The version strings describe
the installation, not the run, and are skipped.

A change that moves the outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the old and new values in CHANGES.md.  The test never writes it.
"""

import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
import tempfile

import pytest

from fastlight.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "outputs.json")
SEEDS = (11, 12345)
CASES = {
    "xcorr-fig4-advance": ["xcorr", "--preset", "fig4-advance", "--traces", "3"],
    **{f"{command}-fig2-line-jobs{jobs}": [command, "--preset", "fig2-line",
                                           "--traces", "2", "--jobs", str(jobs)]
       for command in ("line-scan", "delay-scan") for jobs in (1, 2)},
    "line-scan-coherent-ref": ["line-scan", "--preset", "coherent-ref"],
    "selftest": ["selftest"],
}
_SKIPPED = ("fastlight_version", "numpy_version")
# Rows kept of a CSV: every row of a scan, every 100th lag of a correlation.
_ROW_STEP = {"xcorr.csv": 100}


def _reduce(out_dir: str) -> dict:
    """{file name: what is compared of it} for every file a run wrote."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), newline="") as fh:
            if name.endswith(".json"):
                files[name] = {k: v for k, v in json.load(fh).items() if k not in _SKIPPED}
                continue
            header, *rows = csv.reader(fh)
        files[name] = {"header": header, "row_count": len(rows),
                       "rows": [[float(v) for v in row]
                                for row in rows[::_ROW_STEP.get(name, 1)]]}
    return files


def run_case(case: str, seed: int) -> dict:
    """The reduced outputs of one case at one seed."""
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        out = os.path.join(work, "o")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*CASES[case], "--seed", str(seed), "--out-dir", out])
        finally:
            gc.unfreeze()
        assert code == 0, (case, seed)
        return _reduce(out)


def _mismatches(expected, actual, where: str) -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for key in expected
                for m in _mismatches(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} entries != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        same = math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0)
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{where}: expected {expected!r}, got {actual!r}"]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_golden_file(golden, case, seed):
    key = f"{case}@{seed}"
    assert _mismatches(golden[key], run_case(case, seed), key)[:10] == []


if __name__ == "__main__":
    data = {f"{case}@{seed}": run_case(case, seed) for case in CASES for seed in SEEDS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)
