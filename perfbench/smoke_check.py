"""Smoke test of the benchmark at the smallest trace length the configs accept.

    python3 perfbench/smoke_check.py

Kept out of the package's pytest collection on purpose: it starts about
twenty CLI processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import unittest
from dataclasses import replace

import check
import perlayer
import run

# max_lag_s = 2 us at 2.5 GS/s needs at least 8 * 5000 samples.
SMALLEST = 1 << 16
SMALL = {name: replace(w, samples=SMALLEST, traces=1) for name, w in run.WORKLOADS.items()}


def _run_main(argv: list[str]) -> tuple[str, dict]:
    out = io.StringIO()
    saved = dict(run.WORKLOADS)
    run.WORKLOADS.update(SMALL)
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        run.WORKLOADS.update(saved)
    assert code == 0, out.getvalue()
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         perlayer.metric_units())

    def test_every_metric_printed_with_unit(self):
        for trace, units in ((0, run.END_TO_END), (1, perlayer.metric_units())):
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    text, result = _run_main(["--workload", name, "--seed", "3",
                                              "--seconds", "0", "--trace", str(trace)])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertRegex(text, r"failed_frac \d\.\d{4} ratio")
                    # One 2^16-sample trace is too short for the criterion-6
                    # gates that the xcorr check applies; the scans must pass.
                    if name != "xcorr-advance":
                        self.assertTrue(result["correct"], text)
                    self.assertEqual(list(result["metrics"]), list(units))
                    for metric, unit in units.items():
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        self.assertIsInstance(result["metrics"][metric]["value"], float)
                        self.assertRegex(text, rf"\n  {metric}\s+{unit}\s")

    def test_line_scan_identical_under_jobs_1_and_2_and_check_rejects_corruption(self):
        os.makedirs(run.WORK, exist_ok=True)
        work = tempfile.mkdtemp(dir=run.WORK)
        try:
            session = run.Session(SMALL["line-scan"], 5, work, run._now())
            for jobs in (2, 1):
                self.assertEqual(session.invoke(jobs, traced=False).errors, [])
        finally:
            shutil.rmtree(work)
            with contextlib.suppress(OSError):
                os.rmdir(run.WORK)
        good = session.reference
        detunings = session.invocations[0].record["detunings_hz"]

        def errors(outputs, reference=None):
            return check.check_outputs("line-scan", 0, outputs, reference, detunings)

        self.assertEqual(errors(good, good), [])
        lines = good["line_scan.csv"].decode().splitlines(keepends=True)
        first = lines[1].split(",")
        corrupted = {
            "non-finite": lines[:1] + [",".join(first[:-1] + ["nan\n"])] + lines[2:],
            "missing row": lines[:1] + lines[2:],
            "rows out of order": lines[:1] + [lines[2], lines[1]] + lines[3:],
        }
        for what, rows in corrupted.items():
            with self.subTest(corruption=what):
                self.assertNotEqual(errors({**good, "line_scan.csv": "".join(rows).encode()}), [])
        changed = {**good, "line_scan.csv": good["line_scan.csv"] + b"\n"}
        self.assertEqual(errors(changed), [])
        self.assertNotEqual(errors(changed, good), [])
        self.assertNotEqual(errors({"summary.json": good["summary.json"]}), [])
        self.assertNotEqual(check.check_outputs("line-scan", 3, good, None, detunings), [])


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
