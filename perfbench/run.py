"""fastlight benchmark: end-to-end timings of the CLI, and a traced run for
per-layer costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  Each workload is a closed loop: one `fastlight` invocation at a
time, started from this process, repeated until `--seconds` is used up (at
least MIN_INVOCATIONS times).  Every invocation uses the same program seed,
`--seed` itself, so each must reproduce the first one's outputs byte for byte.
Metrics are medians over the invocations of the run.  The last line of
standard output is the result as JSON; the lines before it are a readable
report with quartiles and sample counts, the output-check failures and the
environment.

`--trace 0` measures untraced invocations and reports the end-to-end metrics.
`--trace 1` cycles through an untraced invocation at the workload's `--jobs`,
an untraced one at `--jobs 1` and a traced one at `--jobs 1`, and reports the
per-layer metrics.  `--workload all` runs every workload in turn.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import check
import perlayer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENTRY = os.path.join(HERE, "entry.py")
WORK = os.path.join(ROOT, ".perfbench-work")

MIN_INVOCATIONS = 3
# An invocation still running this long after the benchmark started is killed
# and counted as failed, so that the benchmark exits within 180 s.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One `fastlight` subcommand at its preset trace length.

    `traces` is reduced from the preset; `samples` stays None (the preset
    length) except in the smoke test.
    """

    args: tuple[str, ...]
    traces: int
    jobs: int
    samples: int | None = None

    @property
    def scenario(self) -> str:
        return self.args[0]


WORKLOADS = {
    # The paper's headline chain: one point, 2^20 samples, single process;
    # set-up carries the advance-preset solve.  Three traces keep the
    # criterion-6 gate (|delta_t - predicted| <= 2 ns) several standard
    # errors away: one trace misses it for about one seed in forty.
    "xcorr-advance": Workload(("xcorr", "--preset", "fig4-advance"), traces=3, jobs=1),
    # Noise-only path over 25 points at 2^18 samples through the pool: never
    # band-filters or correlates, never solves the advance preset.
    "line-scan": Workload(("line-scan", "--preset", "fig2-line"), traces=1, jobs=2),
    # Four band-filtered correlations per short trace over 25 points through
    # the pool, where BLAS threads contend with the second worker.
    "delay-scan": Workload(("delay-scan", "--preset", "fig2-line"), traces=1, jobs=2),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "traces_per_s": "traces/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


_TIMED = {"config_ready", "points", "traces", "run_start", "run_end"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    jobs: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    record: dict
    errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def completed(self) -> bool:
        """Exited 0 with a full timing record; its timings count even when
        the output check failed it."""
        return _TIMED <= self.record.keys()

    def metrics(self) -> dict[str, float]:
        r = self.record
        run_s = r["run_end"] - r["run_start"]
        return {
            "wall_s": self.wall_s,
            "setup_s": r["config_ready"] - r["spawned"],
            "run_s": run_s,
            "traces_per_s": r["points"] * r["traces"] / run_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
        }


class Session:
    """The invocations of one workload and seed, with the first outputs as
    the byte-identity reference."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, started: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = started
        self.invocations: list[Invocation] = []
        self.reference: dict[str, bytes] | None = None

    def invoke(self, jobs: int, traced: bool) -> Invocation:
        w = self.workload
        tag = f"inv{len(self.invocations)}"
        out_dir = os.path.join(self.work_dir, tag)
        record_path = os.path.join(self.work_dir, tag + ".json")
        stderr_path = os.path.join(self.work_dir, tag + ".stderr")
        argv = [sys.executable, ENTRY, SRC, record_path, "1" if traced else "0", "--",
                *w.args, "--seed", str(self.seed), "--traces", str(w.traces),
                "--jobs", str(jobs), "--out-dir", out_dir]
        if w.samples is not None:
            argv += ["--samples", str(w.samples)]
        with open(stderr_path, "wb") as err:
            spawned = _now()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(max(HARD_LIMIT_S - (spawned - self.started), 1.0),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 reports the CPU time and peak RSS of the whole tree:
                # pool workers are reaped by the CLI process before it exits.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _wait_for_group(proc.pid)

        record = {}
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
        record["spawned"] = spawned
        outputs = check.read_outputs(w.scenario, out_dir)
        errors = check.check_outputs(w.scenario, proc.returncode, outputs, self.reference,
                                     record.get("detunings_hz", []))
        if not errors and not _TIMED <= record.keys():
            errors.append("the invocation left no timing record")
        if errors:
            with open(stderr_path, errors="replace") as fh:
                tail = fh.read()[-2000:].strip()
            if tail:
                errors.append("stderr: " + tail)
        if self.reference is None and len(outputs) == len(check.OUTPUTS[w.scenario]):
            self.reference = outputs
        shutil.rmtree(out_dir, ignore_errors=True)
        inv = Invocation(jobs, traced, ended - spawned,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                         record, errors)
        self.invocations.append(inv)
        return inv


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_for_group(pgid: int):
    """Kill and wait out any process left in the invocation's group."""
    _kill_group(pgid)
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure(session: Session, seconds: float, trace: bool):
    """Closed loop of invocations until `seconds` is used up."""
    w = session.workload
    if trace:
        cycle = [(1, False), (1, True)]
        if w.jobs != 1:
            cycle.insert(0, (w.jobs, False))
    else:
        cycle = [(w.jobs, False)]
    deadline = session.started + seconds
    done = 0
    while True:
        t0 = _now()
        for jobs, traced in cycle:
            session.invoke(jobs, traced)
        done += 1
        cycle_s = _now() - t0
        later = _now() + cycle_s
        if later > session.started + HARD_LIMIT_S:
            break
        if later > deadline and done * len(cycle) >= MIN_INVOCATIONS:
            break


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(session: Session) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END}
    for inv in session.invocations:
        if inv.completed:
            for name, value in inv.metrics().items():
                samples[name].append(value)
    return samples


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "fastlight")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, int, int]:
    """Measure one workload; print its report.  Returns (metrics, attempted, failed)."""
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    session = Session(workload, seed, work_dir, _now())
    try:
        measure(session, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    invocations = session.invocations
    failed = sum(not inv.ok for inv in invocations)
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(invocations)} invocations, "
          f"{failed} failed, failed_frac {failed / len(invocations):.4f} ratio")
    for i, inv in enumerate(invocations):
        for error in inv.errors:
            print(f"  invocation {i} (jobs {inv.jobs}, traced {inv.traced}) failed: {error}")

    if not trace:
        samples = end_to_end(session)
        print(f"  {'metric':<14}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
        metrics = {}
        for metric, unit in END_TO_END.items():
            values = samples[metric]
            if values:
                q1, med, q3 = _quartiles(values)
                print(f"  {metric:<14}{unit:<10}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                      f"{len(values):>4}")
            metrics[metric] = {"value": statistics.median(values) if values else None,
                               "unit": unit}
        return metrics, len(invocations), failed

    good = [inv for inv in invocations if inv.completed]
    traced = [inv.record for inv in good if inv.traced]
    serial = [inv.metrics()["run_s"] for inv in good if not inv.traced and inv.jobs == 1]
    scaled = [inv.metrics()["run_s"] for inv in good
              if not inv.traced and inv.jobs == workload.jobs]
    units = perlayer.metric_units()
    if not (traced and serial and scaled):
        return ({m: {"value": None, "unit": u} for m, u in units.items()},
                len(invocations), failed)
    values = perlayer.per_layer(traced, serial, scaled, workload.jobs)
    repeat = [perlayer.counts(r) for r in traced]
    if any(c != repeat[0] for c in repeat):
        print("  warning: call counts differ between traced invocations")
    print(f"  per-layer metrics from {len(traced)} traced invocation(s):")
    for metric, unit in units.items():
        print(f"  {metric:<48}{unit:<12}{values[metric]:>14.6g}")
    print("  stage share of traced run_s (ROADMAP's hand-measured fig4-advance split):")
    for stage, pct, roadmap in perlayer.stage_split(traced):
        print(f"  {stage:<16}{pct:>7.1f} %   ({roadmap} %)")
    return ({m: {"value": values[m], "unit": u} for m, u in units.items()},
            len(invocations), failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "fastlight", "cli.py")):
        print(f"no fastlight sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
