"""Run one `fastlight` CLI invocation and record where its time went.

    python3 perfbench/entry.py SRC_DIR RECORD_JSON TRACE -- <fastlight args>

This is what the `fastlight` console script does (import `fastlight.cli`,
call `main`), plus two timestamps taken at the CLI's own boundaries: when
`_resolve_config` has returned the resolved `ScenarioConfig`, and around the
`run_scenario` call.  Neither adds per-trace work.  With TRACE = 1 the layer
functions are wrapped by `tracer.Tracer` as well.  Timestamps are
CLOCK_MONOTONIC, which the parent benchmark process shares, so set-up time
can be counted from the moment the parent started this process.  The record
is written to RECORD_JSON, never into the scenario's output directory.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    src, record_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    record = {"import_start": _now()}
    import fastlight.cli as cli
    record["import_end"] = _now()

    package_dir = os.path.dirname(os.path.realpath(cli.__file__))
    if os.path.commonpath([package_dir, os.path.realpath(src)]) != os.path.realpath(src):
        print(f"fastlight was imported from {package_dir}, not from {src}", file=sys.stderr)
        return 4

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    resolve, run = cli._resolve_config, cli.run_scenario

    def timed_resolve(args):
        cfg = resolve(args)
        record["config_ready"] = _now()
        record["detunings_hz"] = list(cfg.detunings_hz)
        record["points"] = len(cfg.detunings_hz) if cfg.scenario.endswith("-scan") else 1
        record["traces"] = cfg.sampling.traces
        return cfg

    def timed_run(cfg):
        record["run_start"] = _now()
        try:
            return run(cfg)
        finally:
            record["run_end"] = _now()

    cli._resolve_config, cli.run_scenario = timed_resolve, timed_run
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            record.update(tracer.dump())
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
