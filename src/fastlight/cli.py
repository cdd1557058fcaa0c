"""Command-line entry point.

One subcommand per scenario (line-scan, delay-scan, xcorr, selftest); every
subcommand accepts --config/--preset plus overrides for seed, output
directory and sample rate, and every one but selftest, whose sizes are
fixed, also for trace count, trace length and parallelism.  The subcommand,
as the config's scenario, and the overrides given are merged into the
preset's or file's data, and the config is built and checked once from that.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import os

# The package makes no BLAS call, so an OpenBLAS thread pool only costs
# start-up CPU (60-80 ms per process on 2 cores) taken from the run and its
# forked scan workers.  Set before numpy loads; an exported value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .config import PRESETS, ScenarioConfig, load_config
from .errors import ConfigError
from .scenario import run_scenario

_DEFAULT_PRESET = {
    "line-scan": "fig2-line",
    "delay-scan": "fig2-line",
    "xcorr": "fig4-advance",
    "selftest": "fig2-line",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastlight",
        description="Simulate fast-light propagation of quantum-correlated twin "
                    "beams and the associated noise/delay measurements.")
    parser.add_argument("--version", action="store_true",
                        help="print version information and exit")
    sub = parser.add_subparsers(dest="scenario")
    for name, help_text in (
            ("line-scan", "scan the gain line: gain, group index and difference noise"),
            ("delay-scan", "scan detunings: correlation delay and band squeezing"),
            ("xcorr", "reference vs propagated cross-correlation at one offset"),
            ("selftest", "run the built-in consistency battery")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON scenario configuration")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help=f"built-in preset (default: {_DEFAULT_PRESET[name]})")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out-dir", help="output directory override")
        p.add_argument("--rate", type=float, help="sample rate override, Hz")
        if name == "selftest":
            continue
        p.add_argument("--traces", type=int, help="traces per scan point override")
        p.add_argument("--samples", type=int, help="samples per trace override")
        p.add_argument("--jobs", type=int, help="parallel workers across scan points")
    return parser


def _resolve_config(args) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    # selftest registers no --traces, --samples or --jobs.
    flags = {"scenario": args.scenario, "seed": args.seed, "out_dir": args.out_dir,
             "jobs": getattr(args, "jobs", None), "sampling.rate_hz": args.rate,
             "sampling.traces": getattr(args, "traces", None),
             "sampling.samples": getattr(args, "samples", None)}
    return load_config(args.config or args.preset or _DEFAULT_PRESET[args.scenario],
                       {name: value for name, value in flags.items() if value is not None})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(f"fastlight {__version__} (numpy {np.__version__})")
        return 0
    if args.scenario is None:
        parser.print_help()
        return 2
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # Freeze what is loaded, the config included: exit then skips tearing it
    # down, and forked scan workers' collections leave its pages shared.
    gc.freeze()
    try:
        summary = run_scenario(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if cfg.scenario == "selftest" and not summary.get("all_passed", False):
        print("selftest failed", file=sys.stderr)
        return 3
    print(f"wrote {cfg.scenario} outputs to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
