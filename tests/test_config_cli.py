import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fastlight
from fastlight.cli import main
from fastlight.config import (_ADVANCE_ANCHOR_HZ, PRESETS, ScenarioConfig,
                              config_from_dict, load_config, preset_coherent_ref,
                              preset_fig2_line, preset_fig4_advance)
from fastlight.analysis import band_response
from fastlight.dispersion import gain_db, intensity_gain, peak_advance
from fastlight.errors import ConfigError, FastlightError, InvalidParameterError
from fastlight.predict import predicted_correlation_shift
from oracles import dense_correlation_shift, format_rows_csv, solve_advance_line


def test_fig2_preset_hits_gain_anchor():
    cfg = preset_fig2_line()
    line = cfg.line.make()
    assert gain_db(line, 0.0) == pytest.approx(7.5, rel=1e-9)
    assert cfg.source.resolved_gain1() == pytest.approx((10 ** 0.25 + 1) / 2, rel=1e-12)
    assert 0.0 in cfg.detunings_hz


def test_fig4_preset_advance_anchor_and_gain():
    cfg = preset_fig4_advance()
    line = cfg.line.make()
    anchor_ns = peak_advance(line, 2 * np.pi * _ADVANCE_ANCHOR_HZ) * 1e9
    assert anchor_ns == pytest.approx(-12.0, abs=0.1)
    gain_op = float(intensity_gain(line, 2 * np.pi * cfg.offset_hz))
    assert gain_op <= 1.25


def test_fig4_preset_constants_are_the_solve():
    """The compiled-in line strength was solved with a 1,600-point trapezoid
    quadrature of the shift (the dense oracle re-derives it below); the
    package's shift on the xcorr run's own plan meets the solve's -12 ns
    target at it within 0.1 ps."""
    from fastlight.config import ADVANCE_TARGET_S
    from fastlight.scenario import _band_plan

    cfg = preset_fig4_advance()
    fs = cfg.sampling.rate_hz
    plan = _band_plan(cfg.sampling.samples, fs, cfg.band_hz, cfg.max_lag_s)
    shift = predicted_correlation_shift(cfg.line.make(), cfg.offset_hz, cfg.source.make(),
                                        plan, fs)
    assert abs(shift - ADVANCE_TARGET_S) < 1e-13


def test_fig4_preset_solve_equals_dense_reference():
    from scipy.optimize import brentq
    peak_db, anchor_hz = solve_advance_line(dense_correlation_shift, brentq)
    assert preset_fig4_advance().line.peak_gain_db == peak_db
    assert _ADVANCE_ANCHOR_HZ == anchor_hz


def _run_python(code: str, check: bool = True, **variables) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fastlight.  Each
    keyword sets that environment variable, or unsets it when None."""
    src = os.path.dirname(os.path.dirname(fastlight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, check=check,
                          capture_output=True, text=True)


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = ("import os, sys, fastlight\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _run_python(code, OPENBLAS_NUM_THREADS=None).stdout.split() == ["False", "None"]


def test_cli_starts_one_openblas_thread_by_default():
    """The package calls no BLAS (pinned below), so the CLI asks OpenBLAS
    for one thread before numpy loads: no pool is started."""
    code = ("import os, fastlight.cli\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task')"
            " else 1\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)")
    assert _run_python(code, OPENBLAS_NUM_THREADS=None).stdout.split() == ["1", "1"]


def test_cli_keeps_an_exported_openblas_thread_count():
    code = "import os, fastlight.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_python(code, OPENBLAS_NUM_THREADS="2").stdout.strip() == "2"


_BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot"}


def test_package_calls_no_blas():
    """No BLAS-backed numpy call and no @ in any package module: the
    premise on which the CLI's single OpenBLAS thread costs nothing."""
    import ast
    import pathlib

    found = []
    for path in sorted(pathlib.Path(fastlight.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.append(f"{where} linalg")
            elif isinstance(node, ast.alias) and "linalg" in node.name.split("."):
                found.append(f"{where} linalg")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."):
                found.append(f"{where} linalg")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _BLAS_CALLS:
                    found.append(f"{where} {name}")
                elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                    found.append(f"{where} einsum(optimize=...)")
    assert found == []


@pytest.mark.parametrize("preset", ["fig2-line", "fig4-advance"])
def test_cli_import_and_preset_skip_signal_and_optimize(preset):
    """Neither the CLI, a preset nor a band-filtered correlation imports any
    scipy module or concurrent.futures, and no preset solves anything: the
    fig4-advance line is compiled in."""
    code = ("import sys, numpy as np, fastlight.cli\n"
            "from fastlight.analysis import correlation_plan, spectral_correlation\n"
            "from fastlight.predict import predicted_correlation_shift as shift\n"
            "calls = []\n"
            "sys.setprofile(lambda frame, event, arg: calls.append(1) if event == 'call'"
            " and frame.f_code is shift.__code__ else None)\n"
            f"fastlight.cli.load_config({preset!r})\n"
            "sys.setprofile(None)\n"
            "x = np.fft.rfft(np.random.default_rng(0).standard_normal(4096))\n"
            "spectral_correlation(x, x, correlation_plan(4096, 1e9, (1e6, 2e8), 1e-7))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.startswith('concurrent.futures')), len(calls))")
    assert _run_python(code).stdout.strip() == "[] 0"


def test_selftest_writes_strict_json_without_scipy_optimize(tmp_path):
    out = tmp_path / "st"
    code = ("import sys\nfrom fastlight.cli import main\n"
            f"code = main(['selftest', '--out-dir', {str(out)!r}])\n"
            "print('scipy.optimize' in sys.modules)\nsys.exit(code)")
    proc = _run_python(code, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"

    def reject(constant):
        raise ValueError(f"selftest.json holds {constant}")

    report = json.loads((out / "selftest.json").read_text(), parse_constant=reject)
    assert report["all_passed"] is True


def test_coherent_preset_is_quiet():
    cfg = preset_coherent_ref()
    assert cfg.source.coherent
    assert cfg.line.make().g == 0.0
    assert cfg.channel.excess_noise_db == 0.0


def test_load_config_unknown_preset():
    with pytest.raises(ConfigError):
        load_config("no-such-preset")


def test_load_config_file_round_trip(tmp_path):
    cfg = preset_fig2_line()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = load_config(str(path))
    assert back == cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field 'lime'"):
        config_from_dict({"scenario": "xcorr", "lime": {}})
    with pytest.raises(ConfigError, match="line.fwhm_mz"):
        config_from_dict({"scenario": "xcorr", "line": {"fwhm_mz": 1.0}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="fwhm_hz"):
        config_from_dict({"scenario": "xcorr", "line": {"fwhm_hz": "wide"}})
    with pytest.raises(ConfigError, match="detunings_hz"):
        config_from_dict({"scenario": "line-scan", "detunings_hz": []})
    with pytest.raises(ConfigError, match="samples"):
        config_from_dict({"scenario": "xcorr", "sampling": {"samples": 1000}})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "warp-scan"})


def test_config_hash_ignores_out_dir():
    a = preset_fig2_line()
    b = config_from_dict({**a.to_dict(), "out_dir": "elsewhere"})
    assert a.config_hash() == b.config_hash()
    c = config_from_dict({**a.to_dict(), "seed": 999})
    assert a.config_hash() != c.config_hash()


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == (f"fastlight {fastlight.__version__} "
                                       f"(numpy {np.__version__})\n")


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "xcorr", "line": {"fwhm_hz": -1}}')
    code = main(["xcorr", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "fwhm" in capsys.readouterr().err


def test_cli_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"scenario": ')
    assert main(["xcorr", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_cli_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"scenario": "xcorr", "seed": "\xff"}')
    assert main(["xcorr", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err
    assert not (tmp_path / "o").exists()


def _tiny_xcorr_args(out_dir, seed=777):
    return ["xcorr", "--preset", "fig4-advance", "--samples", "65536",
            "--traces", "3", "--seed", str(seed), "--out-dir", str(out_dir)]


def test_cli_xcorr_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(_tiny_xcorr_args(out1)) == 0
    assert main(_tiny_xcorr_args(out2)) == 0
    csv1 = (out1 / "xcorr.csv").read_bytes()
    csv2 = (out2 / "xcorr.csv").read_bytes()
    assert csv1 == csv2
    sum1 = (out1 / "summary.json").read_bytes()
    sum2 = (out2 / "summary.json").read_bytes()
    assert sum1 == sum2
    header = csv1.decode().splitlines()[0]
    assert header == "lag_s,c_ref,c_fast"
    summary = json.loads(sum1)
    for key in ("master_seed", "config_sha256", "delta_t_s", "fwhm_ref_s",
                "band_squeezing_db", "fastlight_version", "point_spawn_keys"):
        assert key in summary
    assert summary["master_seed"] == 777


def test_cli_seed_changes_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(_tiny_xcorr_args(out1, seed=1)) == 0
    assert main(_tiny_xcorr_args(out2, seed=2)) == 0
    assert (out1 / "xcorr.csv").read_bytes() != (out2 / "xcorr.csv").read_bytes()


def test_cli_line_scan_rows_match_detunings(tmp_path):
    cfg = preset_fig2_line()
    small = config_from_dict({
        **cfg.to_dict(),
        "detunings_hz": [-10e6, 0.0, 10e6],
        "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 2},
        "out_dir": str(tmp_path / "scan"),
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small.to_dict()))
    assert main(["line-scan", "--config", str(path)]) == 0
    lines = (tmp_path / "scan" / "line_scan.csv").read_text().splitlines()
    assert lines[0] == "detuning_hz,gain_db,predicted_noise_db,simulated_noise_db,group_index"
    assert len(lines) == 1 + 3


def test_cli_delay_scan_with_jobs(tmp_path):
    cfg = preset_fig2_line()
    small = config_from_dict({
        **cfg.to_dict(),
        "scenario": "delay-scan",
        "detunings_hz": [0.0, 13e6],
        "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 2},
        "out_dir": str(tmp_path / "ds"),
        "jobs": 2,
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small.to_dict()))
    assert main(["delay-scan", "--config", str(path)]) == 0
    lines = (tmp_path / "ds" / "delay_scan.csv").read_text().splitlines()
    assert lines[0] == ("detuning_hz,delay_s_fullband,delay_s_band,"
                       "squeezing_db_band,analytic_squeezing_db")
    assert len(lines) == 1 + 2


def _three_point_scan(scenario, tmp_path, **fields):
    cfg = {**preset_fig2_line().to_dict(), "scenario": scenario,
           "detunings_hz": [-6e6, 0.0, 13e6],
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
           "out_dir": str(tmp_path / "o"), **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_scan_pool_has_no_more_workers_than_points():
    """A scan forks min(jobs, points) children and computes no point in the
    parent; one job computes every point in the parent."""
    import fastlight.scenario as scenario

    cfg = replace(preset_fig2_line(), detunings_hz=(0.0, 5e6, 13e6))
    for jobs, want in ((1000, 3), (2, 2), (1, 1)):
        pids = scenario._map_points(lambda cfg, i: os.getpid(), replace(cfg, jobs=jobs))
        assert len(pids) == 3 and len(set(pids)) == want
        assert (os.getpid() in pids) == (jobs == 1)
    assert scenario._map_points(lambda cfg, i: i, replace(cfg, jobs=2)) == [0, 1, 2]


@pytest.fixture
def fresh_chain_heads():
    """A chain head built under a patched kernel would outlive the patch in
    the per-process cache, so the cache is emptied before and after."""
    import fastlight.scenario as scenario

    scenario._chain_head.cache_clear()
    yield
    scenario._chain_head.cache_clear()


def _count_synthesis_factors(monkeypatch, log):
    """Wrap scenario.synthesis_factors so that each call appends its
    process id to the file ``log``; returns the parent's own list of calls."""
    import fastlight.scenario as module

    built = []
    synthesis_factors = module.synthesis_factors

    def counted(*args, **kwargs):
        built.append(args[1])
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return synthesis_factors(*args, **kwargs)

    monkeypatch.setattr(module, "synthesis_factors", counted)
    return built


@pytest.mark.parametrize("scenario", ["line-scan", "delay-scan"])
def test_scan_builds_its_chain_head_once_per_scan(tmp_path, monkeypatch, fresh_chain_heads,
                                                  scenario):
    """At one job a scan's three points share one chain head, so the
    synthesis factors are built once per scan.  The process keeps the head
    of the last config, so a second scan of the same config builds none,
    and a scan of another config builds its own."""
    path = _three_point_scan(scenario, tmp_path)
    built = _count_synthesis_factors(monkeypatch, tmp_path / "built")
    for seed, builds in (("1", 1), ("1", 1), ("2", 2)):
        assert main([scenario, "--config", str(path), "--jobs", "1", "--seed", seed]) == 0
        assert built == [1 << 16] * builds


@pytest.mark.parametrize("scenario", ["line-scan", "delay-scan"])
def test_forked_scan_parent_builds_no_chain_head(tmp_path, monkeypatch, fresh_chain_heads,
                                                 scenario):
    """At two jobs each child builds its own chain head at its first point
    and the parent builds none, so the parent's memory peak stays that of
    the loaded program; at one job the parent builds it once."""
    path = _three_point_scan(scenario, tmp_path)
    log = tmp_path / "built"
    built = _count_synthesis_factors(monkeypatch, log)
    for jobs, parent_builds, child_builds in (("2", 0, 2), ("1", 1, 0)):
        log.write_text("")
        built.clear()
        assert main([scenario, "--config", str(path), "--jobs", jobs]) == 0
        assert len(built) == parent_builds
        children = [pid for pid in log.read_text().split() if pid != str(os.getpid())]
        assert len(children) == len(set(children)) == child_builds


@pytest.mark.parametrize("scenario, file_name", [("line-scan", "line_scan.csv"),
                                                 ("delay-scan", "delay_scan.csv")])
def test_scan_outputs_do_not_depend_on_jobs(tmp_path, scenario, file_name):
    path = _three_point_scan(scenario, tmp_path)
    outputs = []
    for jobs in ("1", "2", "5"):
        out = tmp_path / f"jobs{jobs}"
        assert main([scenario, "--config", str(path), "--jobs", jobs,
                     "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in (file_name, "summary.json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_config_error_in_a_scan_worker_exits_2(tmp_path, capsys):
    """The lag-window check runs in the chain head, which each worker builds
    at its first point, so at two jobs it raises in the forked workers; the
    parent re-raises it with its type."""
    path = _three_point_scan("delay-scan", tmp_path, max_lag_s=5e-8)
    assert main(["delay-scan", "--config", str(path), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "max_lag_s" in err
    assert os.listdir(tmp_path / "o") == []


def test_scan_worker_that_dies_raises_and_is_reaped():
    import fastlight.scenario as scenario

    def worker(cfg, i):
        if i == 1:
            os._exit(1)
        return i

    cfg = replace(preset_fig2_line(), detunings_hz=(0.0, 5e6, 13e6), jobs=3)
    with pytest.raises(FastlightError, match="scan worker 1"):
        scenario._map_points(worker, cfg)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_scan_prints_its_line_once(tmp_path):
    path = _three_point_scan("line-scan", tmp_path)
    code = ("import sys\nfrom fastlight.cli import main\n"
            f"sys.exit(main(['line-scan', '--config', {str(path)!r}, '--jobs', '2']))")
    proc = _run_python(code, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote line-scan outputs to {tmp_path / 'o'}\n"


def test_cli_selftest(tmp_path):
    assert main(["selftest", "--out-dir", str(tmp_path / "st"), "--seed", "4"]) == 0
    report = json.loads((tmp_path / "st" / "selftest.json").read_text())
    assert report["all_passed"] is True
    # The point seeds of the shot-floor, twin and delay checks.
    assert report["point_spawn_keys"] == [101, 102, 103]


@pytest.mark.parametrize("option", ["--samples", "--traces", "--jobs"])
def test_cli_selftest_refuses_size_options(tmp_path, capsys, option):
    """The selftest's sizes are fixed, so it takes no size override."""
    out = tmp_path / "st"
    with pytest.raises(SystemExit) as exited:
        main(["selftest", option, "2", "--out-dir", str(out)])
    assert exited.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def _double_variance(white_spectrum):
    return lambda n, variance, *args, **kwargs: white_spectrum(n, 2.0 * variance,
                                                               *args, **kwargs)


def _double_vacuum(detect_spectrum):
    # The vacuum's variance is (1 - eta) eta mean_flux; nothing else reads the flux.
    return lambda x, eta, mean_flux, *args, **kwargs: detect_spectrum(x, eta, 2.0 * mean_flux,
                                                                      *args, **kwargs)


def _swap_pair(spectral_correlation):
    return lambda x1, x2, plan: spectral_correlation(x2, x1, plan)


def _widen_line(calibrate):
    return lambda peak_db, fwhm_hz, *args: calibrate(peak_db, 1.001 * fwhm_hz, *args)


def _anticorrelate(synthesis_factors):
    def factors(*args, **kwargs):
        sigma_p, l21, l22 = synthesis_factors(*args, **kwargs)
        return sigma_p, -l21, l22
    return factors


@pytest.mark.parametrize("kernel, mutate, check", [
    ("calibrate", _widen_line, "calibration_roundtrip"),
    ("white_spectrum", _double_variance, "shot_floor_unity"),
    ("detect_spectrum", _double_vacuum, "shot_floor_unity"),
    ("spectral_correlation", _swap_pair, "delay_estimator_12ns"),
    ("synthesis_factors", _anticorrelate, "twin_band_squeezing"),
])
def test_selftest_fails_on_a_broken_chain_kernel(tmp_path, capsys, monkeypatch,
                                                  fresh_chain_heads, kernel, mutate, check):
    """A kernel of the scenarios' chain, broken as the scenario module sees
    it, fails its check, and only that one."""
    import fastlight.scenario as scenario

    monkeypatch.setattr(scenario, kernel, mutate(getattr(scenario, kernel)))
    assert main(["selftest", "--out-dir", str(tmp_path / "st")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL selftest:{check}"]


def test_selftest_passes_at_every_seed(tmp_path, capsys):
    import fastlight.scenario as scenario

    cfg = replace(load_config("fig2-line"), scenario="selftest", out_dir=str(tmp_path))
    failed = {}
    for seed in range(200):
        checks = scenario._run_selftest(replace(cfg, seed=seed), [])["checks"]
        assert len(checks) == 5
        failed.update({seed: name for name, ok in checks.items() if not ok})
    assert failed == {}


def test_partial_outputs_removed_on_error(tmp_path, monkeypatch):
    import fastlight.scenario as scenario

    def boom(path, summary, created):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(scenario, "_write_summary", boom)
    cfg = config_from_dict({
        **preset_fig2_line().to_dict(),
        "detunings_hz": [0.0],
        "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
        "out_dir": str(tmp_path / "broken"),
    })
    with pytest.raises(RuntimeError):
        scenario.run_scenario(cfg)
    assert not (tmp_path / "broken" / "line_scan.csv").exists()


def test_failed_summary_write_leaves_no_files(tmp_path, monkeypatch):
    import fastlight.scenario as scenario

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(scenario.json, "dump", torn_dump)
    cfg = config_from_dict({
        **preset_fig2_line().to_dict(),
        "detunings_hz": [0.0],
        "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
        "out_dir": str(tmp_path / "torn"),
    })
    with pytest.raises(OSError, match="disk full"):
        scenario.run_scenario(cfg)
    assert os.listdir(tmp_path / "torn") == []


def _short_lag_xcorr_config(tmp_path):
    # A lag window this short never reaches the half level of the correlation.
    cfg = {**preset_fig4_advance().to_dict(), "max_lag_s": 5e-8,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_short_lag_window_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    import fastlight.scenario as scenario

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario, "synth_twin_spectra", no_draws)
    path = _short_lag_xcorr_config(tmp_path)
    assert main(["xcorr", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "max_lag_s" in err
    assert os.listdir(tmp_path / "o") == []


def test_non_finite_summary_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                      fresh_chain_heads):
    # With the early lag-window check taken out, both widths are NaN and the
    # summary writer is the backstop.
    import fastlight.scenario as scenario
    from fastlight.analysis import correlation_plan

    monkeypatch.setattr(scenario, "_band_plan", correlation_plan)
    path = _short_lag_xcorr_config(tmp_path)
    assert main(["xcorr", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "runtime error" in err and "fwhm_ref_s" in err
    assert os.listdir(tmp_path / "o") == []


def test_every_preset_passes_the_lag_window_check():
    import fastlight.scenario as scenario

    for name in sorted(PRESETS):
        cfg = load_config(name)
        for band in (cfg.band_hz, cfg.fullband_hz):
            scenario._band_plan(cfg.sampling.samples, cfg.sampling.rate_hz, band,
                                cfg.max_lag_s)


def test_csv_rejects_non_finite_values(tmp_path):
    import fastlight.scenario as scenario

    path = str(tmp_path / "scan.csv")
    columns = {"detuning_hz": [0.0, 1e6], "delay_s_band": [1e-9, float("inf")]}
    created = []
    with pytest.raises(FastlightError, match="delay_s_band"):
        scenario._write_csv(path, columns, created)
    assert not os.path.exists(path)


def test_csv_streams_the_repr_of_each_float(tmp_path):
    """Byte for byte the row-format writer, on signed zero, the smallest
    subnormal and floats whose repr switches to or from exponent form."""
    import fastlight.scenario as scenario

    cells = [-0.0, 5e-324, 1e-5, 1e16, 0.1, -2e-06]
    columns = {"lag_s": np.array(cells), "c_ref": cells[::-1],
               "c_fast": np.array(cells, dtype=np.float32).astype(float)}
    scenario._write_csv(str(tmp_path / "got.csv"), columns, [])
    format_rows_csv(str(tmp_path / "want.csv"), columns)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[1] == b"-0.0,-2e-06,-0.0"


def test_warm_advance_run_traces_under_half_its_former_peak(tmp_path):
    """tracemalloc's peak over a warm `xcorr --preset fig4-advance` run at 3
    traces, plans built and modules loaded: 2.59 MB when the chirp-z
    transforms, the prediction's fine rows and the CSV rows each allocated
    full-size temporaries, about 1.0 MB since they reuse their buffers."""
    import tracemalloc

    import fastlight.scenario as scenario

    base = preset_fig4_advance()
    cfg = replace(base, sampling=replace(base.sampling, traces=3), out_dir=str(tmp_path))
    scenario.run_scenario(cfg)
    tracemalloc.start()
    try:
        scenario.run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2.59e6


def _carries_edges(f_lo, f_hi) -> bool:
    try:
        band_response((), f_lo, f_hi)
    except InvalidParameterError:
        return False
    return True


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_round_trip_property(preset, data):
    base = load_config(preset)
    rate = base.sampling.rate_hz
    samples = 1 << data.draw(st.integers(min_value=10, max_value=22), label="log2 samples")

    def band():
        if data.draw(st.booleans(), label="integer band"):
            lo = data.draw(st.integers(min_value=1000, max_value=10 ** 7))
            return (lo, lo * data.draw(st.integers(min_value=2, max_value=100)))
        lo = data.draw(st.floats(min_value=1e3, max_value=1e7))
        return (lo, lo * data.draw(st.floats(min_value=1.5, max_value=100.0)))

    hz = st.integers(min_value=-3 * 10 ** 7, max_value=3 * 10 ** 7) | st.floats(-3e7, 3e7)
    bands = {"band_hz": band(), "fullband_hz": band(), "noise_band_hz": band()}
    # The band a scenario reads its noise in must hold a bin of the rfft grid.
    lo, hi = bands["noise_band_hz" if base.scenario == "line-scan" else "band_hz"]
    freqs = np.fft.rfftfreq(samples, 1.0 / rate)
    assume(np.any((freqs >= lo) & (freqs <= hi)))
    # The bands it band-filters must carry band_response's raised-cosine edges.
    for name in {"xcorr": ("band_hz",),
                 "delay-scan": ("band_hz", "fullband_hz")}.get(base.scenario, ()):
        assume(_carries_edges(*bands[name]))
    cfg = replace(
        base,
        seed=data.draw(st.integers(min_value=0, max_value=2 ** 32), label="seed"),
        jobs=data.draw(st.integers(min_value=1, max_value=8), label="jobs"),
        sampling=replace(base.sampling, samples=samples,
                         traces=data.draw(st.integers(min_value=1, max_value=500))),
        source=replace(base.source, seed_flux=int(base.source.seed_flux)),
        offset_hz=data.draw(hz, label="offset_hz"),
        detunings_hz=tuple(data.draw(st.lists(hz, min_size=1 if base.detunings_hz else 0,
                                              max_size=5), label="detunings_hz")),
        **bands,
        max_lag_s=data.draw(st.floats(min_value=1.5, max_value=samples / 8 - 1)) / rate)
    # The same config with every int in a float field written as a float.
    as_floats = replace(
        cfg, source=replace(cfg.source, seed_flux=float(cfg.source.seed_flux)),
        offset_hz=float(cfg.offset_hz),
        **{name: tuple(float(v) for v in getattr(cfg, name))
           for name in ("detunings_hz", "band_hz", "fullband_hz", "noise_band_hz")})
    for original in (base, cfg, as_floats):
        for back in (config_from_dict(original.to_dict()),
                     config_from_dict(json.loads(json.dumps(original.to_dict())))):
            assert back == original
            assert back.config_hash() == original.config_hash()
        # As the scan workers receive it.
        assert pickle.loads(pickle.dumps(original)) == original
    assert as_floats == cfg
    assert as_floats.config_hash() == cfg.config_hash()


def test_presets_cover_documented_names():
    assert set(PRESETS) == {"fig2-line", "fig4-advance", "coherent-ref"}
    for name in PRESETS:
        assert isinstance(load_config(name), ScenarioConfig)


_SAMPLING = {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1}


@pytest.mark.parametrize("override, named", [
    ({"segment_len": 1000}, "unknown field 'segment_len'"),
    ({"max_lag_s": 1e-5}, "'max_lag_s'"),   # 25000 samples > 2^16 / 8
    ({"max_lag_s": 1e-10}, "'max_lag_s'"),  # below one sample period
    ({"seed": -1}, "'seed'"),
    ({"seed": 1.5}, "'seed'"),
    ({"detunings_hz": [float("nan"), 0.0]}, "'detunings_hz'"),
    ({"offset_hz": float("nan")}, "'offset_hz'"),
    ({"jobs": True}, "'jobs'"),
    ({"sampling": {**_SAMPLING, "traces": 2.5}}, "'sampling.traces'"),
    ({"sampling": {**_SAMPLING, "traces": True}}, "'sampling.traces'"),
    ({"sampling": {**_SAMPLING, "rate_hz": float("inf")}}, "'sampling.rate_hz'"),
    ({"sampling": {**_SAMPLING, "samples": 65536.0}}, "'sampling.samples'"),
], ids=["segment_len", "max_lag_long", "max_lag_short", "seed_negative",
        "seed_float", "detuning_nan", "offset_nan", "jobs_bool", "traces_float",
        "traces_bool", "rate_inf", "samples_float"])
def test_cli_config_errors_exit_2_before_running(tmp_path, capsys, override, named):
    cfg = {**preset_fig2_line().to_dict(), "scenario": "delay-scan",
           "detunings_hz": [0.0], "sampling": _SAMPLING,
           "out_dir": str(tmp_path / "o"), **override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["delay-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override, named", [
    ({"line": {"peak_gain_db": True}}, "'line.peak_gain_db'"),
    ({"line": {"fwhm_hz": True}}, "'line.fwhm_hz'"),
    ({"source": {"seed_flux": True}}, "'source.seed_flux'"),
    ({"detunings_hz": [True, False]}, "'detunings_hz'"),
    ({"band_hz": [True, 3e6]}, "'band_hz'"),
], ids=["peak_gain_db", "fwhm_hz", "seed_flux", "detunings_hz", "band_hz"])
def test_cli_boolean_for_a_number_exits_2(tmp_path, capsys, override, named):
    """A JSON boolean is a Python bool, an int subclass, but never a number
    here: true would otherwise run as 1 (a 1 dB line, a 1 Hz line)."""
    cfg = {**preset_fig2_line().to_dict(), "scenario": "delay-scan",
           "detunings_hz": [0.0], "sampling": _SAMPLING,
           "out_dir": str(tmp_path / "o"), **override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["delay-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out_dir", [5, "", None, ["o"]], ids=["int", "empty", "null", "list"])
def test_cli_out_dir_not_a_string_exits_2(tmp_path, capsys, monkeypatch, out_dir):
    """out_dir is checked at load, not at os.makedirs after the run."""
    monkeypatch.chdir(tmp_path)
    cfg = {**preset_fig2_line().to_dict(), "detunings_hz": [0.0], "sampling": _SAMPLING,
           "out_dir": out_dir}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["line-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "'out_dir'" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


_BIG = 10 ** 400  # a JSON integer beyond the float range
_NON_FINITE = [float("nan"), float("inf"), -float("inf"), _BIG]
_NOT_NUMBERS = ["1.0", True, [1.0], {"value": 1.0}]
_NOT_LISTS = ["1.0", None, True, 1.0, {"value": 1.0}]
_BAD_ENTRIES = [["1.0"], [None], [True], [[1.0]], [{"value": 1.0}]]
# Wrong values for each field annotation: the wrong type, null where the
# annotation has no None, and numbers that convert to no finite float.
_WRONG_VALUES = {
    "float": [None, *_NOT_NUMBERS, *_NON_FINITE],
    "float | None": [*_NOT_NUMBERS, *_NON_FINITE],
    "int": [None, "1", True, [1], {"value": 1}, 1.5, 1.0, *_NON_FINITE[:3]],
    "bool": [None, "true", 1, [True], {"value": True}],
    "str": [None, "", 5, True, ["o"], {"value": "o"}],
    "tuple[float, ...]": [*_NOT_LISTS, *_BAD_ENTRIES, *([v] for v in _NON_FINITE)],
    "tuple[float, float]": [*_NOT_LISTS, *_BAD_ENTRIES,
                            *([1e5, v] for v in _NON_FINITE),
                            [], [1e5], [1e5, 1e6, 3e6]],
}
_SECTION_WRONG_VALUES = [None, "line", 5, True, [1.0]]


def _every_field():
    """(dotted name, wrong values) of every config field and section."""
    out = []
    for f in dataclasses.fields(ScenarioConfig):
        if dataclasses.is_dataclass(f.default_factory):
            out.append((f.name, _SECTION_WRONG_VALUES))
            out += [(f"{f.name}.{g.name}", _WRONG_VALUES[g.type])
                    for g in dataclasses.fields(f.default_factory)]
        else:
            out.append((f.name, _WRONG_VALUES[f.type]))
    return out


def _tiny_line_scan(tmp_path, dotted, value):
    """A line-scan config file at 2^12 samples and 1 trace, with the field
    named by a dotted path set to value."""
    cfg = {**preset_fig2_line().to_dict(), "detunings_hz": [0.0],
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 12, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    *section, name = dotted.split(".")
    (cfg[section[0]] if section else cfg)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


_FIELDS = _every_field()


@pytest.mark.parametrize("dotted, wrong", _FIELDS, ids=[name for name, _ in _FIELDS])
def test_every_field_refuses_wrong_values_of_its_kind(tmp_path, capsys, dotted, wrong):
    """Each field's annotation is its type rule: a wrong value exits 2 at
    load, names the field by its dotted path and writes nothing."""
    for value in wrong:
        path = _tiny_line_scan(tmp_path, dotted, value)
        assert main(["line-scan", "--config", str(path)]) == 2, value
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{dotted}'" in err, (value, err)
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dotted, value", [
    ("detunings_hz", [_BIG]),
    ("band_hz", [1e5, 1e6, 3e6]),
    ("line.peak_gain_db", None),
    ("sampling.rate_hz", _BIG),
], ids=["detunings_400_digits", "band_three_entries", "peak_gain_null", "rate_400_digits"])
def test_cli_type_errors_exit_2_naming_the_field(tmp_path, capsys, dotted, value):
    """Values that version 0.9.0 ran into a traceback (exit 1) or refused
    without naming the field."""
    assert main(["line-scan", "--config", str(_tiny_line_scan(tmp_path, dotted, value))]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{dotted}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_cli_rate_override_is_type_checked(tmp_path, capsys, rate):
    out = tmp_path / "o"
    assert main(["line-scan", "--preset", "fig2-line", "--rate", rate,
                 "--out-dir", str(out)]) == 2
    assert "'sampling.rate_hz'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, preset, override, named", [
    ("line-scan", preset_fig2_line, {"max_lag_s": "abc"}, "'max_lag_s'"),
    ("xcorr", preset_fig4_advance, {"advance_anchor_offset_hz": "x"},
     "'advance_anchor_offset_hz'"),
    ("xcorr", preset_fig4_advance, {"advance_target_s": float("nan")}, "'advance_target_s'"),
], ids=["line_scan_max_lag_text", "xcorr_anchor_offset_text", "xcorr_target_nan"])
def test_cli_scalar_field_errors_exit_2_before_running(tmp_path, capsys, monkeypatch,
                                                       command, preset, override, named):
    """A field that a scenario hashes but computes nothing with is checked at
    load like every other, and the advance fields that 0.10.0 deleted are
    refused as unknown: either stops the run before any point and writes
    nothing."""
    import fastlight.scenario as scenario

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario, "_measure_trace", no_draws)
    cfg = {**preset().to_dict(), "detunings_hz": [0.0], "sampling": _SAMPLING,
           "out_dir": str(tmp_path / "o"), **override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["delay-scan", "xcorr"])
def test_cli_coherent_source_on_correlation_scenarios_exits_2(tmp_path, capsys,
                                                               monkeypatch, command):
    """Delays and band squeezing are read from a twin pair's correlation, so
    a coherent source is refused before any draw."""
    import fastlight.scenario as scenario

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario, "white_spectrum", no_draws)
    out = tmp_path / "o"
    assert main([command, "--preset", "coherent-ref", "--traces", "2", "--samples",
                 "65536", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "source.coherent" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("eta", 0.0), ("eta", 1.5), ("eta", float("nan")),
    ("excess_noise_db", -1.0), ("excess_noise_db", float("inf")),
])
def test_cli_channel_errors_exit_2_naming_the_field(tmp_path, capsys, field, value):
    base = preset_fig2_line().to_dict()
    cfg = {**base, "detunings_hz": [0.0], "channel": {**base["channel"], field: value},
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 14, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["line-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"channel.{field}" in err
    assert not (tmp_path / "o").exists()


def test_cli_band_without_welch_bin_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    import fastlight.scenario as scenario

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario, "_measure_trace", no_draws)
    # 2048 samples give rfft bins 1.22 MHz apart: none in 0.5-1 MHz.
    out = tmp_path / "line"
    assert main(["line-scan", "--preset", "fig2-line", "--samples", "2048",
                 "--out-dir", str(out)]) == 2
    assert "noise_band_hz" in capsys.readouterr().err
    assert not out.exists()
    cfg = {**preset_fig2_line().to_dict(), "detunings_hz": [0.0], "band_hz": [1e3, 2e3],
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name in ("delay-scan", "xcorr"):
        assert main([name, "--config", str(path)]) == 2
        assert "band_hz" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, preset, field", [
    ("xcorr", preset_fig4_advance, "band_hz"),
    ("delay-scan", preset_fig2_line, "band_hz"),
    ("delay-scan", preset_fig2_line, "fullband_hz"),
    ("selftest", preset_fig2_line, "band_hz"),
])
def test_cli_band_too_narrow_for_its_edges_exits_2(tmp_path, capsys, monkeypatch,
                                                   scenario, preset, field):
    import fastlight.scenario as scenario_module

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario_module, "_measure_trace", no_draws)
    # band_response's edges need f_hi / f_lo of about 3.
    cfg = {**preset().to_dict(), "scenario": scenario, field: [1e6, 1.2e6],
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([scenario, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{field}'" in err and "edges" in err
    assert not (tmp_path / "o").exists()


def test_cli_clipped_predicted_shift_exits_2_before_any_draw(tmp_path, capsys,
                                                             monkeypatch):
    import fastlight.scenario as scenario_module

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario_module, "synth_twin_spectra", no_draws)
    # A 20 dB, 2 MHz line at 1 MHz shifts the correlation peak by about
    # +155.9 ns, past a 100 ns lag window, where the prediction, searched
    # over the lag window, would return the window edge.
    base = preset_fig4_advance().to_dict()
    cfg = {**base, "line": {**base["line"], "peak_gain_db": 20.0, "fwhm_hz": 2e6},
           "offset_hz": 1e6, "max_lag_s": 1e-7,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 18, "traces": 3},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["xcorr", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "offset_hz" in err and "band_hz" in err
    assert os.listdir(tmp_path / "o") == []


def test_cli_xcorr_predicts_over_the_measured_lag_window(tmp_path):
    """A peak past +-150 ns but inside the 2 us lag window is predicted,
    not refused."""
    base = preset_fig4_advance().to_dict()
    cfg = {**base, "line": {**base["line"], "peak_gain_db": 20.0, "fwhm_hz": 2e6},
           "offset_hz": 1e6, "sampling": {"rate_hz": 2.5e9, "samples": 1 << 18,
                                          "traces": 3},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["xcorr", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["predicted_delta_t_s"] == pytest.approx(155.9e-9, abs=0.05e-9)


def test_cli_xcorr_broad_peak_is_not_degenerate(tmp_path):
    """A 30 dB / 2 MHz line at 0.5 MHz gives a correlation peak hundreds of
    lags wide, whose top four samples lie within 1e-6 of each other at this
    seed; one smooth peak is measured, not refused as degenerate."""
    base = preset_fig4_advance().to_dict()
    cfg = {**base, "line": {**base["line"], "peak_gain_db": 30.0, "fwhm_hz": 2e6},
           "offset_hz": 0.5e6, "seed": 101,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 18, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["xcorr", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["predicted_delta_t_s"] == pytest.approx(380.3e-9, abs=0.05e-9)
    assert summary["delta_t_s"] == pytest.approx(summary["predicted_delta_t_s"], abs=50e-9)


def test_cli_xcorr_prediction_does_not_alias_on_a_wide_band(tmp_path):
    """On a 1-100 MHz band over a 13 us lag window the prediction is the
    measured plan's own expected curve, one copy of the peak per record
    length: it equals the prediction on a +-150 ns plan of the same record."""
    from fastlight.analysis import correlation_plan

    base = preset_fig4_advance().to_dict()
    cfg = {**base, "band_hz": [1e6, 1e8], "max_lag_s": 1.3e-5,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 18, "traces": 2},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["xcorr", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    loaded = config_from_dict(cfg)
    plan = correlation_plan(1 << 18, 2.5e9, (1e6, 1e8), 1.5e-7)
    expected = predicted_correlation_shift(loaded.line.make(), loaded.offset_hz,
                                           loaded.source.make(), plan, 2.5e9)
    assert summary["predicted_delta_t_s"] == pytest.approx(expected, abs=1e-15)


def test_cli_xcorr_peak_on_the_lag_window_edge_exits_2_before_any_draw(tmp_path, capsys,
                                                                       monkeypatch):
    """A 20 dB, 2 MHz line at 1 MHz puts the noise-free peak at +155.93 ns,
    between the last two lags of a +-156 ns window: the expected curve's
    largest sample is the window's edge, so the run stops before any draw.
    A +-160 ns window holds the peak."""
    import fastlight.scenario as scenario_module
    from fastlight.analysis import correlation_plan

    def no_draws(*args, **kwargs):
        raise AssertionError("a trace was drawn")

    monkeypatch.setattr(scenario_module, "_measure_trace", no_draws)
    base = preset_fig4_advance().to_dict()
    cfg = {**base, "line": {**base["line"], "peak_gain_db": 20.0, "fwhm_hz": 2e6},
           "offset_hz": 1e6, "max_lag_s": 1.56e-7,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 18, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["xcorr", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "edge of the +-1.56e-07 s lag window" in err
    assert os.listdir(tmp_path / "o") == []
    loaded = config_from_dict(cfg)
    plan = correlation_plan(1 << 18, 2.5e9, loaded.band_hz, 1.6e-7)
    shift = predicted_correlation_shift(loaded.line.make(), loaded.offset_hz,
                                        loaded.source.make(), plan, 2.5e9)
    assert 155.6e-9 < shift < 156e-9


def test_cli_samples_past_the_chirp_index_range_exit_2(tmp_path, capsys):
    """A trace holds at most 2^32 samples, the most whose chirp-z index
    squares fit in int64; 2^62 is refused at load, not by a failed 13.1 PiB
    allocation."""
    out = tmp_path / "o"
    for samples in (1 << 62, 1 << 33):
        assert main(["line-scan", "--preset", "fig2-line", "--samples", str(samples),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'sampling.samples'" in err and "2^32" in err
        assert not out.exists()
    base = preset_fig2_line()
    assert replace(base, sampling=replace(base.sampling, samples=1 << 32)).sampling.samples


@pytest.mark.parametrize("excess_db", [3100.0, 3000.0, 150.5])
def test_cli_excess_noise_past_150_db_exits_2(tmp_path, capsys, excess_db):
    """Past 150 dB the excess drowns the shot noise in float64 rounding, so
    it is refused at load, before 3,100 dB can overflow the beam-level
    conversion or 3,000 dB the noise figure."""
    path = _tiny_line_scan(tmp_path, "channel.excess_noise_db", excess_db)
    assert main(["line-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "'channel.excess_noise_db'" in err
    assert not (tmp_path / "o").exists()


def test_cli_traces_past_2_to_the_53_exit_2(tmp_path, capsys):
    """The trace count enters float64 arithmetic, exact for integers only up
    to 2^53; 10^400 traces are refused at load instead of never finishing."""
    out = tmp_path / "o"
    for traces in ("1" + "0" * 400, str((1 << 53) + 1)):
        assert main(["line-scan", "--preset", "fig2-line", "--traces", traces,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'sampling.traces'" in err and "2^53" in err
        assert not out.exists()
    base = preset_fig2_line()
    assert replace(base, sampling=replace(base.sampling, traces=1 << 53)).sampling.traces


@pytest.mark.parametrize("dotted, value", [
    ("source.seed_flux", 1e300), ("source.seed_flux", math.nextafter(1e30, math.inf)),
    ("line.peak_gain_db", 3000.0), ("line.peak_gain_db", math.nextafter(300.0, math.inf)),
], ids=["seed-flux-1e300", "seed-flux-past-1e30", "peak-gain-3000-db", "peak-gain-past-300-db"])
def test_cli_flux_and_gain_past_their_bounds_exit_2(tmp_path, capsys, dotted, value):
    """A band energy reaches about K n G^2 seed_flux, and the cross spectrum
    divides by the product of two; past 1e30 photons per sample or 300 dB
    the run is refused at load, before 1e300 or 3,000 dB can overflow the
    predicted or simulated noise."""
    path = _tiny_line_scan(tmp_path, dotted, value)
    assert main(["line-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{dotted}'" in err
    assert not (tmp_path / "o").exists()


def test_flux_and_gain_at_their_bounds_load():
    base = preset_fig2_line()
    cfg = replace(base, source=replace(base.source, seed_flux=1e30),
                  line=replace(base.line, peak_gain_db=300.0))
    assert (cfg.source.seed_flux, cfg.line.peak_gain_db) == (1e30, 300.0)


@pytest.mark.filterwarnings("error")
def test_cli_tiny_pair_bandwidth_warns_nothing(tmp_path, capsys):
    """The roll-off weight's power overflows far past a 1e-300 Hz corner;
    its limit there, 1 / (1 + inf) = 0, is the right weight, so the run
    ends without a numpy warning on stderr."""
    path = _tiny_line_scan(tmp_path, "source.pair_bandwidth_hz", 1e-300)
    assert main(["line-scan", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _small_run(tmp_path, scenario, fields):
    """A config file of the scenario's default preset at 2^14 samples, 1
    trace, a +-400 ns lag window and detunings 0 and 5 MHz, with each field
    named by a dotted path in ``fields`` set to its value."""
    base = (preset_fig4_advance() if scenario == "xcorr" else preset_fig2_line()).to_dict()
    cfg = {**base, "scenario": scenario, "detunings_hz": [0.0, 5e6], "max_lag_s": 4e-7,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 14, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    for dotted, value in fields.items():
        *section, name = dotted.split(".")
        (cfg[section[0]] if section else cfg)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _log_pids(monkeypatch, name, log):
    """Wrap scenario.<name> so that each call appends its process id to the
    file ``log``, in the parent and in forked children alike."""
    import fastlight.scenario as module

    function = getattr(module, name)

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


@pytest.mark.parametrize("scenario, kernel", [("line-scan", "predicted_difference_noise_snu"),
                                              ("delay-scan", "difference_noise_after_channel")])
def test_forked_scan_predicts_every_row_in_the_parent(tmp_path, monkeypatch, scenario, kernel):
    """The deterministic columns are computed in the parent before the pool
    forks: at two jobs each of the three rows' predictions runs there once,
    and no child runs one."""
    path = _three_point_scan(scenario, tmp_path)
    log = tmp_path / "calls"
    log.write_text("")
    _log_pids(monkeypatch, kernel, log)
    assert main([scenario, "--config", str(path), "--jobs", "2"]) == 0
    assert log.read_text().split() == [str(os.getpid())] * 3


# Field values that make a deterministic column not finite, with the
# column and row the error names; each exited 3 at 0.14.0, after its traces
# and numpy warnings (xcorr exited 2, reporting a peak on the edge of the
# lag window).
_NON_FINITE_COLUMNS = [
    ("line-scan", "line.fwhm_hz", 1e-200, "group_index", "detunings_hz 0.0"),
    ("line-scan", "line.fwhm_hz", 1e300, "group_index", "detunings_hz 5000000.0"),
    ("line-scan", "line.length_m", 1e300, "gain_db", "detunings_hz 0.0"),
    ("line-scan", "line.wavelength_nm", 1e-300, "gain_db", "detunings_hz 0.0"),
    ("line-scan", "source.gain1", 1e300, "predicted_noise_db", "detunings_hz 0.0"),
    ("delay-scan", "line.length_m", 1e300, "analytic_squeezing_db", "detunings_hz 0.0"),
    ("delay-scan", "line.wavelength_nm", 1e-300, "analytic_squeezing_db", "detunings_hz 0.0"),
    ("delay-scan", "source.gain1", 1e300, "analytic_squeezing_db", "detunings_hz 0.0"),
    ("xcorr", "line.length_m", 1e300, "gain_db", "offset_hz 6500000.0"),
    ("xcorr", "line.wavelength_nm", 1e-300, "gain_db", "offset_hz 6500000.0"),
    ("xcorr", "source.gain1", 1e300, "analytic_squeezing_db", "offset_hz 6500000.0"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, dotted, value, column, row", _NON_FINITE_COLUMNS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]:g}" for c in _NON_FINITE_COLUMNS])
def test_cli_non_finite_column_exits_2_before_any_draw(tmp_path, capsys, monkeypatch,
                                                       scenario, dotted, value, column, row):
    """A deterministic column that is not finite is a configuration error
    raised before any trace, at one job and at two: the error names the
    column, the row and the config section the field lies in, no file is
    written and no numpy warning is printed."""
    log = tmp_path / "traces"
    _log_pids(monkeypatch, "_measure_trace", log)
    path = _small_run(tmp_path, scenario, {dotted: value})
    for jobs in ("1", "2"):
        log.write_text("")
        assert main([scenario, "--config", str(path), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: no {column} at {row}:" in err
        assert dotted.split(".")[0] in err.split("check the config's")[1]
        assert "Warning" not in err
        assert log.read_text() == ""
        assert os.listdir(tmp_path / "o") == []


@pytest.mark.parametrize("scenario", ["line-scan", "delay-scan", "xcorr"])
@pytest.mark.parametrize("dotted", ["channel.eta", "source.seed_flux"])
def test_cli_eta_and_seed_flux_below_their_floors_exit_2(tmp_path, capsys, scenario, dotted):
    """Below 1e-50 the band energies' product can underflow float64's
    smallest normal number and the 1/eta beam-level excess can overflow the
    channel noise, so the float below each floor and 1e-300 (which exited 3
    at 0.14.0) are refused at load."""
    for value in (math.nextafter(1e-50, 0.0), 1e-300):
        path = _small_run(tmp_path, scenario, {dotted: value})
        assert main([scenario, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{dotted}'" in err and "1e-50" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", ["line-scan", "delay-scan"])
@pytest.mark.parametrize("fields", [
    {"channel.eta": 1e-50}, {"source.seed_flux": 1e-50},
    {"channel.eta": 1e-50, "source.seed_flux": 1e-50},
    {"channel.eta": 1e-50, "source.seed_flux": 1e30, "line.peak_gain_db": 300.0,
     "channel.excess_noise_db": 150.0},
], ids=["eta", "seed-flux", "both", "eta-at-the-upper-bounds"])
def test_cli_runs_at_the_eta_and_seed_flux_floors(tmp_path, capsys, scenario, fields):
    """At the floors, alone, together and with the upper bounds of the
    flux, the peak gain and the excess, a scan ends finite and prints no
    warning.  (An xcorr there may stop with an undefined width: a pair
    detected at eta 1e-50, or seeded with 1e-50 photons against the line's
    own amplifier noise, keeps no measurable correlation.)"""
    path = _small_run(tmp_path, scenario, fields)
    assert main([scenario, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == fastlight.__version__


# Closed forms that no package code calls: the acceptance criteria and tests
# check the simulation against them.
_REFERENCE_ONLY = {"amp_mean", "amp_variance", "snu_out", "peak_advance",
                   "intensity_difference_variance"}


def test_every_public_name_has_a_user_in_the_package():
    """A public module-level function or class that no package code refers
    to outside its own definition is dead, unless it is one of the
    closed-form references above; the package's re-exports are no use."""
    import ast
    import pathlib

    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(fastlight.__file__).parent.glob("*.py")
             if path.name != "__init__.py"}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used) == sorted(_REFERENCE_ONLY)


def test_names_the_traced_benchmark_looks_up_are_scenario_functions():
    """perfbench/tracer.py wraps the scenario's per-point routines by the
    names in its _POINT_FUNCTIONS; a rename would fail only a traced
    benchmark run, so the file is read here, not imported, and each name
    must be a function of fastlight.scenario."""
    import ast
    import inspect
    import pathlib

    import fastlight.scenario as scenario

    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
    names, = [ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets]
              == ["_POINT_FUNCTIONS"]]
    assert names
    for name in names:
        assert inspect.isfunction(getattr(scenario, name, None)), name
