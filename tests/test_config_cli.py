import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastlight
from fastlight import config as config_module
from fastlight.cli import main
from fastlight.config import (PRESETS, ScenarioConfig, config_from_dict,
                              load_config, preset_coherent_ref,
                              preset_fig2_line, preset_fig4_advance)
from fastlight.dispersion import gain_db, intensity_gain, peak_advance
from fastlight.errors import ConfigError, FastlightError
from oracles import dense_correlation_shift


def test_fig2_preset_hits_gain_anchor():
    cfg = preset_fig2_line()
    line = cfg.line.make()
    assert gain_db(line, 0.0) == pytest.approx(7.5, rel=1e-9)
    assert cfg.source.resolved_gain1() == pytest.approx((10 ** 0.25 + 1) / 2, rel=1e-12)
    assert 0.0 in cfg.detunings_hz


def test_fig4_preset_advance_anchor_and_gain():
    cfg = preset_fig4_advance()
    line = cfg.line.make()
    anchor = cfg.advance_anchor_offset_hz
    assert anchor is not None
    assert peak_advance(line, 2 * np.pi * anchor) * 1e9 == pytest.approx(-12.0, abs=0.1)
    gain_op = float(intensity_gain(line, 2 * np.pi * cfg.offset_hz))
    assert gain_op <= 1.25


def test_fig4_preset_solve_equals_dense_reference(monkeypatch):
    cfg = preset_fig4_advance()
    monkeypatch.setattr(config_module, "predicted_correlation_shift",
                        dense_correlation_shift)
    peak_db, anchor_hz = config_module._solve_advance_line.__wrapped__()
    assert cfg.line.peak_gain_db == peak_db
    assert cfg.advance_anchor_offset_hz == anchor_hz


def test_advance_root_finder_matches_brentq(monkeypatch):
    from scipy.optimize import brentq
    peak_db, anchor_hz = config_module._solve_advance_line.__wrapped__()
    monkeypatch.setattr(config_module, "_find_root", brentq)
    ref_peak_db, ref_anchor_hz = config_module._solve_advance_line.__wrapped__()
    # The solve's xtol: 1e-9 dB for the line strength, 1e-3 Hz for the anchor.
    assert abs(peak_db - ref_peak_db) <= 1e-9
    assert abs(anchor_hz - ref_anchor_hz) <= 1e-3


def _run_python(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fastlight."""
    src = os.path.dirname(os.path.dirname(fastlight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=check,
                          capture_output=True, text=True)


@pytest.mark.parametrize("preset", ["fig2-line", "fig4-advance"])
def test_cli_import_and_preset_skip_signal_and_optimize(preset):
    code = ("import sys, fastlight.cli\n"
            f"fastlight.cli.load_config({preset!r})\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))")
    assert _run_python(code).stdout.strip() == "[]"


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


def test_cli_version():
    assert main(["--version"]) == 0


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


def test_cli_selftest(tmp_path):
    assert main(["selftest", "--out-dir", str(tmp_path / "st"), "--seed", "4"]) == 0
    report = json.loads((tmp_path / "st" / "selftest.json").read_text())
    assert report["all_passed"] is True


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


def test_non_finite_summary_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
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
    rows = [{"detuning_hz": 0.0, "delay_s_band": 1e-9},
            {"detuning_hz": 1e6, "delay_s_band": float("inf")}]
    created = []
    with pytest.raises(FastlightError, match="delay_s_band"):
        scenario._write_csv(path, ["detuning_hz", "delay_s_band"], rows, created)
    assert not os.path.exists(path)


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
        band_hz=band(), fullband_hz=band(), noise_band_hz=band(),
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
    assert as_floats == cfg
    assert as_floats.config_hash() == cfg.config_hash()


def test_presets_cover_documented_names():
    assert set(PRESETS) == {"fig2-line", "fig4-advance", "coherent-ref"}
    for name in PRESETS:
        assert isinstance(load_config(name), ScenarioConfig)


@pytest.mark.parametrize("override", [
    {"segment_len": 1000},
    {"max_lag_s": 1e-5},   # 25000 samples > 2^16 / 8
    {"max_lag_s": 1e-10},  # below one sample period
    {"seed": -1},
    {"seed": 1.5},
    {"detunings_hz": [float("nan"), 0.0]},
    {"offset_hz": float("nan")},
    {"jobs": True},
], ids=["segment_len", "max_lag_long", "max_lag_short", "seed_negative",
        "seed_float", "detuning_nan", "offset_nan", "jobs_bool"])
def test_cli_config_errors_exit_2_before_running(tmp_path, capsys, override):
    cfg = {**preset_fig2_line().to_dict(), "scenario": "delay-scan",
           "detunings_hz": [0.0],
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 16, "traces": 1},
           "out_dir": str(tmp_path / "o"), **override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["delay-scan", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_oversized_segment_len_is_clamped(tmp_path):
    cfg = {**preset_fig2_line().to_dict(), "detunings_hz": [0.0], "segment_len": 1 << 20,
           "sampling": {"rate_hz": 2.5e9, "samples": 1 << 14, "traces": 1},
           "out_dir": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["line-scan", "--config", str(path)]) == 0
