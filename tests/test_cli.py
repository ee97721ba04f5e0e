import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dlczsim
from dlczsim import _kernels, calibration as cal, cli, config, montecarlo, repeater
from dlczsim.cli import main
from dlczsim.config import load_config

IDEAL_CONFIG = """\
[source]
chi = 0.02
p_noise = 0.0
werner_p0 = 1.0

[decay]
r0 = 1.0
tau0_ms = 1000.0
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEfficiency:
    def test_default_curve_starts_at_077(self, capsys):
        rc, out, _ = run(capsys, "efficiency", "--t-ms", "0,0.23,0.54")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t_us,R_model"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.77, abs=1e-12)

    def test_montecarlo_zero_trials_usage_error(self, capsys):
        rc, out, err = run(capsys, "efficiency", "--montecarlo",
                           "--trials", "0")
        assert rc == 2
        assert out == ""
        assert "trials" in err

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = run(capsys, "efficiency", "--montecarlo", "--trials",
                           "40000", "--t-ms", "0,0.5", "--seed", "7",
                           "--out", str(path))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_montecarlo_columns_track_model(self, tmp_path, capsys):
        out_path = tmp_path / "eff.csv"
        rc, _, _ = run(capsys, "efficiency", "--montecarlo", "--trials",
                       "400000", "--t-ms", "0", "--seed", "3",
                       "--out", str(out_path))
        assert rc == 0
        header, row = out_path.read_text().splitlines()
        assert header == "t_us,R_model,R_mc,R_mc_err"
        _, r_model, r_mc, r_err = (float(v) for v in row.split(","))
        assert abs(r_mc - r_model) < 4 * r_err

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "efficiency", "--t-ms", "0", "--format",
                         "json")
        assert rc == 0
        data = json.loads(out)
        assert data["rows"][0]["R_model"] == pytest.approx(0.77, abs=1e-12)


class TestBell:
    def test_calibrated_analytic_reproduces_paper_values(self, capsys):
        rc, out, _ = run(capsys, "bell", "--t-ms", "0,1.15,2.6",
                         "--mode", "analytic")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t_us,S,S_err"
        s_vals = [float(l.split(",")[1]) for l in lines[1:]]
        for got, want in zip(s_vals, (2.5, 2.05, 1.15)):
            assert got == pytest.approx(want, abs=0.03)

    def test_ideal_source_override_saturates_tsirelson(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "ideal.ini"
        cfg.write_text(IDEAL_CONFIG)
        rc, out, _ = run(capsys, "bell", "--t-ms", "0", "--mode", "analytic",
                         "--config", str(cfg))
        assert rc == 0
        s = float(out.splitlines()[1].split(",")[1])
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_montecarlo_agrees_with_analytic(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "bell", "--t-ms", "0", "--mode",
                         "montecarlo", "--trials", "400000", "--seed", "11")
        assert rc == 0
        t_us, s_mc, s_err = (float(v) for v in
                             out.splitlines()[1].split(","))
        rc, out, _ = run(capsys, "bell", "--t-ms", "0", "--mode", "analytic")
        s_an = float(out.splitlines()[1].split(",")[1])
        assert abs(s_mc - s_an) <= 3 * s_err


class TestMonteCarloSweeps:
    def test_values_are_the_library_sweeps(self, capsys):
        ts_ms = (0.0, 0.5)
        cfg = load_config(None, 21)
        n_cycles = 10  # 40000 trials
        rc, out, _ = run(capsys, "efficiency", "--montecarlo", "--t-ms",
                         "0,0.5", "--trials", "40000", "--seed", "21",
                         "--format", "json")
        assert rc == 0
        ests = montecarlo.retrieval_sweep(
            [t * 1e-3 for t in ts_ms], cfg.sequence,
            dataclasses.replace(cfg.source, werner_p0=1.0), cfg.decay,
            cfg.write_eta, cfg.read_eta, n_cycles, cfg.seed.child(0))
        assert [(r["R_mc"], r["R_mc_err"]) for r in json.loads(out)["rows"]] \
            == [(e.qubit.value, e.qubit.error) for e in ests]

        rc, out, _ = run(capsys, "bell", "--mode", "montecarlo", "--t-ms",
                         "0,0.5", "--trials", "40000", "--seed", "21",
                         "--resamples", "200", "--format", "json")
        assert rc == 0
        ests = montecarlo.bell_sweep(
            [t * 1e-3 for t in ts_ms], cfg.sequence, cfg.source, cfg.decay,
            cfg.write_eta, cfg.read_eta, n_cycles, cfg.seed.child(1),
            n_resamples=200)
        assert [(r["S"], r["S_err"]) for r in json.loads(out)["rows"]] \
            == [tuple(e) for e in ests]

    @pytest.mark.parametrize("argv", [
        ["efficiency", "--montecarlo"],
        ["bell", "--mode", "montecarlo"],
    ])
    def test_no_heralds_exits_3_without_output(self, argv, tmp_path,
                                               capsys):
        cfg = tmp_path / "off.ini"
        cfg.write_text("[source]\nchi = 0.0\n")
        out = tmp_path / "never.csv"
        rc, _, err = run(capsys, *argv, "--t-ms", "0,0.54", "--trials",
                         "4000", "--config", str(cfg), "--out", str(out))
        assert rc == 3
        assert "storage time 0 s" in err
        assert not out.exists()

    def test_bad_resamples_exits_2_before_any_run(self, tmp_path, capsys,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started despite a bad --resamples")

        monkeypatch.setattr(montecarlo, "run_trials", refuse)
        monkeypatch.setattr(_kernels, "count_runs", refuse)
        monkeypatch.setattr(montecarlo, "_poisson_resample", refuse)
        out = tmp_path / "out.csv"
        # past the upper bound only MAX_RESAMPLES + 1 is tried: it is
        # refused before any allocation, where a huge value accepted would
        # allocate
        for resamples in ("50", str(montecarlo.MAX_RESAMPLES + 1)):
            rc, _, err = run(capsys, "bell", "--mode", "montecarlo", "--t-ms",
                             "0", "--resamples", resamples, "--out", str(out))
            assert rc == 2
            assert f"n_resamples must lie in [100, {montecarlo.MAX_RESAMPLES}]" \
                in err
            assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    def test_symlink_target_is_written(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        rc, _, _ = run(capsys, "bell", "--t-ms", "0", "--out", str(link))
        assert rc == 0
        assert link.is_symlink()
        assert target.read_text().startswith("t_us,S,S_err\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                              "target.csv"]

    def test_pipe_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc, _, _ = run(capsys, "bell", "--t-ms", "0", "--out", str(fifo))
            assert rc == 0
            assert os.read(reader, 4096).startswith(b"t_us,S,S_err\n")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    # each case exits 2 before any work, naming the option and the path as
    # given, and leaves the directory as it was
    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--seconds", "200", "--dump", "ok.csv",
          "--out", "nodir/s.json"], "--out nodir/s.json: no such directory"),
        (["simulate", "--dump", "nodir/d.csv"],
         "--dump nodir/d.csv: no such directory"),
        (["bell", "--mode", "montecarlo", "--t-ms", "0",
          "--out", "nodir/b.csv"], "--out nodir/b.csv: no such directory"),
        (["efficiency", "--montecarlo", "--t-ms", "0",
          "--out", "nodir/e.csv"], "--out nodir/e.csv: no such directory"),
        (["repeater", "--out", "r.csv", "--summary-out", "nodir/r.json"],
         "--summary-out nodir/r.json: no such directory"),
        (["simulate", "--dump", "x.csv", "--out", "x.csv"],
         "--dump x.csv: same file as --out x.csv"),
        (["simulate", "--dump", "x.csv", "--out", "./sub/../x.csv"],
         "--dump x.csv: same file as --out ./sub/../x.csv"),
        (["repeater", "--out", "r.csv", "--summary-out", "r.csv"],
         "--summary-out r.csv: same file as --out r.csv"),
        (["bell", "--out", "sub"], "--out sub: is a directory"),
        (["simulate", "--dump", "sub/"], "--dump sub/: is a directory"),
        (["bell", "--out", ""], "--out : is a directory"),
    ])
    def test_bad_output_exits_2_before_any_work(self, argv, named, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        _refuse_work(monkeypatch, "output path")
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == "" and err == f"error: {named}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    # an output naming an input file exits 2 before any work, and the
    # input is left as it was
    @pytest.mark.parametrize("argv, named", [
        (["calibrate", "--which", "decay", "--data", "pts.csv",
          "--out", "pts.csv"], "--out pts.csv: same file as --data pts.csv"),
        (["calibrate", "--which", "decay", "--data", "pts.csv",
          "--config", "run.ini", "--out", "./sub/../run.ini"],
         "--out ./sub/../run.ini: same file as --config run.ini"),
        (["bell", "--mode", "montecarlo", "--t-ms", "0", "--config",
          "run.ini", "--out", "run.ini"],
         "--out run.ini: same file as --config run.ini")])
    def test_output_naming_an_input_exits_2(self, argv, named, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        inputs = {"pts.csv": "t_s,value,sigma\n0,0.77,0.01\n"
                             "0.00023,0.667,0.01\n0.00054,0.51,0.01\n",
                  "run.ini": "[source]\nchi = 0.5\n"}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        _refuse_work(monkeypatch, "output path")
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == "" and err == f"error: {named}\n"
        for name, text in inputs.items():
            assert (tmp_path / name).read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pts.csv", "run.ini", "sub"]

    def test_symlink_to_another_output_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        _refuse_work(monkeypatch, "output path")
        dump = tmp_path / "dump.csv"
        link = tmp_path / "link.json"
        link.symlink_to(dump)
        rc, _, err = run(capsys, "simulate", "--dump", str(dump),
                         "--out", str(link))
        assert rc == 2
        assert err == f"error: --dump {dump}: same file as --out {link}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["link.json"]

    def test_outputs_to_one_pipe_are_written_in_place(self, tmp_path,
                                                      capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc, _, _ = run(capsys, "repeater", "--points", "3",
                           "--out", str(fifo), "--summary-out", str(fifo))
            assert rc == 0
            text = os.read(reader, 65536)
        finally:
            os.close(reader)
        assert text.startswith(b"L_km,") and b'"status_counts"' in text
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--which", "decay", "--data", "pts.csv"],
        ["simulate", "--dump", "dump.csv"]], ids=["calibrate", "simulate"])
    def test_format_on_a_json_command_exits_2(self, argv, fmt, tmp_path,
                                              capsys, monkeypatch):
        # calibrate and simulate write JSON only, so they take no --format
        monkeypatch.chdir(tmp_path)
        _refuse_work(monkeypatch, "--format")
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--format", fmt, "--out", "out.json"])
        assert usage.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --format" in err
        assert list(tmp_path.iterdir()) == []

    def test_csv_cells_are_format_12g(self, tmp_path):
        # one "%.12g" format string per row writes the digits of
        # format(x, ".12g"), for a float and a numpy float alike
        values = [1e16, 5e-324, -0.0, math.inf, -math.inf, math.nan,
                  0.1 + 0.2]
        out = tmp_path / "table.csv"
        args = cli.build_parser().parse_args(["bell", "--out", str(out)])
        cli._write_table(args, ["x", "y"],
                         [[v, np.float64(-v)] for v in values])
        assert out.read_text().splitlines() == ["x,y"] + [
            f"{format(v, '.12g')},{format(-v, '.12g')}" for v in values]


class TestRepeater:
    def test_csv_header_is_pinned(self, capsys):
        rc, out, _ = run(capsys, "repeater", "--points", "5",
                         "--l-min-km", "50", "--l-max-km", "200")
        assert rc == 0
        assert out.splitlines()[0] == ("L_km,rate_per_s,P0,P0N,P1,P2,P3,P4,"
                                       "t0_s,t1_s,t2_s,t3_s,t4_s,Ppr")

    def test_two_r0_curves_cpe_dominates(self, tmp_path, capsys):
        paths = {}
        for r0 in ("0.77", "0.58"):
            p = tmp_path / f"curve_{r0}.csv"
            rc, _, _ = run(capsys, "repeater", "--points", "20",
                           "--l-min-km", "50", "--l-max-km", "800",
                           "--r0", r0, "--out", str(p))
            assert rc == 0
            paths[r0] = p
        for a, b in zip(paths["0.77"].read_text().splitlines()[1:],
                        paths["0.58"].read_text().splitlines()[1:]):
            assert float(a.split(",")[1]) >= float(b.split(",")[1])

    def test_summary_reports_crossing_and_flags(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        rc, _, _ = run(capsys, "repeater", "--points", "80",
                       "--l-min-km", "20", "--l-max-km", "2000",
                       "--target-rate", "1e-4",
                       "--summary-out", str(summary), "--out",
                       str(tmp_path / "c.csv"))
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["crossing_km"] is not None
        assert data["pr_nonphysical_units"] is False
        assert data["link_convention"] == "L_over_n"

    def test_crossing_into_a_collapse_is_reported(self, capsys):
        # the rate falls from above 1e-4 straight to a collapse between the
        # grid points at 435.8 and 545.8 km (a fine sweep crosses at 442 km)
        rc, out, _ = run(capsys, "repeater", "--link-convention", "L_over_n",
                         "--interpretation", "total_elapsed_time",
                         "--r0", "0.9277315906735355", "--chi", "0.1",
                         "--l-min-km", "1", "--l-max-km", "20000",
                         "--points", "45", "--format", "json")
        assert rc == 0
        assert 435.8 <= json.loads(out)["crossing_km"] <= 545.8

    def test_literal_interpretation_flagged(self, capsys):
        rc, out, _ = run(capsys, "repeater", "--points", "10",
                         "--l-min-km", "10", "--l-max-km", "100",
                         "--interpretation", "literal_L_over_tau",
                         "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["pr_nonphysical_units"] is True

    def test_full_collapse_exits_3(self, capsys):
        rc, out, err = run(capsys, "repeater", "--r0", "0.0", "--points",
                           "5", "--l-min-km", "50", "--l-max-km", "100")
        assert rc == 3
        assert "0 unreachable, 5 collapsed" in err

    def test_all_unreachable_exits_3_naming_the_status(self, capsys):
        rc, out, err = run(capsys, "repeater", "--chi", "1e-12",
                           "--l-min-km", "100000", "--l-max-km", "200000",
                           "--points", "5")
        assert rc == 3
        assert out == ""
        assert "5 unreachable, 0 collapsed" in err

    def test_nest_level_past_the_bound_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "deep.ini"
        cfg.write_text("[repeater]\nnest_level = 1100\n"
                       "link_convention = L_over_2_pow_n\n")
        out = tmp_path / "out.csv"
        rc, _, err = run(capsys, "repeater", "--config", str(cfg),
                         "--points", "5", "--out", str(out))
        assert rc == 2
        assert err.count("\n") == 1 and "nest_level" in err
        assert not out.exists()

    @pytest.mark.parametrize("convention", repeater.LINK_CONVENTIONS)
    def test_largest_nest_level_runs(self, convention, tmp_path, capsys):
        # a memory that outlives the chain, so every level is reached
        cfg = tmp_path / "deep.ini"
        cfg.write_text(f"[repeater]\nnest_level = {repeater.MAX_NEST_LEVEL}\n"
                       f"link_convention = {convention}\n"
                       "memory_lifetime_s = 1e30\n")
        rc, out, _ = run(capsys, "repeater", "--config", str(cfg),
                         "--points", "5", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["status_counts"]["ok"] == 5
        assert f"t{repeater.MAX_NEST_LEVEL}_s" in data["rows"][0]

    def test_json_rows_and_summaries_report_status(self, tmp_path, capsys):
        # chi 1e-3 from 1 to 1e5 km: ok, then collapsed at levels 4 to 1
        # and at the final rate, then unreachable
        argv = ["repeater", "--chi", "1e-3", "--l-min-km", "1",
                "--l-max-km", "1e5", "--points", "300"]
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        data = json.loads(out)
        rows = data["rows"]
        assert rows[0]["status"] == "ok"
        assert rows[-1]["status"] == "unreachable"
        for r in rows:
            assert set(r) == set(rows[0])
            if r["status"] != "collapsed":
                assert r["collapsed_at"] is None
            if r["collapsed_at"] is not None:
                level = r["collapsed_at"]
                assert r[f"P{level}"] == 0.0 and r["rate_per_s"] == 0.0
                assert all(r[f"P{j}"] > 0.0 for j in range(1, level))
        assert {r["collapsed_at"] for r in rows
                if r["status"] == "collapsed"} == {None, 1, 2, 3, 4}
        counts = {s: sum(r["status"] == s for r in rows)
                  for s in ("ok", "unreachable", "collapsed")}
        assert data["status_counts"] == counts
        summary = tmp_path / "summary.json"
        rc, _, _ = run(capsys, *argv, "--out", str(tmp_path / "c.csv"),
                       "--summary-out", str(summary))
        assert rc == 0
        assert json.loads(summary.read_text())["status_counts"] == counts

    def test_summary_out_under_json_is_the_payload_without_rows(
            self, tmp_path, capsys):
        out, summary = tmp_path / "curve.json", tmp_path / "summary.json"
        rc, _, _ = run(capsys, "repeater", "--points", "5", "--format",
                       "json", "--out", str(out), "--summary-out",
                       str(summary))
        assert rc == 0
        payload = json.loads(out.read_text())
        del payload["rows"]
        assert json.loads(summary.read_text()) == payload

    def test_rate_past_the_largest_float_exits_2_without_output(
            self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, "repeater", "--l-min-km", "1e-310",
                             "--l-max-km", "1e-300", "--points", "3",
                             "--out", str(out))
        assert rc == 2
        assert err.count("\n") == 1 and "distance 1e-310 km" in err
        assert not out.exists()

    @pytest.mark.parametrize("interpretation", ["total_elapsed_time",
                                                "flight_time"])
    def test_far_distances_are_unreachable_without_warnings(
            self, capsys, interpretation):
        # past 1.8e305 km the length in m passes the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, "repeater", "--l-min-km", "1e-3",
                               "--l-max-km", "1e308", "--points", "3",
                               "--interpretation", interpretation,
                               "--format", "json")
        assert rc == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["ok", "unreachable",
                                               "unreachable"]
        assert [r["t0_s"] for r in rows[1:]] == [math.inf, math.inf]

    def test_link_time_underflow_exits_2_naming_the_distance(
            self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, "repeater", "--l-min-km", "1e-320",
                             "--l-max-km", "1e-300", "--points", "3",
                             "--out", str(out))
        assert rc == 2
        assert err == ("error: distance 1e-320 km: one-link time "
                       "underflows to 0 s\n")
        assert not out.exists()

    def test_too_many_points_exits_2_before_any_work(self, tmp_path, capsys,
                                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite a bad --points")

        monkeypatch.setattr(repeater, "sweep_distance", refuse)
        monkeypatch.setattr(cli, "load_config", refuse)
        out = tmp_path / "out.csv"
        rc, _, err = run(capsys, "repeater", "--points",
                         str(cli.MAX_POINTS + 1), "--out", str(out))
        assert rc == 2
        assert "--points" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--points", "5"), ("--points", str(cli.MAX_POINTS + 1)),
        ("--l-min-km", "10"), ("--l-max-km", "100"), ("--grid", "log"),
        ("--r0", "0.77"), ("--chi", "0.02"),
        ("--link-convention", "L_over_n"),
        ("--interpretation", "total_elapsed_time"), ("--format", "csv"),
        ("--summary-out", "summary.json")])
    def test_anchor_report_with_a_grid_flag_exits_2(self, flag, value,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        # the report sweeps its own grid and sets the model flags and the
        # output itself: even a flag given at its default value is
        # refused, before the config is read
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_config", no_work)
        monkeypatch.setattr(repeater, "calibration_report", no_work)
        rc, stdout, err = run(capsys, "repeater", "--anchor-report", flag,
                              value, "--out", "report.json")
        assert rc == 2
        assert stdout == ""
        assert err.count("\n") == 1 and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("--target-rate", "nan"), ("--target-rate", "inf"),
        ("--target-rate", "0"), ("--target-rate", "-1"),
        ("--anchor-report", "--target-rate", "nan"),
        ("--anchor-report", "--target-rate", "inf"),
        ("--anchor-report", "--target-rate", "0"),
        ("--l-max-km", "inf"), ("--l-min-km", "nan"), ("--l-min-km", "0"),
        ("--l-min-km", "100", "--l-max-km", "50"), ("--points", "1")])
    def test_bad_sweep_input_exits_2_before_any_sweep(self, argv, tmp_path,
                                                      capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(cli, "load_config", no_work)
        monkeypatch.setattr(repeater, "calibration_report", no_work)
        monkeypatch.setattr(repeater, "sweep_distance", no_work)
        out = tmp_path / "out.json"
        rc, stdout, err = run(capsys, "repeater", *argv, "--out", str(out))
        assert rc == 2
        assert stdout == ""
        assert err.count("\n") == 1 and argv[-2] in err
        assert not out.exists()

    def test_anchor_report_header_names_the_report_anchors(self, capsys):
        rc, out, _ = run(capsys, "repeater", "--anchor-report")
        assert rc == 0
        data = json.loads(out)
        assert data["anchors_km"] == {"cpe": repeater.ANCHOR_CPE_KM,
                                      "cie": repeater.ANCHOR_CIE_KM}
        assert data["tolerance_fraction"] == repeater.ANCHOR_TOLERANCE

    def test_anchor_report_lists_all_combinations(self, capsys):
        rc, out, _ = run(capsys, "repeater", "--anchor-report")
        assert rc == 0
        data = json.loads(out)
        assert len(data["entries"]) == 18
        assert all(set(e) >= {"link_convention", "pr_exponent", "chi_mode",
                              "crossing_cpe_km", "crossing_cie_km",
                              "matches_anchors"} for e in data["entries"])


class TestCalibrate:
    def test_decay_fit_from_csv(self, tmp_path, capsys):
        data = tmp_path / "decay.csv"
        data.write_text("t_s,value,sigma\n0,0.77,0.01\n0.00023,0.667,0.01\n"
                        "0.00054,0.51,0.01\n")
        out = tmp_path / "cal.json"
        rc, _, _ = run(capsys, "calibrate", "--data", str(data), "--which",
                       "decay", "--out", str(out))
        assert rc == 0
        cal = json.loads(out.read_text())
        assert cal["decay"]["r0"] == pytest.approx(0.77, abs=0.01)
        assert cal["decay"]["tau0_s"] == pytest.approx(1e-3, abs=1e-4)

    def test_bell_fit_from_csv(self, tmp_path, capsys):
        data = tmp_path / "bell.csv"
        data.write_text("t_s,value,sigma\n0,2.5,0.02\n0.00115,2.05,0.03\n"
                        "0.0026,1.15,0.03\n")
        rc, out, _ = run(capsys, "calibrate", "--data", str(data), "--which",
                         "bell")
        assert rc == 0
        cal = json.loads(out)
        assert abs(cal["bell"]["residuals"][1]) <= 0.03

    def test_bad_csv_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n")
        rc, _, err = run(capsys, "calibrate", "--data", str(data), "--which",
                         "decay")
        assert rc == 2

    @pytest.mark.parametrize("row, message", [
        ("0.00115,inf,0.03", "value must be finite, got inf"),
        ("nan,0.51,0.03", "time must be finite, got nan"),
        ("0.00115,0.51,inf", "sigma must be finite, got inf"),
        ("0.00115,0.51", "expected 3 fields")])
    def test_bad_row_exits_2_naming_the_line(self, row, message, tmp_path,
                                             capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit started despite a bad row")

        monkeypatch.setattr(cal, "fit_decay", no_fit)
        data = tmp_path / "decay.csv"
        data.write_text(f"t_s,value,sigma\n0,0.77,0.01\n{row}\n"
                        "0.0026,0.4,0.03\n")
        out = tmp_path / "cal.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run(capsys, "calibrate", "--which", "decay",
                             "--data", str(data), "--out", str(out))
        assert rc == 2
        assert err == f"error: {data}, line 3: {message}\n"
        assert not out.exists()

    def test_zero_probability_model_exits_3_without_output(self, tmp_path,
                                                           capsys):
        # no retrieval and no background: no coincidence at any time
        data = tmp_path / "bell.csv"
        data.write_text("t_s,value,sigma\n0,2.5,0.02\n0.00115,2.05,0.03\n"
                        "0.0026,1.15,0.03\n")
        cfg = tmp_path / "dark.ini"
        cfg.write_text("[source]\np_noise = 0\n[decay]\nr0 = 0\n")
        out = tmp_path / "cal.json"
        rc, _, err = run(capsys, "calibrate", "--which", "bell", "--data",
                         str(data), "--config", str(cfg), "--out", str(out))
        assert rc == 3
        assert "storage time 0 s" in err and "zero probability" in err
        assert not out.exists()
        rc, _, err = run(capsys, "bell", "--mode", "analytic", "--t-ms",
                         "0,1", "--config", str(cfg), "--out", str(out))
        assert rc == 3
        assert "storage time 0 s" in err
        assert not out.exists()

    def test_bell_fit_out_of_budget_exits_3_without_output(self, tmp_path,
                                                           capsys):
        # these points drive the Bell fit to its evaluation budget
        data = tmp_path / "bell.csv"
        data.write_text("t_s,value,sigma\n0.000386,2.615,0.08\n"
                        "0.001363,0.238,0.056\n0.003109,1.762,0.077\n")
        out = tmp_path / "cal.json"
        rc, _, err = run(capsys, "calibrate", "--which", "bell", "--data",
                         str(data), "--out", str(out))
        assert rc == 3
        assert err == "error: Bell-model fit did not converge\n"
        assert not out.exists()

    def test_calibration_feeds_back_into_config(self, tmp_path, capsys):
        data = tmp_path / "bell.csv"
        data.write_text("t_s,value,sigma\n0,2.5,0.02\n0.00115,2.05,0.03\n"
                        "0.0026,1.15,0.03\n")
        cal_path = tmp_path / "cal.json"
        rc, _, _ = run(capsys, "calibrate", "--data", str(data), "--which",
                       "bell", "--out", str(cal_path))
        assert rc == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[source]\ncalibration_json = {cal_path}\n")
        rc, out, _ = run(capsys, "bell", "--t-ms", "0,1.15,2.6",
                         "--mode", "analytic", "--config", str(cfg))
        assert rc == 0
        s_vals = [float(l.split(",")[1]) for l in out.splitlines()[1:]]
        for got, want in zip(s_vals, (2.5, 2.05, 1.15)):
            assert got == pytest.approx(want, abs=0.03)


class TestSimulate:
    def test_one_second_is_80000_trials(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--seconds", "1", "--seed", "5")
        assert rc == 0
        data = json.loads(out)
        assert data["n_trials"] == 80000
        assert data["n_cycles"] == 20
        assert data["trials_per_cycle"] == 4000

    def test_chi_zero_summary(self, tmp_path, capsys):
        cfg = tmp_path / "off.ini"
        cfg.write_text("[source]\nchi = 0.0\n")
        rc, out, _ = run(capsys, "simulate", "--seconds", "0.5",
                         "--config", str(cfg))
        assert rc == 0
        data = json.loads(out)
        assert data["heralds"]["total"] == 0
        assert data["retrieval"] is None

    def test_same_seed_identical_dump(self, tmp_path, capsys):
        dumps = []
        for name in ("d1.csv", "d2.csv"):
            path = tmp_path / name
            rc, _, _ = run(capsys, "simulate", "--seconds", "0.2", "--seed",
                           "99", "--dump", str(path), "--out",
                           str(tmp_path / (name + ".json")))
            assert rc == 0
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]

    def test_failed_dump_leaves_no_partial_file(self, tmp_path, capsys,
                                                 monkeypatch):
        # the disk fills after the first block of rows is written
        record_lines = montecarlo._record_lines
        blocks = []

        def fill(*cols):
            if blocks:
                raise OSError("disk full")
            blocks.append(record_lines(*cols))
            return blocks[0]

        monkeypatch.setattr(montecarlo, "DUMP_ROWS", 1000)
        monkeypatch.setattr(montecarlo, "_record_lines", fill)
        out = tmp_path / "out.json"
        out.write_bytes(b"earlier run\n")
        dump = tmp_path / "dump.csv"
        rc, _, err = run(capsys, "simulate", "--seconds", "0.1", "--dump",
                         str(dump), "--out", str(out))
        assert rc == 2
        assert "disk full" in err
        assert len(blocks) == 1 and blocks[0].count(b"\n") == 1000
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
        assert out.read_bytes() == b"earlier run\n"

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        outs = []
        for w in ("1", "4"):
            rc, out, _ = run(capsys, "simulate", "--seconds", "1", "--seed",
                             "123", "--workers", w)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestConfigStrictness:
    # every INI key (but calibration_json, which sets no field) with a
    # value off its default, and the RunConfig attribute it must set, in SI
    KEYS = [
        ("source", "chi", "0.03", "source", "chi", 0.03),
        ("source", "p_noise", "2e-4", "source", "p_noise", 2e-4),
        ("source", "werner_p0", "0.8", "source", "werner_p0", 0.8),
        ("source", "vis_tau_gauss_ms", "2.5", "source", "vis_tau_gauss",
         2.5 * 1e-3),
        ("source", "vis_tau_exp_ms", "6.1", "source", "vis_tau_exp",
         6.1 * 1e-3),
        ("source", "phase_write_rad", "0.5", "source", "phase_write", 0.5),
        ("source", "phase_read_rad", "1.25", "source", "phase_read", 1.25),
        ("decay", "r0", "0.6", "decay", "r0", 0.6),
        ("decay", "tau0_ms", "1.9", "decay", "tau0", 1.9 * 1e-3),
        ("detection.write", "t_ocm", "0.25", "detection_write", "t_ocm",
         0.25),
        ("detection.write", "cavity_loss", "0.1", "detection_write",
         "cavity_loss", 0.1),
        ("detection.write", "eta_smf", "0.7", "detection_write", "eta_smf",
         0.7),
        ("detection.write", "eta_filter", "0.5", "detection_write",
         "eta_filter", 0.5),
        ("detection.write", "eta_mmf", "0.9", "detection_write", "eta_mmf",
         0.9),
        ("detection.write", "eta_det", "0.6", "detection_write", "eta_det",
         0.6),
        ("detection.write", "eta_fc", "0.4", "detection_write", "eta_fc",
         0.4),
        ("detection.read", "t_ocm", "0.3", "detection_read", "t_ocm", 0.3),
        ("detection.read", "cavity_loss", "0.12", "detection_read",
         "cavity_loss", 0.12),
        ("detection.read", "eta_smf", "0.65", "detection_read", "eta_smf",
         0.65),
        ("detection.read", "eta_filter", "0.55", "detection_read",
         "eta_filter", 0.55),
        ("detection.read", "eta_mmf", "0.95", "detection_read", "eta_mmf",
         0.95),
        ("detection.read", "eta_det", "0.66", "detection_read", "eta_det",
         0.66),
        ("detection.read", "eta_fc", "0.33", "detection_read", "eta_fc",
         0.33),
        ("sequence", "prep_ms", "40", "sequence", "prep_duration",
         40.0 * 1e-3),
        ("sequence", "run_ms", "10", "sequence", "run_duration", 10.0 * 1e-3),
        ("sequence", "trial_period_ns", "2500", "sequence", "trial_period",
         2500.0 * 1e-9),
        ("sequence", "storage_us", "540", "sequence", "storage_time",
         540.0 * 1e-6),
        ("repeater", "nest_level", "3", "repeater", "nest_level", 3),
        ("repeater", "mode_count", "500", "repeater", "mode_count", 500),
        ("repeater", "memory_lifetime_s", "8.5", "repeater",
         "memory_lifetime", 8.5),
        ("repeater", "eta_td", "0.8", "repeater", "eta_td", 0.8),
        ("repeater", "eta_fc", "0.4", "repeater", "eta_fc", 0.4),
        ("repeater", "chi", "0.01", "repeater", "chi", 0.01),
        ("repeater", "l_att_km", "20", "repeater", "attenuation_length",
         20.0),
        ("repeater", "r0", "0.7", "repeater", "r0", 0.7),
        ("repeater", "fiber_speed_m_per_s", "1.9e8", "repeater",
         "fiber_speed", 1.9e8),
        ("repeater", "link_convention", "L_over_2_pow_n", "repeater",
         "link_convention", "L_over_2_pow_n"),
        ("repeater", "pr_exponent", "flight_time", "repeater",
         "pr_exponent", "flight_time"),
        ("output", "seed", "7", "seed", "master_seed", 7),
    ]

    @pytest.mark.parametrize("section, key, text, group, attr, value", KEYS,
                             ids=[f"{k[0]}.{k[1]}" for k in KEYS])
    def test_every_key_sets_its_field_in_si(self, section, key, text, group,
                                            attr, value, tmp_path):
        cfg = tmp_path / "one.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n")
        got = load_config(str(cfg))
        assert getattr(getattr(got, group), attr) == value
        assert type(getattr(getattr(got, group), attr)) is type(value)
        # the key sets that field alone
        base = load_config()
        assert getattr(getattr(base, group), attr) != value
        assert got == dataclasses.replace(base, **{group: dataclasses.replace(
            getattr(base, group), **{attr: value})})

    def test_library_defaults_are_the_configs(self):
        # the key table is the only place a default is written, so a type
        # built without arguments is the one a config without keys builds,
        # to the last bit (repr) and field type
        cfg = load_config()
        chains = [dlczsim.DetectionChain(**{
            k: v for k, v in dataclasses.asdict(chain).items()
            if k != "eta_fc"}) for chain in (cfg.detection_write,
                                              cfg.detection_read)]
        for got, want in (
                (cfg.sequence, montecarlo.SequenceConfig()),
                (cfg.repeater, repeater.RepeaterParams()),
                (cfg.source, cal.default_source_params()),
                (cfg.decay, cal.default_decay_model()),
                (cfg.detection_write, chains[0]),
                (cfg.detection_read, chains[1])):
            assert repr(got) == repr(want)
            assert [type(v) for v in dataclasses.astuple(got)] \
                == [type(v) for v in dataclasses.astuple(want)]

    def test_unknown_key_rejected_no_partial_output(self, tmp_path, capsys):
        # an unknown key after a valid one; then keys of earlier versions
        # that nothing read, each after a valid key of its section; then
        # INI syntax errors, named by file and line
        for text, key in (
                ("[source]\nchi = 0.02\ntypo_key = 1\n", "typo_key"),
                ("[sequence]\nstorage_us = 1\nwrite_ns = 300\n", "write_ns"),
                ("[sequence]\nstorage_us = 1\nread_ns = 1\n", "read_ns"),
                ("[sequence]\nstorage_us = 1\nclean_ns = 1\n", "clean_ns"),
                ("[sequence]\nstorage_us = 1\npost_read_gap_ns = 1\n",
                 "post_read_gap_ns"),
                ("[repeater]\nnest_level = 4\nr0_compare = 1\n",
                 "r0_compare"),
                ("[source]\nchi = 0.02\n[source]\np_noise = 0\n",
                 "bad.ini, line 3"),
                ("chi = 0.02\n[source]\n", "bad.ini, line 1"),
                ("[source]\nchi = 0.02\nchi = 0.03\n", "bad.ini, line 3"),
                ("[source]\nchi = 0.02\nno key here\n", "bad.ini, line 3")):
            cfg = tmp_path / "bad.ini"
            cfg.write_text(text)
            out = tmp_path / "never.csv"
            rc, _, err = run(capsys, "efficiency", "--config", str(cfg),
                             "--out", str(out))
            assert rc == 2
            assert key in err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["efficiency", "--t-ms", "0"],
        ["efficiency", "--montecarlo", "--trials", "1", "--t-ms", "0"],
        ["bell", "--t-ms", "0"],
        ["bell", "--mode", "montecarlo", "--trials", "1", "--t-ms", "0"],
        ["simulate", "--seconds", "0.05"],
        ["repeater", "--points", "3"]],
        ids=["efficiency", "efficiency-mc", "bell", "bell-mc", "simulate",
             "repeater"])
    def test_retired_write_ns_rejected_by_every_command(self, argv, tmp_path,
                                                        capsys):
        # write_ns set a pulse width that no output read; every command
        # that reads a config refuses it as unknown, before any output
        cfg = tmp_path / "old.ini"
        cfg.write_text("[sequence]\nwrite_ns = 300\n")
        rc, out, err = run(capsys, *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "out.txt"))
        assert rc == 2
        assert out == ""
        assert "unknown key 'write_ns' in section [sequence]" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sourcery]\nchi = 0.02\n")
        rc, _, err = run(capsys, "efficiency", "--config", str(cfg))
        assert rc == 2

    INVALID = [
        ("source", "chi", "1.5", "chi"),
        ("source", "phase_write_rad", "inf", "phase_write"),
        ("source", "phase_read_rad", "nan", "phase_read"),
        ("sequence", "prep_ms", "inf", "prep_duration"),
        ("sequence", "run_ms", "inf", "run_duration"),
        ("sequence", "trial_period_ns", "inf", "trial_period"),
        # finite, but longer than the 8 ms run: no slot in a run
        ("sequence", "trial_period_ns", "9000000", "trial_period"),
        ("sequence", "storage_us", "nan", "storage_time"),
        ("sequence", "storage_us", "inf", "storage_time"),
    ]

    @pytest.mark.parametrize("argv", [
        ["bell", "--t-ms", "0"],
        ["bell", "--mode", "montecarlo", "--trials", "1", "--t-ms", "0"],
        ["efficiency", "--montecarlo", "--trials", "1", "--t-ms", "0"],
        ["simulate", "--seconds", "0.05"]],
        ids=["bell", "bell-mc", "efficiency-mc", "simulate"])
    @pytest.mark.parametrize("section, key, text, field", INVALID,
                             ids=[f"{k[1]}={k[2]}" for k in INVALID])
    def test_invalid_value_rejected(self, section, key, text, field, argv,
                                    tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n")
        rc, out, err = run(capsys, *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "out.txt"))
        assert rc == 2
        assert out == "" and field in err
        assert f"[{section}]" in err and key in err  # the INI key, not a field
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_file(self, capsys):
        rc, _, err = run(capsys, "bell", "--config", "/nonexistent.ini")
        assert rc == 2


class TestCalibrationJson:
    VALID = {"werner_p0": 0.9, "vis_tau_gauss_s": 0.002,
             "vis_tau_exp_s": 0.006}

    @pytest.mark.parametrize("payload", [
        "not json {",
        "[1, 2]",
        '"bell"',
        '{"bell": [0.9, 0.002, 0.006]}',
        '{"decay": 0.77}',
        '{"bell": {"werner_p0": 0.9, "vis_tau_exp_s": 0.006}}',
        '{"decay": {"r0": 0.77}}',
        '{"bell": {"werner_p0": "0.9", "vis_tau_gauss_s": 0.002, '
        '"vis_tau_exp_s": 0.006}}',
        '{"decay": {"r0": null, "tau0_s": 0.001}}',
        '{"decay": {"r0": true, "tau0_s": 0.001}}',
        '{"decay": {"r0": NaN, "tau0_s": 0.001}}',
        '{"decay": {"r0": 0.77, "tau0_s": Infinity}}',
        '{"decay": {"r0": 0.77, "tau0_s": 1' + "0" * 400 + '}}',
    ])
    def test_bad_file_exits_2_without_output(self, payload, tmp_path,
                                             capsys):
        cal = tmp_path / "cal.json"
        cal.write_text(payload)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[source]\ncalibration_json = {cal}\n")
        out = tmp_path / "out.csv"
        rc, _, err = run(capsys, "bell", "--config", str(cfg), "--t-ms", "0",
                         "--out", str(out))
        assert rc == 2
        assert "calibration" in err
        assert not out.exists()

    def test_missing_file_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[source]\ncalibration_json = {tmp_path / 'no.json'}\n")
        rc, _, err = run(capsys, "bell", "--config", str(cfg), "--t-ms", "0")
        assert rc == 2
        assert "[source] calibration_json" in err and "no.json" in err

    def test_calibrated_values_reach_the_model_unscaled(self, tmp_path):
        # each of these changes in a round trip through milliseconds
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({
            "bell": {"werner_p0": 0.9,
                     "vis_tau_gauss_s": 0.0014302060167127723,
                     "vis_tau_exp_s": 0.0031},
            "decay": {"r0": 0.5, "tau0_s": 0.0014302060167127723}}))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[source]\ncalibration_json = {cal}\n")
        got = load_config(str(cfg))
        assert got.source.vis_tau_gauss == 0.0014302060167127723
        assert got.source.vis_tau_exp == 0.0031
        assert got.decay.tau0 == 0.0014302060167127723
        # explicit keys still win, converted from ms as before
        cfg.write_text(f"[source]\ncalibration_json = {cal}\n"
                       f"vis_tau_exp_ms = 7.3\n[decay]\ntau0_ms = 1.9\n")
        got = load_config(str(cfg))
        assert got.source.vis_tau_gauss == 0.0014302060167127723
        assert got.source.vis_tau_exp == 7.3 * 1e-3
        assert got.decay.tau0 == 1.9 * 1e-3

    def test_sections_are_optional(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text('{"decay": {"r0": 0.5, "tau0_s": 0.002}}')
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[source]\ncalibration_json = {cal}\n")
        got = load_config(str(cfg))
        assert (got.decay.r0, got.decay.tau0) == (0.5, 0.002)
        assert got.source == load_config().source


def _refuse_work_at(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"work started despite a bad {what}")
    return refuse


def _refuse_work(monkeypatch, what):
    refuse = _refuse_work_at(what)
    monkeypatch.setattr(montecarlo, "run_trials", refuse)
    monkeypatch.setattr(_kernels, "count_runs", refuse)
    monkeypatch.setattr(repeater, "sweep_distance", refuse)
    monkeypatch.setattr(cli, "load_config", refuse)
    monkeypatch.setattr(cal, "fit_decay", refuse)


class TestRunSizeBound:
    @pytest.mark.parametrize("seconds", ["inf", "-inf", "nan", "0", "-1"])
    def test_bad_seconds_exits_2_before_any_work(self, seconds, tmp_path,
                                                 capsys, monkeypatch):
        _refuse_work(monkeypatch, "--seconds")
        rc, out, err = run(capsys, "simulate", f"--seconds={seconds}",
                           "--out", str(tmp_path / "out.json"),
                           "--dump", str(tmp_path / "dump.csv"))
        assert rc == 2
        assert out == "" and "--seconds" in err
        assert list(tmp_path.iterdir()) == []

    def test_seconds_past_the_largest_cycle_count_exits_2(self, tmp_path,
                                                          capsys):
        # finite, but 1e308 s / 50 ms overflows the cycle count to inf
        rc, out, err = run(capsys, "simulate", "--seconds", "1e308",
                           "--out", str(tmp_path / "out.json"))
        assert rc == 2
        assert out == "" and "--seconds" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("trials", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["efficiency", "--montecarlo", "--t-ms", "0"],
        ["bell", "--mode", "montecarlo", "--t-ms", "0"]])
    def test_bad_trials_exits_2_before_any_work(self, argv, trials, tmp_path,
                                                capsys, monkeypatch):
        _refuse_work(monkeypatch, "--trials")
        rc, out, err = run(capsys, *argv, f"--trials={trials}",
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and "--trials" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--points", "1"), ("--points", str(cli.MAX_POINTS + 1)),
        pytest.param("--t-ms", ",".join(["0"] * (cli.MAX_POINTS + 1)),
                     id=f"--t-ms-{cli.MAX_POINTS + 1}-entries")])
    @pytest.mark.parametrize("argv", [
        ["efficiency"], ["efficiency", "--montecarlo"],
        ["bell"], ["bell", "--mode", "montecarlo"]],
        ids=["efficiency", "efficiency-mc", "bell", "bell-mc"])
    def test_storage_time_grid_out_of_bounds_exits_2(self, argv, flag, value,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        _refuse_work(monkeypatch, flag)
        rc, out, err = run(capsys, *argv, flag, value,
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and flag in err and str(cli.MAX_POINTS) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--t-ms", "inf"), ("--t-ms", "nan"), ("--t-ms", "0,1,inf"),
        ("--t-max-ms", "inf")])
    @pytest.mark.parametrize("argv", [
        ["efficiency"], ["efficiency", "--montecarlo"],
        ["bell"], ["bell", "--mode", "montecarlo"]],
        ids=["efficiency", "efficiency-mc", "bell", "bell-mc"])
    def test_non_finite_storage_time_exits_2_before_any_work(
            self, argv, flag, value, tmp_path, capsys, monkeypatch):
        _refuse_work(monkeypatch, flag)
        rc, out, err = run(capsys, *argv, f"{flag}={value}",
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--t-ms", "1e308"), ("--t-ms", "0,1e306"), ("--t-max-ms", "1e308")])
    @pytest.mark.parametrize("argv", [
        ["efficiency"], ["efficiency", "--montecarlo"],
        ["bell"], ["bell", "--mode", "montecarlo"]],
        ids=["efficiency", "efficiency-mc", "bell", "bell-mc"])
    def test_storage_time_past_the_float_range_in_us_exits_2(
            self, argv, flag, value, tmp_path, capsys, monkeypatch):
        # finite in ms, but the t_us column would read inf
        _refuse_work(monkeypatch, flag)
        rc, out, err = run(capsys, *argv, f"{flag}={value}",
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and flag in err and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, row", [
        (["efficiency"], "1e+203,0"), (["bell"], "1e+203,0,0")],
        ids=["efficiency", "bell"])
    def test_storage_time_past_the_decay_square_reads_zero(self, argv, row,
                                                           capsys):
        # (t / tau_gauss)**2 passes the largest float: exp(-inf) is 0,
        # with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, *argv, "--t-ms", "1e200")
        assert rc == 0 and err == ""
        assert out.splitlines()[1:] == [row]

    def test_montecarlo_storage_time_past_the_decay_square_runs(self,
                                                                capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, _ = run(capsys, "efficiency", "--montecarlo",
                           "--t-ms", "1e200")
        assert rc in (0, 3)

    @pytest.mark.parametrize("run_ms", ["1e12", "393.218"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--seconds", "1"],
        ["efficiency", "--montecarlo", "--t-ms", "0"],
        ["bell", "--mode", "montecarlo", "--t-ms", "0"]],
        ids=["simulate", "efficiency-mc", "bell-mc"])
    def test_slots_per_run_past_the_bound_exits_2(self, argv, run_ms,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        # 5e14 and 196,609 slots of 2 us: refused before any allocation
        _refuse_work(monkeypatch, "[sequence] run_ms")
        monkeypatch.setattr(cli, "load_config", load_config)
        cfg = tmp_path / "big.ini"
        cfg.write_text(f"[sequence]\nrun_ms = {run_ms}\n")
        rc, out, err = run(capsys, *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "out.txt"))
        assert rc == 2
        assert out == "" and "run_duration" in err
        assert str(montecarlo.MAX_SLOTS_PER_RUN) in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flags", [
        ["--t-min-ms", "0"], ["--t-max-ms", "3"], ["--points", "61"],
        ["--points", "5", "--t-min-ms", "1"]])
    @pytest.mark.parametrize("command", ["efficiency", "bell"])
    def test_t_ms_with_a_grid_flag_exits_2(self, command, flags, tmp_path,
                                           capsys, monkeypatch):
        # --t-ms lists the storage times, so a grid flag would do nothing:
        # even one given at its default value is refused
        _refuse_work(monkeypatch, "--t-ms")
        rc, out, err = run(capsys, command, "--t-ms", "0,1", *flags,
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and err.count("\n") == 1 and "--t-ms" in err
        assert all(flag in err for flag in flags[::2])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [str(2 ** 80), "1e23", "1e300"])
    def test_seconds_past_the_trials_bound_exits_2(self, value, tmp_path,
                                                   capsys, monkeypatch):
        # 1e23 s are 2e24 cycles of 4000 trials, past the uint64 cycle
        # keys: refused once the config gives the cycle, before any trial
        _refuse_work(monkeypatch, "--seconds")
        monkeypatch.setattr(cli, "load_config", load_config)
        rc, out, err = run(capsys, "simulate", "--seconds", value,
                           "--out", str(tmp_path / "out.json"),
                           "--dump", str(tmp_path / "dump.csv"))
        assert rc == 2
        assert out == "" and "--seconds" in err and str(cli.MAX_TRIALS) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [str(2 ** 80), str(10 ** 23),
                                       str(10 ** 300), str(10 ** 400),
                                       str(cli.MAX_TRIALS + 1)],
                             ids=["2**80", "1e23", "1e300", "1e400",
                                  "bound+1"])
    @pytest.mark.parametrize("argv", [
        ["efficiency", "--montecarlo", "--t-ms", "0"],
        ["bell", "--mode", "montecarlo", "--t-ms", "0"]],
        ids=["efficiency-mc", "bell-mc"])
    def test_trials_past_the_bound_exit_2_before_any_work(self, argv, value,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        _refuse_work(monkeypatch, "--trials")
        rc, out, err = run(capsys, *argv, "--trials", value,
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and "--trials" in err and str(cli.MAX_TRIALS) in err
        assert list(tmp_path.iterdir()) == []

    def test_trials_at_the_bound_reach_the_work(self, monkeypatch):
        _refuse_work(monkeypatch, "--trials")
        with pytest.raises(AssertionError, match="work started"):
            main(["bell", "--mode", "montecarlo", "--t-ms", "0",
                  "--trials", str(cli.MAX_TRIALS)])

    def test_storage_time_grid_at_the_bound_runs(self, capsys):
        rc, out, _ = run(capsys, "bell", "--points", str(cli.MAX_POINTS))
        assert rc == 0
        assert len(out.splitlines()) == cli.MAX_POINTS + 1


class TestIgnoredFlags:
    @pytest.mark.parametrize("argv", [
        ["repeater", "--points", "5"], ["repeater", "--anchor-report"],
        ["calibrate", "--which", "decay", "--data", "pts.csv"]],
        ids=["repeater", "anchor-report", "calibrate"])
    def test_seed_of_a_command_without_trials_exits_2(self, argv, tmp_path,
                                                      capsys, monkeypatch):
        # neither command draws a trial, so --seed would change no byte
        monkeypatch.chdir(tmp_path)
        _refuse_work(monkeypatch, "--seed")
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--seed", "1", "--out", "out"])
        assert usage.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --seed" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flags", [
        (["efficiency"], ["--seed", "1"]),
        (["efficiency"], ["--trials", "200000"]),
        (["efficiency"], ["--workers", "1"]),
        (["efficiency"], ["--seed", "2", "--trials", "7", "--workers", "3"]),
        (["bell"], ["--seed", "1"]),
        (["bell", "--mode", "analytic"], ["--trials", "1000000"]),
        (["bell"], ["--workers", "3"]),
        (["bell"], ["--resamples", "100"]),
        (["bell"], ["--trials", "7", "--workers", "3", "--resamples", "200"])])
    def test_sampling_flag_of_an_analytic_mode_exits_2(self, argv, flags,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        # an analytic curve samples no trials: even a flag given at its
        # default value is refused, before the config is read
        _refuse_work(monkeypatch, flags[0])
        rc, out, err = run(capsys, *argv, "--t-ms", "0,1", *flags,
                           "--out", str(tmp_path / "out.csv"))
        assert rc == 2
        assert out == "" and err.count("\n") == 1
        assert "no trials" in err and all(f in err for f in flags[::2])
        assert list(tmp_path.iterdir()) == []


class TestCheckRange:
    @pytest.mark.parametrize("value", [1, 64])
    def test_both_bounds_pass(self, value):
        cli._check_range(argparse.Namespace(workers=value), "workers", 1, 64)

    @pytest.mark.parametrize("value, got", [
        (0, "got 0"), (65, "got 65"), (10 ** 23, "got 1e+23"),
        (10 ** 400, "got a 401-digit number"),
        (-10 ** 400, "got a 401-digit number")],
        ids=["below", "above", "1e23", "1e400", "-1e400"])
    def test_message_names_flag_bounds_and_value(self, value, got):
        with pytest.raises(ValueError) as info:
            cli._check_range(argparse.Namespace(workers=value), "workers",
                             1, 64)
        assert str(info.value) == f"--workers must lie in [1, 64], {got}"


class TestWorkersBound:
    COMMANDS = {
        "efficiency": ["efficiency", "--montecarlo", "--t-ms", "0"],
        "bell": ["bell", "--mode", "montecarlo", "--t-ms", "0"],
        "simulate": ["simulate"],
    }

    @pytest.mark.parametrize("workers", ["0", "-3", str(cli.MAX_WORKERS + 1),
                                         "100000"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_of_range_exits_2_before_any_work(self, command, workers,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite a bad --workers")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            refuse)
        monkeypatch.setattr(montecarlo, "run_trials", refuse)
        monkeypatch.setattr(cli, "load_config", refuse)
        threads = threading.active_count()
        out = tmp_path / "out.csv"
        argv = self.COMMANDS[command] + ["--workers", workers,
                                         "--out", str(out)]
        if command == "simulate":
            argv += ["--dump", str(tmp_path / "dump.csv")]
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "--workers" in err
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads


def _numeric_flags() -> dict:
    """Subcommand -> its int and float options, read from the parser."""
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[0] for a in p._actions
                   if a.type in (int, float)]
            for name, p in sub.choices.items()}


NUMERIC_FLAGS = _numeric_flags()
EDGE_VALUES = ["nan", "inf", "-inf", "-0", "0", "-1", "1e-320", "1e308",
               str(2 ** 80)]
# each subcommand in each of its modes, with the inputs it requires
MODES = [["efficiency"], ["efficiency", "--montecarlo"], ["bell"],
         ["bell", "--mode", "montecarlo"], ["repeater"],
         ["repeater", "--anchor-report"],
         ["calibrate", "--which", "decay", "--data", "pts.csv"],
         ["simulate", "--dump", "dump.csv"]]


@st.composite
def edge_argv(draw):
    mode = draw(st.sampled_from([m for m in MODES if NUMERIC_FLAGS[m[0]]]))
    given = draw(st.dictionaries(st.sampled_from(NUMERIC_FLAGS[mode[0]]),
                                 st.sampled_from(EDGE_VALUES),
                                 min_size=1, max_size=3))
    return mode + [f"{flag}={value}" for flag, value in given.items()]


# every key of the INI table, and the syntax faults a file may have
INI_KEYS = [(section, key) for section, keys in config.KEYS.items()
            for key in keys]
INI_FAULTS = [None, "duplicate section", "missing header", "duplicate option"]


@st.composite
def edge_ini(draw):
    """INI text with one to three keys of the table at edge values, grouped
    by section, and at most one syntax fault."""
    given = draw(st.dictionaries(st.sampled_from(INI_KEYS),
                                 st.sampled_from(EDGE_VALUES),
                                 min_size=1, max_size=3))
    blocks = {}
    for (section, key), value in given.items():
        blocks.setdefault(section, [f"[{section}]"]).append(f"{key} = {value}")
    blocks = list(blocks.values())
    fault = draw(st.sampled_from(INI_FAULTS))
    if fault == "duplicate section":
        blocks.append(blocks[0][:1])
    elif fault == "missing header":
        blocks[0] = blocks[0][1:]
    elif fault == "duplicate option":
        blocks[0].append(blocks[0][1])
    return "".join(line + "\n" for block in blocks for line in block)


class TestGeneratedInput:
    def test_every_subcommand_but_calibrate_has_numeric_flags(self):
        # calibrate takes paths and choices only
        assert set(NUMERIC_FLAGS) == {m[0] for m in MODES}
        assert [name for name, flags in NUMERIC_FLAGS.items()
                if not flags] == ["calibrate"]

    # the directory is shared by the examples: no example writes a file
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=edge_argv())
    def test_edge_values_exit_0_2_or_3(self, argv, tmp_path, capsys,
                                       monkeypatch):
        # an input that reaches the refused work is accepted
        monkeypatch.chdir(tmp_path)
        _refuse_work(monkeypatch, "edge value")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rc = main([*argv, "--out", "out"])
            except SystemExit as usage:
                rc = usage.code
            except AssertionError as refused:
                assert "work started" in str(refused)
                rc = None
        _, err = capsys.readouterr()
        assert rc in (None, 0, 2, 3)
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(MODES), text=edge_ini())
    def test_ini_edge_values_and_faults_exit_0_2_or_3(self, mode, text,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        # the config is read; the work after it, and any output, is refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.ini").write_text(text)
        (tmp_path / "pts.csv").write_text("t_s,value,sigma\n0,0.5,0.1\n")
        _refuse_work(monkeypatch, "config value")
        monkeypatch.setattr(cli, "load_config", load_config)
        monkeypatch.setattr(cli, "_write_text", _refuse_work_at("output"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rc = main([*mode, "--config", "cfg.ini", "--out", "out"])
            except AssertionError as refused:
                assert "work started" in str(refused)
                rc = None
        _, err = capsys.readouterr()
        assert rc in (None, 0, 2, 3)
        assert "Traceback" not in err
        if rc == 2:  # a syntax fault names its line, a bad value its key
            keys = [line.split(" = ")[0] for line in text.splitlines()
                    if " = " in line]
            assert "line " in err or any(f" {key}" in err for key in keys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini",
                                                              "pts.csv"]


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_a_call_leaves_nothing_to_the_next(self, capsys):
        rc, alone, _ = run(capsys, "repeater")
        assert rc == 0
        with pytest.raises(SystemExit) as usage:
            main(["repeater", "--grid", "hex"])
        assert usage.value.code == 2
        assert run(capsys, "repeater", "--points", "1")[0] == 2
        assert run(capsys, "repeater", "--points", "5")[0] == 0
        # cmd_repeater fills the grid flags into its namespace: a shared
        # namespace would carry --points 5 into the default run
        rc, again, _ = run(capsys, "repeater")
        assert rc == 0
        assert again == alone

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        assert cli.build_parser() is not cli.build_parser()
        built = []
        build = cli.build_parser

        def counted():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        assert run(capsys, "efficiency", "--t-ms", "0")[0] == 0
        assert run(capsys, "bell", "--t-ms", "0")[0] == 0
        assert run(capsys, "repeater", "--points", "3")[0] == 0
        with pytest.raises(SystemExit):
            main(["simulate", "--seconds", "x"])
        assert len(built) == 1


def _loaded_by_cli_import(module):
    """Whether ``import dlczsim.cli`` in a fresh interpreter loads
    ``module``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dlczsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, dlczsim.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize costs about half a second and 50 MB; only the fits
    # need it, so importing the CLI must not pull it in
    assert not _loaded_by_cli_import("scipy.optimize")


def test_cli_import_leaves_thread_pool_unloaded():
    # concurrent.futures and the logging it loads cost the import about
    # 7 ms; only a run on several worker threads needs them
    assert not _loaded_by_cli_import("concurrent.futures")
