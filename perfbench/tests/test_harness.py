"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402

import dlczsim  # noqa: E402
from dlczsim import cli, montecarlo, repeater  # noqa: E402


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_subtracts_direct_children_on_one_thread():
    spans = [Span("a", 1, 0.0, 10.0), Span("b", 1, 2.0, 5.0),
             Span("c", 1, 6.0, 8.0), Span("d", 1, 6.5, 7.0)]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 1.5, 0.5])


def test_self_time_with_two_overlapping_worker_threads():
    # main thread waits on two workers whose spans overlap each other in time
    spans = [Span("run", 1, 0.0, 10.0),
             Span("kernel", 2, 1.0, 9.0), Span("hash", 2, 2.0, 4.0),
             Span("kernel", 3, 1.5, 9.5), Span("hash", 3, 3.0, 6.0)]
    # work on other threads never subtracts from the waiting span
    assert self_times(spans) == pytest.approx([10.0, 6.0, 2.0, 5.0, 3.0])


def test_layer_metrics_sum_self_time_across_threads():
    tracer = Tracer([Target("dlczsim._kernels", "counts_kernel", "k")])
    tracer.spans = [Span("k", 2, 0.0, 3.0), Span("k", 3, 1.0, 2.0)]
    out = tracing.layer_metrics(tracer)
    assert out["k.self_s"] == pytest.approx(4.0)
    assert out["k.calls"] == 2


# -- wrappers -------------------------------------------------------------------

def _current():
    return [getattr(importlib.import_module(t.module), t.attr)
            for t in tracing.TARGETS]


def test_wrappers_installed_then_restored():
    before = _current()
    with Tracer():
        assert all(a is not b for a, b in zip(_current(), before))
    assert all(a is b for a, b in zip(_current(), before))


def test_wrappers_restored_when_the_traced_code_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(), before))


def test_missing_function_or_module_is_absent_not_fatal():
    sweep = next(t for t in tracing.TARGETS if t.attr == "sweep_distance")
    targets = (Target("dlczsim._kernels", "no_such_kernel", "kernels.gone"),
               Target("dlczsim.no_such_module", "f", "gone.module"), sweep)
    with Tracer(targets) as tracer:
        repeater.sweep_distance(repeater.RepeaterParams(), 10.0, 100.0, 5)
    assert tracer.absent == ["kernels.gone", "gone.module"]
    out = tracing.layer_metrics(tracer)
    assert out["repeater.sweep_distance.calls"] == 1
    assert out["repeater.sweep_distance.points"] == 5
    assert not any(k.startswith(("kernels.gone", "gone.")) for k in out)


def test_counts_and_spans_from_a_threaded_run():
    before = montecarlo.run_trials
    with Tracer() as tracer:
        res = montecarlo.run_trials(
            montecarlo.SequenceConfig().with_storage_time(10e-6),
            dlczsim.default_source_params(chi=0.5),
            dlczsim.default_decay_model(), 0.9, 0.15,
            dlczsim.MeasurementSettings(0, 0), 8, montecarlo.SeedSpec(3),
            n_workers=2)
    assert montecarlo.run_trials is before
    out = tracing.layer_metrics(tracer)
    assert out["kernels.counts_kernel.calls"] == 2
    assert out["kernels.counts_kernel.slots_run"] == res.n_trials
    assert out["montecarlo.run_trials.slots_run"] == res.n_trials
    assert out["kernels.counts_kernel.heralds"] == (res.counts.s1
                                                    + res.counts.s2)
    assert out["kernels.trial_uniforms_numpy.hashes"] >= 8 * 4000
    tids = {s.tid for s in tracer.spans if s.layer == "kernels.counts_kernel"}
    assert threading.get_ident() not in tids
    assert 0.0 < out["montecarlo.run_trials.blocked_frac"] < 1.0


# -- output checks --------------------------------------------------------------

@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _dense_plan():
    return workloads.plan("chsh_dense_blocking", 5, ".", workers=1,
                          scale=0.05)


def test_recorded_digest_passes_and_a_tampered_output_fails(in_tmp):
    plan = _dense_plan()
    (cmd,) = plan.commands
    assert cli.main(list(cmd.argv)) == 0
    digests = {workloads.digest_key(cmd):
               [workloads.sha256_file(p) for p in cmd.outputs]}
    assert workloads.check(cmd, 0, digests) == []

    # one more digit on the first S: still parses and passes 5 sigma
    with open(cmd.outputs[0], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t_us, s, err = lines[1].split(",")
    lines[1] = ",".join([t_us, s + "1", err])
    with open(cmd.outputs[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert workloads.check(cmd, 0, {}) == []
    assert workloads.check(cmd, 0, digests) == [
        "output differs from its recorded sha256"]


def test_tampered_digest_counts_as_a_failed_command(in_tmp):
    plan = _dense_plan()
    (cmd,) = plan.commands
    runner = child.Runner(cli, {workloads.digest_key(cmd): ["0" * 64]})
    runner.run("untraced", plan)
    assert (runner.attempted, runner.failed) == (1, 1)
    runner = child.Runner(cli, {})
    runner.run("untraced", plan)
    assert (runner.attempted, runner.failed) == (1, 0)


def test_estimate_outside_five_sigma_fails_the_statistical_check(in_tmp):
    (cmd,) = _dense_plan().commands
    assert cli.main(list(cmd.argv)) == 0
    with open(cmd.outputs[0], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t_us, s, err = lines[1].split(",")
    lines[1] = ",".join([t_us, repr(float(s) - 6 * float(err)), err])
    with open(cmd.outputs[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    (problem,) = workloads.check(cmd, 0, {})
    assert "sigma" in problem


def test_nonzero_exit_and_garbage_output_fail(in_tmp):
    (cmd,) = _dense_plan().commands
    assert workloads.check(cmd, 3, {}) == ["exit code 3"]
    with open(cmd.outputs[0], "w", encoding="utf-8") as fh:
        fh.write("not,a,csv\n")
    assert workloads.check(cmd, 0, {})[0].startswith("output does not parse")


# -- smoke runs ---------------------------------------------------------------

# Smallest sizes at which each workload still has statistics everywhere.
# bell_paper_sparse keeps its full size: below it the 2.6 ms point has too
# few coincidences for a 5-sigma check.
SMOKE_SCALE = {"chsh_dense_blocking": 0.05, "bell_paper_sparse": 1.0,
               "simulate_dump": 0.1, "analytic_figures": 1.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload_passes_its_check(workload, in_tmp):
    plan = workloads.plan(workload, 7, ".", scale=SMOKE_SCALE[workload])
    runner = child.Runner(cli, {})
    with Tracer():
        runner.run("traced", plan)
    assert runner.problems == []
    assert (runner.attempted, runner.failed) == (len(plan.commands), 0)


def test_same_seed_same_inputs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    for name in workloads.WORKLOADS:
        pa = workloads.plan(name, 11, str(a))
        assert pa == workloads.plan(name, 11, str(b))
        pc = workloads.plan(name, 12, str(c))
        assert pc.slots == pa.slots
        assert pc != pa or not any(cmd.montecarlo for cmd in pa.commands)
    assert (a / "decay_points.csv").read_bytes() != (
        c / "decay_points.csv").read_bytes()
    for f in os.listdir(a):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_recorded_digests_name_only_montecarlo_commands(tmp_path):
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    for name, entries in recorded.items():
        assert name in workloads.WORKLOADS
        for argv, shas in entries.items():
            assert argv.split()[0] in ("bell", "efficiency", "simulate")
            assert all(len(s) == 64 for s in shas)


# -- the entry point ---------------------------------------------------------

def _bench(cwd, *argv):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_entry_point_prints_every_published_metric(trace, key):
    out = _bench(ROOT, "--workload", "analytic_figures", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec[key]]
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_entry_point_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = _bench(tmp_path, "--workload", "analytic_figures", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
