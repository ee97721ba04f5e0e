"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a list of ``dlczsim`` command lines that one client runs back
to back. ``plan`` writes the workload's input files into a work directory
and returns its commands; every input (INI files, calibration CSVs and each
command's ``--seed``) depends only on the workload seed, and no seed changes
the amount of work. ``check`` validates what a command wrote.

This module imports only the standard library at module level, so the
benchmark can build plans before ``dlczsim`` is imported; the checks import
``dlczsim`` lazily for the analytic values they compare against.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

# Packaged [sequence] timing: 8 ms run window of 2000 ns slots, 50 ms cycle.
TRIALS_PER_CYCLE = 4000
CYCLE_S = 0.050

# Sizes of the Monte Carlo commands at scale 1. SPARSE_TRIALS gives about
# 14 coincidences per CHSH setting at 2.6 ms storage (p_herald 0.003, 1300
# blocked slots per herald), so no seed leaves a point without statistics.
SPARSE_TRIALS = 5_000_000
DENSE_TRIALS = 1_200_000
SIM_SECONDS = 10.0

# p_herald = chi * write_eta = 0.5 * 0.9 / 0.91 ~ 0.49 with the other write
# etas at 1; read chain and source keep their packaged values.
DENSE_INI = """\
[source]
chi = 0.5

[detection.write]
t_ocm = 0.9
cavity_loss = 0.01
eta_smf = 1.0
eta_filter = 1.0
eta_mmf = 1.0
eta_det = 1.0
eta_fc = 1.0
"""

# The paper's 50%-efficiency storage time.
SIM_INI = """\
[sequence]
storage_us = 540
"""

# Paper CHSH points (t_s, S, sigma) and decay constants.
PAPER_BELL = ((0.0, 2.5, 0.02), (1.15e-3, 2.05, 0.03), (2.6e-3, 1.15, 0.03))
PAPER_R0 = 0.77
PAPER_TAU0_S = 1e-3

# Tolerances of the repository's acceptance and CLI tests.
SIGMAS = 5.0
ANALYTIC_S_TOL = 0.03
DECAY_ANCHORS = ((0.23e-3, 0.667), (0.54e-3, 0.512))
DECAY_ANCHOR_TOL = 0.005
FIT_RESIDUAL_TOL = 0.03
ANCHOR_CPE_KM, ANCHOR_CIE_KM, ANCHOR_TOL = 1000.0, 430.0, 0.15
REPORT_ENTRIES = 18

WORKLOADS = ("chsh_dense_blocking", "bell_paper_sparse", "simulate_dump",
             "analytic_figures")


@dataclass(frozen=True)
class Command:
    """One ``dlczsim`` invocation and what its check needs to know."""

    argv: tuple
    check: str               # key into CHECKS
    outputs: tuple           # files the command writes, relative to the work dir
    config: Optional[str] = None
    slots: int = 0           # write slots simulated (cycles x slots per cycle)
    compare_to: Optional[str] = None  # curve the check compares against

    @property
    def montecarlo(self) -> bool:
        return self.slots > 0


@dataclass(frozen=True)
class Plan:
    config: Optional[str]    # INI the set-up's first load_config reads
    commands: tuple

    @property
    def slots(self) -> int:
        return sum(c.slots for c in self.commands)


def command_seed(workload: str, seed: int, index: int) -> int:
    """The ``--seed`` of command ``index``: a 63-bit hash of the run seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _cycles(trials: int) -> int:
    return max(1, math.ceil(trials / TRIALS_PER_CYCLE))


def _ms_list(ts) -> str:
    return ",".join(format(t, "g") for t in ts)


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _bell_mc(workload, seed, i, ts_ms, trials, workers, config, out):
    argv = ["bell", "--mode", "montecarlo", "--t-ms", _ms_list(ts_ms),
            "--trials", str(trials), "--workers", str(workers),
            "--seed", str(command_seed(workload, seed, i)), "--out", out]
    if config:
        argv += ["--config", config]
    return Command(tuple(argv), "bell_mc", (out,), config=config,
                   slots=len(ts_ms) * 4 * _cycles(trials) * TRIALS_PER_CYCLE)


def _chsh_dense_blocking(seed, workdir, workers, scale):
    ini = _write(workdir, "dense.ini", DENSE_INI)
    trials = max(1, round(DENSE_TRIALS * scale))
    # 0.01, 0.024 and 0.05 ms block 5, 12 and 25 slots after each herald
    return Plan(ini, (
        _bell_mc("chsh_dense_blocking", seed, 0, (0.01, 0.024, 0.05), trials,
                 workers, ini, "bell_dense.csv"),))


def _bell_paper_sparse(seed, workdir, workers, scale):
    trials = max(1, round(SPARSE_TRIALS * scale))
    ts_eff = (0.0, 0.23, 0.54, 1.15, 2.6)
    eff_out = "efficiency_mc.csv"
    eff = Command(
        ("efficiency", "--montecarlo", "--t-ms", _ms_list(ts_eff),
         "--trials", str(trials), "--workers", "1",
         "--seed", str(command_seed("bell_paper_sparse", seed, 1)),
         "--out", eff_out),
        "efficiency_mc", (eff_out,),
        slots=len(ts_eff) * _cycles(trials) * TRIALS_PER_CYCLE)
    return Plan(None, (
        _bell_mc("bell_paper_sparse", seed, 0, (0.0, 1.15, 2.6), trials, 1,
                 None, "bell_sparse.csv"),
        eff))


def _simulate_dump(seed, workdir, workers, scale):
    ini = _write(workdir, "simulate.ini", SIM_INI)
    seconds = SIM_SECONDS * scale
    n_cycles = max(1, round(seconds / CYCLE_S))
    argv = ("simulate", "--config", ini, "--seconds", format(seconds, "g"),
            "--workers", "1",
            "--seed", str(command_seed("simulate_dump", seed, 0)),
            "--dump", "records.csv", "--out", "simulate.json")
    return Plan(ini, (
        Command(argv, "simulate", ("simulate.json", "records.csv"),
                config=ini, slots=n_cycles * TRIALS_PER_CYCLE),))


def _decay_points_csv(seed: int) -> str:
    """Exact R(t) points at six seed-chosen storage times in (0, 3] ms."""
    rng = random.Random(seed)
    lines = ["t_s,value,sigma"]
    for t_ms in sorted(rng.uniform(0.05, 3.0) for _ in range(6)):
        t = t_ms * 1e-3
        x = t / PAPER_TAU0_S
        r = PAPER_R0 * (math.exp(-x * x) + math.exp(-x)) / 2.0
        lines.append(f"{t!r},{r!r},0.01")
    return "\n".join(lines) + "\n"


def _analytic_figures(seed, workdir, workers, scale):
    bell_csv = _write(workdir, "bell_points.csv", "t_s,value,sigma\n" + "".join(
        f"{t!r},{s!r},{e!r}\n" for t, s, e in PAPER_BELL))
    decay_csv = _write(workdir, "decay_points.csv", _decay_points_csv(seed))
    anchors = (0.0,) + tuple(t * 1e3 for t, _ in DECAY_ANCHORS)
    cmds = (
        Command(("repeater", "--anchor-report", "--out", "anchor_report.json"),
                "anchor_report", ("anchor_report.json",)),
        Command(("repeater", "--r0", "0.77", "--out", "rate_cpe.csv",
                 "--summary-out", "rate_cpe.json"),
                "repeater_curve", ("rate_cpe.csv", "rate_cpe.json")),
        Command(("repeater", "--r0", "0.58", "--out", "rate_cie.csv"),
                "repeater_curve", ("rate_cie.csv",),
                compare_to="rate_cpe.csv"),
        Command(("calibrate", "--which", "bell", "--data", bell_csv,
                 "--out", "cal_bell.json"), "calibrate_bell",
                ("cal_bell.json",)),
        Command(("calibrate", "--which", "decay", "--data", decay_csv,
                 "--out", "cal_decay.json"), "calibrate_decay",
                ("cal_decay.json",)),
        Command(("efficiency", "--t-ms", _ms_list(anchors),
                 "--out", "efficiency.csv"), "efficiency",
                ("efficiency.csv",)),
        Command(("bell", "--mode", "analytic",
                 "--t-ms", _ms_list(t * 1e3 for t, _, _ in PAPER_BELL),
                 "--out", "bell_analytic.csv"), "bell_analytic",
                ("bell_analytic.csv",)),
    )
    return Plan(None, cmds)


_BUILDERS = {
    "chsh_dense_blocking": _chsh_dense_blocking,
    "bell_paper_sparse": _bell_paper_sparse,
    "simulate_dump": _simulate_dump,
    "analytic_figures": _analytic_figures,
}


def speedup_workers(workload: str) -> int:
    """Workers of the traced pass that measures the worker speed-up.

    2 on the dense workload, never more than the usable CPUs; 1 (no such
    pass) elsewhere. The timed passes run one worker: with two threads on
    this 2-CPU machine the GIL hand-offs follow the host's scheduling, and
    ten seeds spread by 26% where one worker stays near 10%.
    """
    if workload != "chsh_dense_blocking":
        return 1
    return max(1, min(2, len(os.sched_getaffinity(0))))


def plan(workload: str, seed: int, workdir: str, workers: int = 1,
         scale: float = 1.0) -> Plan:
    """Write the workload's inputs into ``workdir`` and return its commands.

    Command paths are relative to ``workdir``; run them from there.
    ``workers`` applies to the dense workload; ``scale`` shrinks the Monte
    Carlo sizes for smoke tests.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](seed, workdir, workers, scale)


# -- output checks ----------------------------------------------------------

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path: str, header: list) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader)
        if got != header:
            raise ValueError(f"{path}: header {got!r}, expected {header!r}")
        return [[float(v) for v in row] for row in reader]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _config(cmd: Command):
    from dlczsim.config import load_config
    return load_config(cmd.config)


def _within(label: str, got: float, want: float, err: float) -> list:
    if not (math.isfinite(got) and math.isfinite(err) and err > 0.0):
        return [f"{label}: estimate {got!r} +- {err!r} is not finite"]
    if abs(got - want) > SIGMAS * err:
        return [f"{label}: {got:.6g} +- {err:.3g} is more than "
                f"{SIGMAS:g} sigma from the analytic {want:.6g}"]
    return []


def _near(label: str, got: float, want: float, tol: float) -> list:
    if not abs(got - want) <= tol:
        return [f"{label}: {got!r} differs from {want!r} by more than {tol:g}"]
    return []


def _retrieval_expectation(sp, dm, t: float, read_eta: float) -> dict:
    """Analytic means of the qubit/left/right retrieval estimators at 0, 0."""
    from dlczsim import model
    p = model.coincidence_probabilities(sp, dm, t, read_eta,
                                        model.MeasurementSettings(0, 0))
    # each herald detector has marginal 1/2
    return {"qubit": (p.p13 + p.p24) / read_eta,
            "left": 2.0 * p.p13 / read_eta,
            "right": 2.0 * p.p24 / read_eta}


def _grid_problems(cmd: Command, rows: list) -> list:
    """Rows must cover the command's --t-ms grid, in order."""
    grid = cmd.argv[cmd.argv.index("--t-ms") + 1].split(",")
    got = [row[0] for row in rows]
    if len(got) != len(grid) or any(
            abs(t - float(ms) * 1e3) > 1e-6 for t, ms in zip(got, grid)):
        return [f"rows at {got!r} us, expected the grid {grid!r} ms"]
    return []


def _check_bell_mc(cmd: Command) -> list:
    from dlczsim import model
    cfg = _config(cmd)
    rows = _rows(cmd.outputs[0], ["t_us", "S", "S_err"])
    problems = _grid_problems(cmd, rows)
    for t_us, s, err in rows:
        want = model.expected_bell(cfg.source, cfg.decay, t_us * 1e-6,
                                   cfg.read_eta)
        problems += _within(f"S at {t_us:g} us", s, want, err)
    return problems


def _check_efficiency_mc(cmd: Command) -> list:
    cfg = _config(cmd)
    # efficiency runs sample with ideal polarization correlations
    sp = dataclasses.replace(cfg.source, werner_p0=1.0)
    rows = _rows(cmd.outputs[0], ["t_us", "R_model", "R_mc", "R_mc_err"])
    problems = _grid_problems(cmd, rows)
    for t_us, _, r_mc, err in rows:
        want = _retrieval_expectation(sp, cfg.decay, t_us * 1e-6,
                                      cfg.read_eta)["qubit"]
        problems += _within(f"R_mc at {t_us:g} us", r_mc, want, err)
    return problems


def _check_simulate(cmd: Command) -> list:
    cfg = _config(cmd)
    summary = _json(cmd.outputs[0])
    problems = []
    n_cycles = cmd.slots // TRIALS_PER_CYCLE
    if summary["n_cycles"] != n_cycles:
        problems.append(f"n_cycles {summary['n_cycles']} != {n_cycles}")
    if summary["n_trials"] + summary["blocked_slots"] != cmd.slots:
        problems.append("executed plus blocked slots != slots simulated")
    heralds = summary["heralds"]
    if heralds["D1"] + heralds["D2"] != heralds["total"]:
        problems.append("herald singles do not add up")
    want = _retrieval_expectation(cfg.source, cfg.decay,
                                  cfg.sequence.storage_time, cfg.read_eta)
    retrieval = summary["retrieval"] or {}
    for key, mean in want.items():
        if key not in retrieval:
            problems.append(f"retrieval {key} missing")
            continue
        est = retrieval[key]
        problems += _within(f"retrieval {key}", est["value"], mean,
                            est["error"])

    with open(cmd.outputs[1], "rb") as fh:
        dump = fh.read()
    if not dump.startswith(b"cycle,trial,herald,readout,background,t_ns\n"):
        problems.append("record dump header differs")
    if dump.count(b"\n") - 1 != summary["n_trials"]:
        problems.append("record dump rows != executed trials")
    if dump.count(b",D1,") + dump.count(b",D2,") != heralds["total"]:
        problems.append("record dump heralds != summary heralds")
    if (dump.count(b",D3,") + dump.count(b",D4,")
            != sum(summary["coincidences"].values())):
        problems.append("record dump readouts != summary coincidences")
    return problems


def _check_anchor_report(cmd: Command) -> list:
    report = _json(cmd.outputs[0])
    entries = report["entries"]
    problems = []
    if len(entries) != REPORT_ENTRIES:
        problems.append(f"{len(entries)} report entries, expected "
                        f"{REPORT_ENTRIES}")
    matching = [e for e in entries if e["matches_anchors"]]
    if matching != report["matching"]:
        problems.append("'matching' differs from the flagged entries")
    for e in matching:
        problems += _near("matched CPE crossing", e["crossing_cpe_km"],
                          ANCHOR_CPE_KM, ANCHOR_TOL * ANCHOR_CPE_KM)
        problems += _near("matched CIE crossing", e["crossing_cie_km"],
                          ANCHOR_CIE_KM, ANCHOR_TOL * ANCHOR_CIE_KM)
    return problems


def _curve(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["L_km", "rate_per_s"]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        return [(float(r[0]), float(r[1])) for r in reader]


def _check_repeater_curve(cmd: Command) -> list:
    curve = _curve(cmd.outputs[0])
    problems = []
    if len(curve) < 2:
        problems.append("fewer than two rate points")
    rates = [r for _, r in curve]
    if any(b - a > 1e-18 for a, b in zip(rates, rates[1:])):
        problems.append("rate is not monotone in distance")
    if cmd.compare_to is not None:
        ref = _curve(cmd.compare_to)
        if [d for d, _ in ref] != [d for d, _ in curve]:
            problems.append("distance grids differ")
        elif any(r > r_ref for (_, r), (_, r_ref) in zip(curve, ref)):
            problems.append("low-efficiency curve exceeds the high-efficiency one")
    if len(cmd.outputs) > 1:
        summary = _json(cmd.outputs[1])
        if summary["pr_nonphysical_units"]:
            problems.append("default interpretation flagged non-physical")
        if summary["crossing_km"] is None:
            problems.append("no crossing of the target rate")
    return problems


def _check_calibrate_bell(cmd: Command) -> list:
    fit = _json(cmd.outputs[0])["bell"]
    problems = []
    if len(fit["residuals"]) != len(PAPER_BELL):
        problems.append("one residual per paper point expected")
    for (t, _, _), r in zip(PAPER_BELL, fit["residuals"]):
        problems += _near(f"residual at {t * 1e3:g} ms", r, 0.0,
                          FIT_RESIDUAL_TOL)
    return problems


def _check_calibrate_decay(cmd: Command) -> list:
    fit = _json(cmd.outputs[0])["decay"]
    problems = []
    for t, want in DECAY_ANCHORS:
        x = t / fit["tau0_s"]
        got = fit["r0"] * (math.exp(-x * x) + math.exp(-x)) / 2.0
        problems += _near(f"fitted R({t * 1e3:g} ms)", got, want,
                          DECAY_ANCHOR_TOL)
    return problems


def _check_efficiency(cmd: Command) -> list:
    rows = _rows(cmd.outputs[0], ["t_us", "R_model"])
    problems = _grid_problems(cmd, rows)
    if problems:
        return problems
    want = [(PAPER_R0, 1e-12)] + [(r, DECAY_ANCHOR_TOL)
                                  for _, r in DECAY_ANCHORS]
    for (t_us, got), (r, tol) in zip(rows, want):
        problems += _near(f"R({t_us:g} us)", got, r, tol)
    return problems


def _check_bell_analytic(cmd: Command) -> list:
    rows = _rows(cmd.outputs[0], ["t_us", "S", "S_err"])
    problems = _grid_problems(cmd, rows)
    if problems:
        return problems
    for (t_us, s, _), (_, want, _) in zip(rows, PAPER_BELL):
        problems += _near(f"S at {t_us:g} us", s, want, ANALYTIC_S_TOL)
    return problems


CHECKS = {
    "bell_mc": _check_bell_mc,
    "efficiency_mc": _check_efficiency_mc,
    "simulate": _check_simulate,
    "anchor_report": _check_anchor_report,
    "repeater_curve": _check_repeater_curve,
    "calibrate_bell": _check_calibrate_bell,
    "calibrate_decay": _check_calibrate_decay,
    "efficiency": _check_efficiency,
    "bell_analytic": _check_bell_analytic,
}


def digest_key(cmd: Command) -> str:
    return " ".join(cmd.argv)


def check(cmd: Command, rc: int, digests: dict) -> list:
    """Problems with what ``cmd`` wrote; an empty list means it passed.

    ``digests`` maps a command line to the sha256 of each of its outputs.
    A recorded command must reproduce them byte for byte; every command
    must also pass its parse and statistical or anchor check.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = CHECKS[cmd.check](cmd)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            StopIteration) as exc:
        return [f"output does not parse: {exc!r}"]
    want = digests.get(digest_key(cmd))
    if want is not None and [sha256_file(p) for p in cmd.outputs] != want:
        problems.append("output differs from its recorded sha256")
    return problems
