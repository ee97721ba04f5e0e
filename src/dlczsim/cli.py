"""Command line front end: reproducible CSV/JSON outputs for every figure.

Subcommands: ``efficiency``, ``bell``, ``repeater``, ``calibrate``,
``simulate``. The first three write a table in ``--format`` CSV or JSON;
the anchor report, ``calibrate`` and ``simulate`` write JSON and take no
``--format``. All numeric output is deterministic under a fixed seed:
the same invocation always produces byte-identical files. Output paths are
checked before any other work, configuration is validated in full before
any output file is opened, and every output file is written under a
temporary name and moved into place only once complete. A flag that the
command or its mode would ignore is refused, and a Monte Carlo run holds
at most ``MAX_TRIALS`` trials.

Exit codes: 0 success, 2 validation/usage error, 3 numerical failure
(fit non-convergence, a rate curve without a nonzero point, or a Monte
Carlo storage time without the counts its estimator needs).

``main`` builds the argument parser on its first call and parses every
later call with the same parser; each parse returns a new namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import calibration as cal
from . import model, montecarlo, repeater
from .config import load_config
from .errors import FitConvergenceError, InsufficientStatisticsError, NotBracketedError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Upper bound on --workers: each worker is a thread, and the kernel gains
# nothing from more threads than cores.
MAX_WORKERS = 64

# Upper bound on the points of a sweep (repeater --points, and the
# efficiency and bell storage times, by --points or --t-ms): a sweep holds
# every column and the output text of every point at once, about 1.3 kB
# per point for CSV and 4.3 kB for JSON at nest level 4 (tracemalloc peaks
# at 10,000 points).
MAX_POINTS = 10_000

# Upper bound on the trials of one Monte Carlo run: --trials, and the
# trials simulate --seconds asks for (its cycles times the slots of a
# cycle). 10**15 trials take months at the 0.6-2 x 10**8 trials a second
# the benchmark's Monte Carlo workloads run at (2-CPU x86 VM), and keep a
# run's slot count far inside the int64 the sampler counts it in.
MAX_TRIALS = 10 ** 15


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path beside ``path``, moved onto it on success.

    On any exception the temporary file is removed and ``path`` keeps its
    old bytes, so no failure leaves a partial output file. A pipe or
    device such as ``/dev/stdout`` cannot be replaced and is written in
    place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        yield path
        return
    real = os.path.realpath(path)
    directory, name = os.path.split(real)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_outputs(args) -> None:
    """Refuse, before any work, an output that is a directory or whose
    directory does not exist, and an output that is the same file as an
    input (``--config``, ``--data``) or as another output. A pipe or
    device is written in place and exempt."""
    taken = {os.path.realpath(path): f"--{name} {path}"
             for name in ("config", "data")
             if (path := getattr(args, name, None)) is not None}
    for name in ("out", "summary_out", "dump"):
        path = getattr(args, name, None)
        if path is None:
            continue
        given = f"--{name.replace('_', '-')} {path}"
        real = os.path.realpath(path)  # "" is the working directory
        if os.path.isdir(real):
            raise ValueError(f"{given}: is a directory")
        if os.path.exists(real) and not os.path.isfile(real):
            continue  # a pipe or device, written in place
        if not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{given}: no such directory")
        if real in taken:
            raise ValueError(f"{given}: same file as {taken[real]}")
        taken[real] = given


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_table(args, header, rows, summary=None, extras=None) -> None:
    """Write float ``rows`` under ``header`` to ``--out`` in ``--format``:
    CSV with one ``%.12g`` format string per row, or JSON of ``summary``
    and one object per row, with the row's entry of ``extras``. The
    summary also goes to ``--summary-out``, in either format."""
    if args.format == "json":
        objs = [dict(zip(header, r), **x)
                for r, x in zip(rows, extras or [{}] * len(rows))]
        _write_text(args.out, _json_text({**(summary or {}), "rows": objs}))
    else:
        line = ",".join(["%.12g"] * len(header)) + "\n"
        _write_text(args.out, ",".join(header) + "\n"
                    + "".join([line % tuple(r) for r in rows]))
    if getattr(args, "summary_out", None):
        _write_text(args.summary_out, _json_text(summary))


def _refuse_given(args, names, owner: str) -> None:
    """Refuse each flag of ``names`` that was given: ``owner`` says why
    the command sets it itself or has no use for it."""
    flags = ", ".join("--" + n.replace("_", "-") for n in names
                      if getattr(args, n) is not None)
    if flags:
        raise ValueError(f"{owner}; {flags} cannot be given with it")


def _fill_late(args) -> None:
    """Give each flag added by ``_add_late`` and not given its default."""
    for name, default in getattr(args, "late_defaults", {}).items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _parse_grid_ms(args) -> list:
    """The storage times in ms; each must be finite in the t_us column.
    Refuses a grid flag given with ``--t-ms``, then fills in every late
    default, so that the command's own refusals go first."""
    flag = "--t-ms" if args.t_ms is not None else "--t-max-ms"
    if args.t_ms is not None:
        _refuse_given(args, ("t_min_ms", "t_max_ms", "points"),
                      "--t-ms lists its own storage times")
    _fill_late(args)
    if args.t_ms is not None:
        entries = [v for v in args.t_ms.split(",") if v.strip() != ""]
        if not entries:
            raise ValueError("--t-ms list is empty")
        if len(entries) > MAX_POINTS:
            raise ValueError(f"--t-ms lists {len(entries)} storage times, "
                             f"at most {MAX_POINTS} are allowed")
        ts = [float(v) for v in entries]
    else:
        if not 2 <= args.points <= MAX_POINTS:
            raise ValueError(f"--points must lie in [2, {MAX_POINTS}], "
                             f"got {args.points}")
        if not (0.0 <= args.t_min_ms < args.t_max_ms < math.inf):
            raise ValueError("need finite 0 <= --t-min-ms < --t-max-ms")
        step = (args.t_max_ms - args.t_min_ms) / (args.points - 1)
        ts = [args.t_min_ms + i * step for i in range(args.points)]
    if not all(0.0 <= t * 1e3 < math.inf for t in ts):
        raise ValueError(f"{flag}: storage times must be >= 0 and finite "
                         f"in microseconds")
    return ts


def _check_workers(args) -> None:
    if not 1 <= args.workers <= MAX_WORKERS:
        raise ValueError(f"--workers must lie in [1, {MAX_WORKERS}], "
                         f"got {args.workers}")


def _cycles_for_trials(cfg_seq, trials: int) -> int:
    return max(1, math.ceil(trials / cfg_seq.trials_per_run))


def _check_trials(args) -> None:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must lie in [1, {MAX_TRIALS}], "
                         f"got {args.trials:.6g}")


def cmd_efficiency(args) -> int:
    if not args.montecarlo:
        _refuse_given(args, ["seed", "trials", "workers"],
                      "efficiency without --montecarlo samples no trials")
    ts_ms = _parse_grid_ms(args)
    _check_workers(args)
    _check_trials(args)
    cfg = load_config(args.config, args.seed)

    rows = [[t_ms * 1e3, model.retrieval_efficiency(t_ms * 1e-3, cfg.decay)]
            for t_ms in ts_ms]
    if args.montecarlo:
        # The retrieval estimator is defined for ideal polarization
        # correlations at zero analysis angles; efficiency runs sample
        # only whether the excitation is retrieved and detected.
        sp = dataclasses.replace(cfg.source, werner_p0=1.0)
        ests = montecarlo.retrieval_sweep(
            [t_ms * 1e-3 for t_ms in ts_ms], cfg.sequence, sp, cfg.decay,
            cfg.write_eta, cfg.read_eta,
            _cycles_for_trials(cfg.sequence, args.trials), cfg.seed.child(0),
            n_workers=args.workers)
        for row, est in zip(rows, ests):
            row += [est.qubit.value, est.qubit.error]

    header = ["t_us", "R_model"] + (["R_mc", "R_mc_err"] if args.montecarlo else [])
    _write_table(args, header, rows)
    return EXIT_OK


def cmd_bell(args) -> int:
    if args.mode == "analytic":
        _refuse_given(args, ["seed", "trials", "resamples", "workers"],
                      "the analytic mode samples no trials")
    ts_ms = _parse_grid_ms(args)
    _check_workers(args)
    _check_trials(args)
    cfg = load_config(args.config, args.seed)

    if args.mode == "analytic":
        s = model.expected_bell(cfg.source, cfg.decay,
                                np.array(ts_ms) * 1e-3, cfg.read_eta)
        rows = [[t_ms * 1e3, s_t, 0.0] for t_ms, s_t in zip(ts_ms, s.tolist())]
    else:
        ests = montecarlo.bell_sweep(
            [t_ms * 1e-3 for t_ms in ts_ms], cfg.sequence, cfg.source,
            cfg.decay, cfg.write_eta, cfg.read_eta,
            _cycles_for_trials(cfg.sequence, args.trials), cfg.seed.child(1),
            n_resamples=args.resamples, n_workers=args.workers)
        rows = [[t_ms * 1e3, est.value, est.error]
                for t_ms, est in zip(ts_ms, ests)]

    _write_table(args, ["t_us", "S", "S_err"], rows)
    return EXIT_OK


def cmd_repeater(args) -> int:
    # repeater flag -> the RepeaterParams field it sets; the anchor report
    # sets these fields itself, with its own grid and output
    fields = {"r0": "r0", "chi": "chi", "link_convention": "link_convention",
              "interpretation": "pr_exponent"}
    if args.anchor_report:
        _refuse_given(args, [*args.late_defaults, *fields, "format",
                             "summary_out"],
                      "--anchor-report sets its own grid, model and output")
    _fill_late(args)
    if not 2 <= args.points <= MAX_POINTS:
        raise ValueError(f"--points must lie in [2, {MAX_POINTS}], "
                         f"got {args.points}")
    if not (0.0 < args.target_rate < math.inf):
        raise ValueError(f"--target-rate must be positive and finite, "
                         f"got {args.target_rate!r}")
    if not (0.0 < args.l_min_km < args.l_max_km < math.inf):
        raise ValueError(f"need finite 0 < --l-min-km < --l-max-km, got "
                         f"{args.l_min_km!r} and {args.l_max_km!r}")
    cfg = load_config(args.config)
    params = dataclasses.replace(cfg.repeater, **{
        field: getattr(args, flag) for flag, field in fields.items()
        if getattr(args, flag) is not None})

    if args.anchor_report:
        entries = repeater.calibration_report(
            base=params, target_rate=args.target_rate)
        payload = {
            "target_rate_per_s": args.target_rate,
            "anchors_km": {"cpe": repeater.ANCHOR_CPE_KM,
                           "cie": repeater.ANCHOR_CIE_KM},
            "tolerance_fraction": repeater.ANCHOR_TOLERANCE,
            "entries": [dataclasses.asdict(e) for e in entries],
            "matching": [dataclasses.asdict(e) for e in entries
                         if e.matches_anchors],
        }
        _write_text(args.out, _json_text(payload))
        return EXIT_OK

    curve = repeater.sweep_distance(params, args.l_min_km, args.l_max_km,
                                    args.points, grid=args.grid)
    status_counts = {s: int(np.count_nonzero(curve.status == s))
                     for s in repeater.STATUSES}
    if not status_counts["ok"]:
        print(f"error: no distance has a nonzero rate: "
              f"{status_counts['unreachable']} unreachable, "
              f"{status_counts['collapsed']} collapsed", file=sys.stderr)
        return EXIT_NUMERICAL

    n = params.nest_level
    header = (["L_km", "rate_per_s", "P0", "P0N"]
              + [f"P{j}" for j in range(1, n + 1)]
              + [f"t{j}_s" for j in range(0, n + 1)] + ["Ppr"])
    rows = np.column_stack([curve.distance_km, curve.rate_per_s, curve.p0,
                            curve.p0_multi, *curve.p_levels,
                            *curve.t_levels, curve.p_pr]).tolist()

    summary = {
        "link_convention": params.link_convention,
        "pr_exponent": params.pr_exponent,
        "pr_nonphysical_units": curve.pr_nonphysical_units,
        "r0": params.r0,
        "chi": params.chi,
        "grid": args.grid,
        "target_rate_per_s": args.target_rate,
        "status_counts": status_counts,
    }
    try:
        summary["crossing_km"] = repeater.crossing_distance(
            curve.distance_km, curve.rate_per_s, args.target_rate)
    except NotBracketedError:
        summary["crossing_km"] = None
    _write_table(args, header, rows, summary, extras=[
        {"status": s, "collapsed_at": c or None}
        for s, c in zip(curve.status.tolist(), curve.collapsed_at.tolist())])
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    points = cal.read_datapoints_csv(args.data)
    if args.which == "decay":
        fit = cal.fit_decay(points)
        payload = cal.calibration_to_dict(decay=fit)
    else:
        fit = cal.fit_bell_model(points, cfg.decay, cfg.read_eta,
                                 cfg.source.p_noise)
        payload = cal.calibration_to_dict(bell=fit)
    _write_text(args.out, _json_text(payload))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_workers(args)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        raise ValueError(f"--seconds must be finite and positive, "
                         f"got {args.seconds}")
    cfg = load_config(args.config, args.seed)
    cycles = args.seconds / cfg.sequence.cycle_duration
    trials = cycles * cfg.sequence.trials_per_run
    if not trials <= MAX_TRIALS:
        raise ValueError(f"--seconds {args.seconds:g} asks for {trials:.6g} "
                         f"trials, at most {MAX_TRIALS} are allowed")
    n_cycles = max(1, round(cycles))
    settings = model.MeasurementSettings(args.theta_s, args.theta_as)
    with contextlib.ExitStack() as stack:
        dump = None
        if args.dump is not None:
            tmp = stack.enter_context(_replacing(args.dump))
            dump = stack.enter_context(open(tmp, "wb"))
        res = montecarlo.run_trials(cfg.sequence, cfg.source, cfg.decay,
                                    cfg.write_eta, cfg.read_eta, settings,
                                    n_cycles, cfg.seed, dump=dump,
                                    n_workers=args.workers)
    c = res.counts
    summary = {
        "seconds_requested": args.seconds,
        "n_cycles": res.n_cycles,
        "n_trials": res.n_trials,
        "trials_per_cycle": cfg.sequence.trials_per_run,
        "blocked_slots": res.n_blocked_slots,
        "heralds": {"D1": c.s1, "D2": c.s2, "total": c.s1 + c.s2},
        "coincidences": {"c13": c.c13, "c14": c.c14, "c23": c.c23,
                         "c24": c.c24},
        "background_readouts": res.n_background_readouts,
        "storage_time_s": cfg.sequence.storage_time,
        "theta_s_deg": settings.theta_s,
        "theta_as_deg": settings.theta_as,
        "seed": cfg.seed.master_seed,
    }
    try:
        est = model.estimate_intrinsic_retrieval(c, cfg.read_eta)
        summary["retrieval"] = {
            "qubit": {"value": est.qubit.value, "error": est.qubit.error},
            "left": {"value": est.left.value, "error": est.left.error},
            "right": {"value": est.right.value, "error": est.right.error},
        }
    except InsufficientStatisticsError:
        summary["retrieval"] = None

    _write_text(args.out, _json_text(summary))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, table: bool = False,
                seed: bool = False) -> None:
    p.add_argument("--config", default=None, help="INI config file")
    if seed:  # only a command that samples trials takes a seed
        p.add_argument("--seed", type=int, default=None,
                       help="override the [output] seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="default csv")


def _add_late(p: argparse.ArgumentParser, flag: str, default,
              help: str = "", **kw) -> None:
    """Add ``flag`` with a late default: it parses to None when not
    given, so that a refusal can tell it given, and ``_fill_late`` sets
    ``default`` after the command's refusals."""
    help = f"{help}, default {default}" if help else f"default {default}"
    name = p.add_argument(flag, default=None, help=help, **kw).dest
    p.set_defaults(late_defaults={**(p.get_default("late_defaults") or {}),
                                  name: default})


def _add_grid(p: argparse.ArgumentParser, t_max: float, points: int) -> None:
    p.add_argument("--t-ms", default=None,
                   help="comma-separated storage times in ms")
    _add_late(p, "--t-min-ms", 0.0, type=float)
    _add_late(p, "--t-max-ms", t_max, type=float)
    _add_late(p, "--points", points, type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dlczsim",
        description="Cavity-enhanced entanglement-source simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("efficiency",
                       help="retrieval-efficiency curve (analytic, plus "
                            "optional Monte Carlo estimates)")
    _add_common(p, table=True, seed=True)
    _add_grid(p, t_max=3.0, points=61)
    p.add_argument("--montecarlo", action="store_true")
    _add_late(p, "--trials", 200000, "trials per storage time in Monte "
              "Carlo mode", type=int)
    _add_late(p, "--workers", 1, type=int)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("bell", help="CHSH parameter versus storage time")
    _add_common(p, table=True, seed=True)
    _add_grid(p, t_max=2.6, points=14)
    p.add_argument("--mode", choices=("analytic", "montecarlo"),
                   default="analytic")
    _add_late(p, "--trials", 1000000, "trials per angle setting per "
              "storage time", type=int)
    _add_late(p, "--workers", 1, type=int)
    _add_late(p, "--resamples", 500, "bootstrap resamples for the error "
              "bars", type=int)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("repeater", help="rate-versus-distance sweeps")
    _add_common(p, table=True)
    _add_late(p, "--l-min-km", 10.0, type=float)
    _add_late(p, "--l-max-km", 5000.0, type=float)
    _add_late(p, "--points", 120, type=int)
    _add_late(p, "--grid", "log", choices=("log", "linear"))
    p.add_argument("--target-rate", type=float, default=1e-4)
    p.add_argument("--r0", type=float, default=None,
                   help="override the zero-delay retrieval efficiency")
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--link-convention", choices=repeater.LINK_CONVENTIONS,
                   default=None)
    p.add_argument("--interpretation", choices=repeater.PR_EXPONENTS,
                   default=None, help="pair-distribution decay exponent")
    p.add_argument("--summary-out", default=None,
                   help="also write the JSON summary of the table")
    p.add_argument("--anchor-report", action="store_true",
                   help="enumerate crossing distances for every "
                        "interpretation and chi combination")
    p.set_defaults(func=cmd_repeater)

    p = sub.add_parser("calibrate", help="fit model parameters to a CSV")
    _add_common(p)
    p.add_argument("--data", required=True, help="CSV with t_s,value,sigma")
    p.add_argument("--which", choices=("decay", "bell"), required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run the trial sequence and "
                                        "summarize counts")
    _add_common(p, seed=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--theta-s", type=float, default=0.0)
    p.add_argument("--theta-as", type=float, default=0.0)
    p.add_argument("--dump", default=None,
                   help="write the click-record stream to this path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call parses with, built on the first: a
    build takes 1.3-2 ms, a parse with a built parser under 0.1 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (FitConvergenceError, InsufficientStatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
