"""One benchmark run inside a fresh interpreter, started by ``run.py``.

The child writes the workload's inputs, imports ``dlczsim.cli`` once and
reads the workload's configuration (the timed set-up), then calls
``cli.main(argv)`` in-process for each command of the workload, back to
back, until ``--seconds`` have passed. Outputs are checked after each pass,
outside the timed region. It writes a JSON result file for the parent.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the tracing overhead and the throughput, the traced ones the per-layer
metrics. The dense workload adds a traced pass at two workers, which gives
the worker speed-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import traceback

import tracing
import workloads


def _run_commands(cli, commands) -> list:
    """Time each command; return (seconds, exit code) per command."""
    out = []
    for cmd in commands:
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        out.append((time.perf_counter() - t0, rc))
    return out


class Runner:
    """Runs passes and tallies their timings and check results."""

    def __init__(self, cli, digests: dict):
        self.cli = cli
        self.digests = digests
        self.passes: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, kind: str, plan: workloads.Plan) -> None:
        timed = _run_commands(self.cli, plan.commands)
        for cmd, (_, rc) in zip(plan.commands, timed):
            problems = workloads.check(cmd, rc, self.digests)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append({"argv": list(cmd.argv),
                                      "problems": problems})
        self.passes.append({"kind": kind, "wall_s": sum(t for t, _ in timed),
                            "command_s": [t for t, _ in timed]})

    def walls(self, kind: str) -> list:
        return [p["wall_s"] for p in self.passes if p["kind"] == kind]

    def mean_wall(self, kind: str) -> float:
        """Mean pass time: the machine this was tuned on switches between
        a fast and a ~30% slower state every 5-20 s, and the mean over a run
        weighs both states by their time where a median flips between them.
        """
        return statistics.fmean(self.walls(kind))


def _median_metrics(dicts: list) -> dict:
    # median_low keeps counts whole and reports a time that was measured
    names = sorted({k for d in dicts for k in d})
    return {k: statistics.median_low(d.get(k, 0) for d in dicts)
            for k in names}


def _traced_passes(runner, plans, deadline) -> dict:
    """Alternate untraced and traced passes; return per-layer medians."""
    traced, spans, absent, count_errors = [], [], set(), set()
    while True:
        for kind, plan in plans:
            if kind == "untraced":
                runner.run(kind, plan)
                continue
            with tracing.Tracer() as tracer:
                runner.run(kind, plan)
            absent.update(tracer.absent)
            count_errors.update(tracer.count_errors)
            spans.append({"kind": kind, "calls": tracer.calls,
                          "spans": [list(s) for s in tracer.spans]})
            if kind == "traced":
                traced.append(tracing.layer_metrics(tracer))
        if time.perf_counter() >= deadline:
            break
    layers = _median_metrics(traced)
    untraced = runner.mean_wall("untraced")
    layers["trace_overhead_frac"] = runner.mean_wall("traced") / untraced - 1.0
    parallel = runner.walls("traced_workers")
    layers["montecarlo.run_trials.worker_speedup"] = (
        runner.mean_wall("traced") / statistics.fmean(parallel)
        if parallel else 0.0)
    layers["slots_per_s"] = plans[0][1].slots / untraced
    return {"layers": layers, "absent": sorted(absent),
            "count_errors": sorted(count_errors), "spans": spans}


def _provenance(cli_module) -> dict:
    from importlib import metadata

    try:  # the numba backend switch, and perhaps this module, may go
        kernels = importlib.import_module("dlczsim._kernels")
    except ImportError:
        kernels = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "numba_imports": numba_imports,
            "kernel_backend": getattr(kernels, "BACKEND", None),
            "dlczsim_file": os.path.abspath(cli_module.__file__)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True,
                    help="directory dlczsim must be imported from")
    ap.add_argument("--result", required=True)
    ap.add_argument("--digests", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    result_path = os.path.abspath(args.result)
    os.chdir(args.workdir)
    plan = workloads.plan(args.workload, args.seed, ".")

    t0 = time.perf_counter()
    from dlczsim import cli
    t1 = time.perf_counter()
    cli.load_config(plan.config)
    t2 = time.perf_counter()

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: dlczsim imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    result = {"setup_s": t2 - t0, "import_s": t1 - t0,
              "import_scipy": int("scipy.optimize" in sys.modules)}
    if not args.setup_only:
        digests = {}
        if args.digests and not args.record_digests:
            with open(args.digests, encoding="utf-8") as fh:
                digests = json.load(fh).get(args.workload, {})
        runner = Runner(cli, digests)
        deadline = time.perf_counter() + args.seconds
        if args.record_digests:
            runner.run("untraced", plan)
            result["digests"] = {
                workloads.digest_key(c): [workloads.sha256_file(p)
                                          for p in c.outputs]
                for c in plan.commands if c.montecarlo}
        elif args.trace:
            plans = [("untraced", plan), ("traced", plan)]
            workers = workloads.speedup_workers(args.workload)
            if workers > 1:
                plans.append(("traced_workers",
                              workloads.plan(args.workload, args.seed, ".",
                                             workers=workers)))
            traced = _traced_passes(runner, plans, deadline)
            spans = traced.pop("spans")
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(spans, fh)
            result.update(traced)
        else:
            while True:
                runner.run("untraced", plan)
                if time.perf_counter() >= deadline:
                    break
        result.update(
            passes=runner.passes, attempted=runner.attempted,
            failed=runner.failed, problems=runner.problems,
            wall_s=runner.mean_wall("untraced"),
            slots=plan.slots, argv=[list(c.argv) for c in plan.commands])
    result["provenance"] = _provenance(cli)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
