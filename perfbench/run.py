#!/usr/bin/env python3
"""dlczsim benchmark: one run of one workload, printed as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop with one client: a fresh interpreter imports
``dlczsim.cli`` from the checkout's ``src/`` once, then runs the workload's
``dlczsim`` commands in-process back to back for ``--seconds``. Set-up (the
import plus the first ``load_config``) is timed in that interpreter and in
``SETUP_SAMPLES`` more that only set up, half of them before it and half
after, so the samples straddle the run; ``setup_s`` is their median.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: ``setup_s``,
``wall_s`` (mean time of one pass over the command list) and
``peak_rss_mb`` (the measuring interpreter's peak resident memory).
``--trace 1`` prints its per-layer metrics, from spans recorded around the
program's functions in a separate traced run. Every command's output is
checked; ``attempted`` and ``failed`` count commands, and a command fails
when it exits non-zero or its output fails the check.

A record of the run (provenance, every pass, every failed check, absent
layers) goes to ``.perfbench/results/``; traced runs also write their spans
to ``.perfbench/traces/``.

``--record-digests`` runs one pass and stores the sha256 of each Monte
Carlo output for this seed in ``perfbench/digests.json``; later runs with
that seed must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0     # the whole run, set-up children included
MAX_SECONDS = 60.0
STATE_DIR = ".perfbench"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({k: "1" for k in THREAD_ENV})
    return env


def _spawn(argv: list, root: str, deadline: float):
    """Run a child to completion; return its resource usage.

    The child is killed if it outlives ``deadline`` and is always waited
    for. ``os.wait4`` gives the child's own peak resident memory.
    """
    proc = subprocess.Popen([sys.executable, CHILD] + argv, cwd=root,
                            env=_child_env(root), stdout=sys.stderr.fileno())
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise ChildFailed(f"child exceeded the {RUN_LIMIT_S:g} s limit")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return usage


def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _tree_sha256(path: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(workloads.sha256_file(full).encode())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(root: str, args, child: dict) -> dict:
    return dict(child.get("provenance", {}),
                git_commit=_git_commit(root),
                src_sha256=_tree_sha256(os.path.join(root, "src", "dlczsim")),
                seed=args.seed, workload=args.workload,
                workload_argv=child.get("argv"),
                nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)),
                cpu_model=_cpu_model(), platform=platform.platform())


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2**63)")
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must lie in (0, {MAX_SECONDS:g}]")
    return args


def _metrics(spec: list, values: dict) -> tuple:
    """Published metrics in BENCHMARK.json order, and the names not measured."""
    out, missing = {}, []
    for m in spec:
        if m["name"] not in values:
            missing.append(m["name"])
        out[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return out, missing


def _record_digests(args, child: dict) -> None:
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    recorded.setdefault(args.workload, {}).update(child["digests"])
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, DIGESTS)


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "dlczsim", "cli.py")):
        print("error: run from the root of a dlczsim checkout "
              "(src/dlczsim/cli.py not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    state = os.path.join(root, STATE_DIR)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(state, "work", f"{tag}-{os.getpid()}")
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(state, sub), exist_ok=True)
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir, "--src", os.path.join(root, "src")]
    try:
        result_path = os.path.join(workdir, "result.json")
        if args.record_digests:
            _spawn(common + ["--result", result_path, "--record-digests"],
                   root, deadline)
            with open(result_path, encoding="utf-8") as fh:
                child = json.load(fh)
            if child["failed"]:
                print(f"error: {child['failed']} commands failed their "
                      f"check; nothing recorded: {child['problems']}",
                      file=sys.stderr)
                return 1
            _record_digests(args, child)
            print(f"recorded {len(child['digests'])} digests for "
                  f"{args.workload} seed {args.seed}", file=sys.stderr)
            return 0

        def setup_samples(n):
            out = []
            for _ in range(n):
                path = os.path.join(workdir, "setup.json")
                _spawn(common + ["--result", path, "--setup-only"], root,
                       deadline)
                with open(path, encoding="utf-8") as fh:
                    out.append(json.load(fh))
            return out

        samples = setup_samples(SETUP_SAMPLES // 2)
        spans_path = os.path.join(state, "traces", f"{tag}.json")
        measure = common + ["--result", result_path, "--spans", spans_path]
        if os.path.exists(DIGESTS):
            measure += ["--digests", DIGESTS]
        usage = _spawn(measure, root, deadline)
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
        samples += [child] + setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = child["attempted"], child["failed"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": child["wall_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "cli.import_s": statistics.median(s["import_s"] for s in samples),
        "cli.import_scipy": child["import_scipy"],
        "failed_frac": failed / attempted,
    }
    values.update(child.get("layers", {}))
    published, missing = _metrics(
        spec["per_layer"] if args.trace else spec["end_to_end"], values)

    record = {"provenance": _provenance(root, args, child),
              "metrics": values, "published": published,
              "not_measured": missing, "absent_layers": child.get("absent", []),
              "count_errors": child.get("count_errors", []),
              "setup_samples_s": [s["setup_s"] for s in samples],
              "passes": child["passes"], "problems": child["problems"],
              "attempted": attempted, "failed": failed}
    with open(os.path.join(state, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(child['passes'])} passes, untraced wall mean "
          f"{child['wall_s']:.4f} s, "
          f"setup {values['setup_s']:.4f} s, {failed}/{attempted} failed"
          + (f"; absent: {', '.join(record['absent_layers'])}"
             if record["absent_layers"] else "")
          + (f"; not measured here (0): {', '.join(missing)}"
             if missing else ""), file=sys.stderr)
    for p in child["problems"][:5]:
        print(f"failed: {' '.join(p['argv'])}: {'; '.join(p['problems'])}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": published}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
