"""Spans around dlczsim's public functions, recorded from outside the program.

A ``Tracer`` replaces each target function with a wrapper by ``setattr`` on
the module attribute, so every call that looks the name up at call time
(``_kernels.counts_kernel(...)`` from ``montecarlo``, ``load_config`` from
``cli``) passes through it. No file of the program changes, and ``restore``
puts every original back.

A span is (layer, thread id, start, end, per-call counts). Spans stay in
memory until the benchmark writes them out. A layer's self time is its span
minus the spans nested inside it on the same thread; work a span waits for
on another thread stays in its self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    layer: str
    tid: int
    start: float
    end: float
    counts: Optional[dict] = None


@dataclass(frozen=True)
class Target:
    """A function to wrap and the layer name its metrics carry."""

    module: str
    attr: str
    layer: str
    counts: Optional[Callable] = None  # (bound arguments, result) -> {name: n}
    span: bool = True                  # False: count calls only, no span


def _hashes(_, uniforms):
    return {"hashes": int(uniforms.size)}


def _kernel_counts(_, out):
    c13, c14, c23, c24, s1, s2, n_trials, n_bg = out
    return {"slots_run": int(n_trials), "heralds": int(s1 + s2),
            "background": int(n_bg)}


def _records_rows(_, records):
    return {"rows": int(records[0].size)}


def _trial_counts(call, res):
    a = call.arguments
    return {"slots_run": res.n_trials, "blocked": res.n_blocked_slots,
            "heralds": res.counts.s1 + res.counts.s2,
            "expected_heralds": res.n_trials * a["sp"].chi * a["write_eta"]}


def _resamples(call, _):
    return {"resamples": int(call.arguments["n_resamples"])}


def _dump_counts(call, _):
    a = call.arguments
    return {"rows": int(a["result"].records[0].size),
            "bytes": os.path.getsize(a["path"])}


def _points(_, curve):
    return {"points": len(curve.points)}


# Module prefixes drop the leading underscore of ``_kernels``: metric names
# must start with a letter.
TARGETS = (
    Target("dlczsim._kernels", "trial_uniforms_numpy",
           "kernels.trial_uniforms_numpy", _hashes),
    Target("dlczsim._kernels", "counts_kernel", "kernels.counts_kernel",
           _kernel_counts),
    Target("dlczsim._kernels", "records_kernel", "kernels.records_kernel",
           _records_rows),
    Target("dlczsim.montecarlo", "run_trials", "montecarlo.run_trials",
           _trial_counts),
    Target("dlczsim.montecarlo", "bootstrap_errors",
           "montecarlo.bootstrap_errors", _resamples),
    Target("dlczsim.montecarlo", "write_record_dump",
           "montecarlo.write_record_dump", _dump_counts),
    Target("dlczsim.repeater", "sweep_distance", "repeater.sweep_distance",
           _points),
    # 45,600 calls per anchor report: a span each would cost more than the
    # call, so only the calls are counted and the time stays in the sweep.
    Target("dlczsim.repeater", "repeater_rate", "repeater.repeater_rate",
           span=False),
    Target("dlczsim.repeater", "calibration_report",
           "repeater.calibration_report"),
    Target("dlczsim.calibration", "fit_decay", "calibration.fit_decay"),
    Target("dlczsim.calibration", "fit_bell_model",
           "calibration.fit_bell_model"),
    # the name cli binds, which is what every command calls
    Target("dlczsim.cli", "load_config", "config.load_config"),
    Target("dlczsim.cli", "main", "cli.main"),
)


class Tracer:
    """Context manager that wraps ``targets`` and restores them on exit.

    A target whose module or function no longer exists is listed in
    ``absent`` and skipped. Counts that fail to compute (a changed return
    type, say) are listed in ``count_errors`` and never break the call.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list = []
        self.calls: dict = {}
        self.absent: list = []
        self.count_errors: set = set()
        self._saved: list = []
        self._lock = threading.Lock()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for t in self.targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.absent.append(t.layer)
                continue
            fn = getattr(module, t.attr, None)
            if not callable(fn):
                self.absent.append(t.layer)
                continue
            self._saved.append((module, t.attr, fn))
            setattr(module, t.attr, self._wrap(t, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, t: Target, fn):
        if not t.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self._lock:
                    self.calls[t.layer] = self.calls.get(t.layer, 0) + 1
                return fn(*args, **kwargs)
            return counted

        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(t.layer, threading.get_ident(), start,
                                       clock()))
                raise
            end = clock()
            self.spans.append(Span(t.layer, threading.get_ident(), start, end,
                                   self._count(t, sig, args, kwargs, result)))
            return result
        return spanned

    def _count(self, t, sig, args, kwargs, result) -> Optional[dict]:
        if t.counts is None:
            return None
        try:
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            return t.counts(call, result)
        except Exception:  # the program changed shape; report, don't break
            self.count_errors.add(t.layer)
            return None


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    Children are the spans nested inside it on the same thread; spans on
    other threads never subtract, even when they overlap in time.
    """
    out = [s.end - s.start for s in spans]
    by_thread: dict = {}
    for i, s in enumerate(spans):
        by_thread.setdefault(s.tid, []).append(i)
    for idx in by_thread.values():
        idx.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list = []
        for i in idx:
            while stack and spans[stack[-1]].end <= spans[i].start:
                stack.pop()
            if stack:
                out[stack[-1]] -= spans[i].end - spans[i].start
            stack.append(i)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self time, calls and summed counts from one traced pass.

    Every wrapped span layer reports ``.self_s`` and ``.calls`` (0 when not
    called); counting layers report ``.calls``. Ratios derived from the
    counts are added under the names the benchmark publishes.
    """
    out: dict = {}
    absent = set(tracer.absent)
    for t in tracer.targets:
        if t.layer in absent:
            continue
        out[f"{t.layer}.calls"] = 0
        if t.span:
            out[f"{t.layer}.self_s"] = 0.0
    for layer, n in tracer.calls.items():
        out[f"{layer}.calls"] = n
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{span.layer}.self_s"] += self_s
        out[f"{span.layer}.calls"] += 1
        for key, n in (span.counts or {}).items():
            name = f"{span.layer}.{key}"
            out[name] = out.get(name, 0) + n

    def ratio(num: str, den: str) -> float:
        d = out.get(den, 0)
        return out.get(num, 0) / d if d else 0.0

    out["kernels.hashes_per_slot_run"] = ratio(
        "kernels.trial_uniforms_numpy.hashes", "kernels.counts_kernel.slots_run")
    run = "montecarlo.run_trials"
    out[f"{run}.herald_ratio"] = ratio(f"{run}.heralds",
                                       f"{run}.expected_heralds")
    slots = out.get(f"{run}.slots_run", 0) + out.get(f"{run}.blocked", 0)
    out[f"{run}.blocked_frac"] = (out.get(f"{run}.blocked", 0) / slots
                                  if slots else 0.0)
    return out
