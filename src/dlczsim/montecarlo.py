"""Discrete-event simulation of the heralded entanglement trial sequence.

Each experimental cycle is an atom-preparation window followed by a run
window divided into fixed trial slots. A trial fires a write pulse; with
probability ``chi * write_eta`` a herald clicks on D1 or D2, the write
sequence stops, and after the configured storage time the readout outcome
is sampled from the same joint-probability model the analytic module
exposes. Storage times spanning several trial periods block the subsequent
write slots.

Sampling is counter-based and deterministic: identical seed and
configuration give bit-identical counts for any worker count. Every run,
a single one, a retrieval sweep point or the four CHSH runs of a Bell
point, goes through ``_sample``: one ``_kernels.count_runs`` call per
worker thread, the threads only splitting the cycle range. A run with a
click-record dump is the same pass in the calling thread, with a row sink:
``write_record_dump`` writes the rows of each batch of cycles to the dump
before the next batch is expanded, so its memory does not grow with the
number of cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import BinaryIO, Optional, Sequence

import numpy as np

from . import _kernels
from ._keys import defaults
from .errors import InsufficientStatisticsError
from .model import (
    CANONICAL_SETTINGS,
    CoincidenceCounts,
    DecayModel,
    Estimate,
    MeasurementSettings,
    SourceParams,
    _check_eta_td,
    bell_parameter,
    correlation_E,
    estimate_intrinsic_retrieval,
    readout_law,
)


def _floor_snapped(ratio: float) -> int:
    r = round(ratio)
    if abs(ratio - r) <= 1e-9 * max(r, 1):
        return int(r)
    return int(ratio)


# Upper bound on the write slots of a run window. A batch of the sampler
# holds at least one whole run, so its working set grows with the window;
# at the batch size, ``_kernels.CHUNK_SLOTS`` (a 393 ms run of 2 us slots,
# where the paper's is 8 ms), a batch stays near 10-13 MiB.
MAX_SLOTS_PER_RUN = 196_608


@dataclass(frozen=True)
class SequenceConfig:
    """Timing constants of the cyclic experimental state machine (seconds)."""

    prep_duration: float = defaults("sequence")["prep_duration"]
    run_duration: float = defaults("sequence")["run_duration"]
    write_pulse: float = defaults("sequence")["write_pulse"]
    trial_period: float = defaults("sequence")["trial_period"]
    storage_time: float = defaults("sequence")["storage_time"]

    def __post_init__(self) -> None:
        for name in ("prep_duration", "run_duration", "write_pulse",
                     "trial_period"):
            v = getattr(self, name)
            if not (0.0 < v < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not (0.0 <= self.storage_time < math.inf):
            raise ValueError("storage_time must be finite and >= 0")
        if self.trial_period < self.write_pulse:
            raise ValueError("trial_period must cover the write_pulse")
        slots = self.run_duration / self.trial_period
        if not (slots < math.inf
                and 1 <= self.trials_per_run <= MAX_SLOTS_PER_RUN):
            raise ValueError(f"run_duration must hold 1 to "
                             f"{MAX_SLOTS_PER_RUN} trial_periods, "
                             f"got {slots:.6g}")

    @property
    def trials_per_run(self) -> int:
        """Write slots in one run window: floor(run_duration/trial_period).

        Ratios within a part in 1e9 of an integer snap to it, so an 8 ms
        run with a 2000 ns period yields exactly 4000 slots despite binary
        rounding of the durations.
        """
        return _floor_snapped(self.run_duration / self.trial_period)

    @property
    def cycle_duration(self) -> float:
        return self.prep_duration + self.run_duration

    @property
    def herald_skip_slots(self) -> int:
        """Write slots blocked after a herald while the excitation is
        stored, at most ``trials_per_run``: the rest of the run either way."""
        return _floor_snapped(min(self.storage_time / self.trial_period,
                                  self.trials_per_run))

    def with_storage_time(self, t: float) -> "SequenceConfig":
        return replace(self, storage_time=t)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed for the counter-based trial stream.

    Every (cycle, slot, draw) triple is hashed independently from the master
    seed, so a given spec plus configuration fixes the entire click stream
    regardless of how cycles are split across workers.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, (int, np.integer)):
            raise ValueError("master_seed must be an integer")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")
        object.__setattr__(self, "master_seed", int(self.master_seed))

    def child(self, *tags: int) -> "SeedSpec":
        """Independent sub-stream for a tagged sub-experiment."""
        return SeedSpec(_kernels.derive_stream(self.master_seed, *tags))


@dataclass(frozen=True)
class TrialRunResult:
    """Counts and bookkeeping from a batch of simulated cycles."""

    counts: CoincidenceCounts
    n_cycles: int
    n_trials: int
    n_blocked_slots: int
    n_background_readouts: int


def _sample(cfg: SequenceConfig, sp: SourceParams, dm: DecayModel,
            write_eta: float, read_eta: float,
            settings: Sequence[MeasurementSettings], seeds: Sequence[SeedSpec],
            n_cycles: int, n_workers: int,
            dump: Optional[BinaryIO] = None) -> list:
    """One ``TrialRunResult`` per run at the storage time of ``cfg``: run
    ``r`` draws from ``seeds[r]`` with the readout law of ``settings[r]``.

    The runs share every other sampler input, so each of ``n_workers``
    threads samples them all over its share of the cycles with one
    ``_kernels.count_runs`` call. ``dump``, given to a one-run call, gets
    the header and the rows, sampled in the calling thread.
    """
    for name, v in (("write_eta", write_eta), ("read_eta", read_eta)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    n_slots = cfg.trials_per_run
    # the sampler counts a run's slots in int64, so its last cycle index
    # is inside int64 too
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if n_cycles * n_slots >= 2 ** 63:
        raise ValueError(f"n_cycles * trials_per_run must stay below 2**63, "
                         f"got {n_cycles} * {n_slots}")
    laws = [readout_law(sp, dm, cfg.storage_time, read_eta, s).a
            for s in settings]
    master_seeds = [s.master_seed for s in seeds]

    rows = None
    if dump is not None:
        period_ns = int(round(cfg.trial_period * 1e9))
        cycle_ns = int(round(cfg.cycle_duration * 1e9))
        prep_ns = int(round(cfg.prep_duration * 1e9))

        def rows(cyc, slot, her, read, bg):
            t_ns = cyc * cycle_ns + prep_ns + slot * period_ns
            write_record_dump(dump, cyc, slot, her, read, bg, t_ns)

        dump.write(DUMP_HEADER)
        n_workers = 1  # the rows are written in cycle order

    step = max(1, math.ceil(n_cycles / max(1, n_workers)))
    starts = range(0, n_cycles, step)

    def count(lo):
        return _kernels.count_runs(master_seeds, lo,
                                   min(lo + step, n_cycles), n_slots,
                                   sp.chi * write_eta, laws, sp.p_noise,
                                   cfg.herald_skip_slots, rows)

    if len(starts) > 1:
        # imported here: concurrent.futures and the logging it loads cost
        # the CLI's import about 7 ms, and only threaded runs need them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(count, starts))
    else:
        parts = [count(0)]
    out = []
    for row in np.sum(parts, axis=0).tolist():  # (c13, ..., n_trials, n_bg)
        n_trials = row[6]
        out.append(TrialRunResult(CoincidenceCounts(*row[:7]), n_cycles,
                                  n_trials, n_cycles * n_slots - n_trials,
                                  row[7]))
    return out


def run_trials(cfg: SequenceConfig, sp: SourceParams, dm: DecayModel,
               write_eta: float, read_eta: float,
               settings: MeasurementSettings, n_cycles: int, seed: SeedSpec,
               *, dump: Optional[BinaryIO] = None,
               n_workers: int = 1) -> TrialRunResult:
    """Simulate ``n_cycles`` experimental cycles and accumulate counts.

    The returned counts satisfy the CoincidenceCounts invariants by
    construction. ``n_workers`` only partitions cycles across threads; the
    result is identical for any value.

    ``dump``, an open binary file, receives the click-record stream: the
    header ``cycle,trial,herald,readout,background,t_ns`` and one
    ``\\n``-terminated line per executed trial, written batch by batch as
    the trials are sampled. A dumped run samples all cycles in the calling
    thread, whatever ``n_workers``.
    """
    (res,) = _sample(cfg, sp, dm, write_eta, read_eta, [settings], [seed],
                     n_cycles, n_workers, dump)
    return res


DUMP_HEADER = b"cycle,trial,herald,readout,background,t_ns\n"

# A dump line is formatted as a row of 4-byte words in which every byte the
# line drops is NUL. An integer field takes one word per four digits,
# filled from its units group up by uint64 floor division; a group with
# nothing left above it takes its lead word, whose leading zeros are NUL.
# The fixed middle ",herald,readout,background," takes three NUL-padded
# words looked up by its code; "," and "\n" take a word each. A block's
# words with their NULs deleted are its lines.

# Rows per formatting block. A block holds its words (40 B a row in a
# simulate run, 80 B at most), their bytes and its lines. Dumping a 10 s
# simulate run (about 450,000 rows), blocks of 1,024 to 16,384 rows kept
# the peak RSS within 0.7 MB (2%) of each other, while 32,768-row blocks
# raised it by 2.5 MB and 65,536-row blocks by 8 MB; 16,384-row blocks
# wrote the dump fastest.
DUMP_ROWS = 16_384

_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # least values of 2..19 digits


def _group_words():
    """The lead words of 0..9999, then their full four-digit words.

    Built from a uint8 index grid: int64 digit arithmetic would add 1 MB to
    the import's peak memory."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    table = np.empty((2, 10_000, 4), dtype=np.uint8)
    lead, full = table
    np.add(digits, ord("0"), out=full)
    # digit j of r (j = 0 the thousands) is a leading zero if r < 10**(3 - j)
    shown = (np.arange(10_000, dtype=np.uint16)[:, None]
             >= np.array([1000, 100, 10, 1], dtype=np.uint16))
    np.multiply(full, shown, out=lead)
    return table.view(np.uint32).ravel()


# A group's table is indexed with min(q, q % 10**4 + 10**4), q the value
# left at the group: below 10**4, its lead word, exactly when nothing is
# left above the group. The lead word of a units group of 0 is "0".
_GROUP_WORDS = _group_words()
_UNITS_WORDS = _GROUP_WORDS.copy()
_UNITS_WORDS[0] = np.frombuffer(b"\0\0\0" b"0", dtype=np.uint32)[0]
_TEN_K = np.uint64(10_000)
_COMMA = np.frombuffer(b",\0\0\0", dtype=np.uint32)[0]
_NEWLINE = np.frombuffer(b"\n\0\0\0", dtype=np.uint32)[0]
# the middle per code (herald * 5 + readout) * 2 + background
_MIDDLE = np.frombuffer(b"".join(
    b"," + h + b"," + r + b"," + bg + b",\0\0\0"
    for h in (b"\0\0", b"D1", b"D2")
    for r in (b"\0\0", b"\0\0", b"\0\0", b"D3", b"D4")
    for bg in (b"0", b"1")), dtype=np.uint32).reshape(30, 3)


def _n_words(x) -> int:
    """Digit words that the largest of non-negative int64s ``x`` needs."""
    return (int(np.searchsorted(_POW10, x.max(), side="right")) + 4) // 4


def _put_digits(x, words) -> None:
    """Decimal digits of non-negative int64s, right-aligned in ``words``
    with NUL in place of leading zeros."""
    q = x.view(np.uint64)
    table = _UNITS_WORDS
    for g in range(words.shape[1] - 1, 0, -1):
        above = q // _TEN_K
        i = above * _TEN_K
        np.subtract(q, i, out=i)
        i += _TEN_K
        np.minimum(i, q, out=i)
        words[:, g] = table[i.view(np.intp)]
        q = above
        table = _GROUP_WORDS
    words[:, 0] = table[q.view(np.intp)]


def _record_lines(cyc, slot, her, read, bg, t_ns) -> bytes:
    """The dump lines of one block of records, joined."""
    # columns: cycle | "," | trial | middle (3) | t_ns | "\n"
    c1 = _n_words(cyc)
    c2 = c1 + 1 + _n_words(slot)
    c3 = c2 + 3
    c4 = c3 + _n_words(t_ns)
    words = np.empty((cyc.size, c4 + 1), dtype=np.uint32)
    _put_digits(cyc, words[:, :c1])
    words[:, c1] = _COMMA
    _put_digits(slot, words[:, c1 + 1:c2])
    code = (her.astype(np.intp) * 5 + read) * 2 + bg
    words[:, c2:c3] = np.take(_MIDDLE, code, axis=0)
    _put_digits(t_ns, words[:, c3:c4])
    words[:, c4] = _NEWLINE
    return words.tobytes().translate(None, b"\0")


def write_record_dump(fh, *cols) -> None:
    """Write the dump lines of one batch's record columns ``cols`` (cycle,
    slot, herald, readout, background, t_ns) to the open binary file ``fh``,
    formatted ``DUMP_ROWS`` at a time; the bytes do not depend on that
    block size."""
    for lo in range(0, cols[0].size, DUMP_ROWS):
        fh.write(_record_lines(*(c[lo:lo + DUMP_ROWS] for c in cols)))


@dataclass(frozen=True)
class BootstrapErrors:
    """Standard errors from Poissonian count resampling."""

    e: object  # float for a single setting, tuple of four otherwise
    s_bell: Optional[float] = None
    r_qu: Optional[float] = None
    r_l: Optional[float] = None
    r_r: Optional[float] = None


def _poisson_resample(rng, base: np.ndarray, need_coinc_rows, need_singles_rows,
                      n_resamples: int, max_attempts: int) -> np.ndarray:
    """Draw resamples, redrawing rows whose estimators would be undefined."""
    out = np.empty((n_resamples, base.size), dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < n_resamples:
        want = n_resamples - filled
        if attempts >= max_attempts:
            raise InsufficientStatisticsError(
                "bootstrap resampling exhausted its redraw budget")
        take = min(want, max_attempts - attempts)
        draw = rng.poisson(lam=base, size=(take, base.size))
        attempts += take
        ok = np.ones(take, dtype=bool)
        for rows in need_coinc_rows:
            ok &= draw[:, rows].sum(axis=1) > 0
        for rows in need_singles_rows:
            ok &= (draw[:, rows] > 0).all(axis=1)
        good = draw[ok]
        n_take = min(good.shape[0], want)
        out[filled:filled + n_take] = good[:n_take]
        filled += n_take
    return out


# Upper bound on the bootstrap resamples: a bootstrap holds its resamples'
# counts, up to 16 int64 each, beside a Poisson draw of the same size, so
# 10**8 resamples would ask for about 25 GB; 100,000 take about 26 MB.
MAX_RESAMPLES = 100_000


def _check_resamples(n_resamples: int) -> None:
    if not 100 <= n_resamples <= MAX_RESAMPLES:
        raise ValueError(f"n_resamples must lie in [100, {MAX_RESAMPLES}], "
                         f"got {n_resamples}")


def bootstrap_errors(counts, n_resamples: int = 1000,
                     seed: SeedSpec = SeedSpec(0), *,
                     eta_td: Optional[float] = None) -> BootstrapErrors:
    """Standard errors of the coincidence estimators by Poisson resampling.

    ``counts`` is a single CoincidenceCounts (errors for E and, when
    ``eta_td`` is given, in (0, 1], the three retrieval estimators) or a
    sequence of four, one per CHSH setting (errors for each E and for the
    Bell parameter; ``eta_td`` raises ``ValueError`` there, as no
    retrieval is estimated from them). Each observed count is resampled as an
    independent Poisson variate with mean equal to the observation;
    resamples on which an estimator is undefined are redrawn, capped at
    ``10 * n_resamples`` attempts.

    The resampled counts are ``c13, c14, c23, c24`` of each set, then, for
    a single set, its singles ``s1, s2``, with or without ``eta_td``: the
    Poisson stream draws one variate per count, so leaving them out would
    change a single set's E error at every seed.
    """
    _check_resamples(n_resamples)
    single = isinstance(counts, CoincidenceCounts)
    sets = [counts] if single else list(counts)
    if not single and len(sets) != 4:
        raise ValueError("expected one CoincidenceCounts or a sequence of four")
    if not single and eta_td is not None:
        raise ValueError("eta_td applies to a single CoincidenceCounts, "
                         "not to the four CHSH settings")
    if eta_td is not None:
        _check_eta_td(eta_td)
    base = [v for c in sets for v in (c.c13, c.c14, c.c23, c.c24)]
    if single:
        base += [counts.s1, counts.s2]
    coinc_rows = [np.arange(4 * k, 4 * k + 4) for k in range(len(sets))]
    need_singles = [] if eta_td is None else [np.array([4]), np.array([5])]
    rng = np.random.default_rng(np.random.PCG64(seed.master_seed))
    draws = _poisson_resample(rng, np.array(base, dtype=np.int64),
                              coinc_rows, need_singles, n_resamples,
                              10 * n_resamples)
    es = [(d[:, 0] + d[:, 3] - d[:, 1] - d[:, 2]) / d.sum(axis=1)
          for d in (draws[:, rows] for rows in coinc_rows)]
    if not single:
        return BootstrapErrors(
            e=tuple(float(np.std(e, ddof=1)) for e in es),
            s_bell=float(np.std(bell_parameter(*es), ddof=1)))
    ratios = [None] * 3
    if eta_td is not None:  # qubit, left and right retrieval
        ratios = [float(np.std(draws[:, num].sum(axis=1)
                               / (eta_td * draws[:, den].sum(axis=1)), ddof=1))
                  for num, den in (([0, 3], [4, 5]), ([0], [4]), ([3], [5]))]
    return BootstrapErrors(float(np.std(es[0], ddof=1)), None, *ratios)


def _grid(ts: Sequence[float]) -> list:
    ts = list(ts)
    if not ts:
        raise ValueError("storage-time grid is empty")
    if any(t < 0 for t in ts):
        raise ValueError("storage times must be >= 0")
    return ts


def retrieval_sweep(ts: Sequence[float], cfg: SequenceConfig,
                    sp: SourceParams, dm: DecayModel, write_eta: float,
                    read_eta: float, n_cycles: int, seed: SeedSpec, *,
                    n_workers: int = 1) -> list:
    """Intrinsic retrieval estimates over a grid of storage times (s).

    Per storage time, one run at both analysis angles zero feeds
    ``estimate_intrinsic_retrieval`` with ``read_eta`` divided out; point
    ``i`` draws from ``seed.child(i)``, so a point's estimate depends only
    on its storage time and position, and truncating the grid leaves the
    remaining points unchanged. Returns one ``RetrievalEstimates`` per
    point; raises ``InsufficientStatisticsError`` naming the storage time
    of a point without heralds on D1 or on D2.
    """
    out = []
    for i, t in enumerate(_grid(ts)):
        (res,) = _sample(cfg.with_storage_time(t), sp, dm, write_eta,
                         read_eta, [MeasurementSettings(0.0, 0.0)],
                         [seed.child(i)], n_cycles, n_workers)
        try:
            out.append(estimate_intrinsic_retrieval(res.counts, read_eta))
        except InsufficientStatisticsError as exc:
            raise InsufficientStatisticsError(
                f"storage time {t:.6g} s: {exc}") from exc
    return out


def bell_sweep(ts: Sequence[float], cfg: SequenceConfig, sp: SourceParams,
               dm: DecayModel, write_eta: float, read_eta: float,
               n_cycles: int, seed: SeedSpec, *, n_resamples: int = 500,
               n_workers: int = 1) -> list:
    """CHSH Bell parameter over a grid of storage times (s).

    Per storage time, one run per canonical CHSH setting; at point ``i``
    setting ``j`` draws from ``seed.child(i, j)`` and the Poisson bootstrap
    of the error from ``seed.child(i, 9)``, with the same truncation
    property as ``retrieval_sweep``. The four runs of a point are sampled
    together; each run's counts are those ``run_trials`` gives it on its
    seed and setting. Returns one ``Estimate`` of S per point; raises
    ``InsufficientStatisticsError`` naming the storage time of a point
    without coincidences in some setting, or whose bootstrap exhausts its
    redraws. ``n_resamples`` outside [100, ``MAX_RESAMPLES``] raises
    ``ValueError`` before any trial runs.
    """
    _check_resamples(n_resamples)
    out = []
    for i, t in enumerate(_grid(ts)):
        runs = _sample(cfg.with_storage_time(t), sp, dm, write_eta, read_eta,
                       CANONICAL_SETTINGS,
                       [seed.child(i, j)
                        for j in range(len(CANONICAL_SETTINGS))],
                       n_cycles, n_workers)
        counts = [r.counts for r in runs]
        try:
            s = bell_parameter(*(correlation_E(c) for c in counts))
            errs = bootstrap_errors(counts, n_resamples, seed.child(i, 9))
        except InsufficientStatisticsError as exc:
            raise InsufficientStatisticsError(
                f"storage time {t:.6g} s: {exc}") from exc
        out.append(Estimate(s, errs.s_bell))
    return out
