import contextlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dlczsim import _kernels
from dlczsim.model import DecayModel, MeasurementSettings, SourceParams
from dlczsim.montecarlo import SeedSpec, SequenceConfig, run_trials
from oracles import counts_from_rows, trial_records_oracle, trial_uniform_oracle


def test_mix64_reference_values():
    # splitmix64 of 0, 1 with the standard increment/finalizer constants
    assert _kernels.mix64(0) == 0xE220A8397B1DCDAF
    assert _kernels.mix64(1) == 0x910A2DEC89025CC1


def test_derive_stream_changes_with_any_tag():
    base = _kernels.derive_stream(42)
    assert _kernels.derive_stream(42, 1) != base
    assert _kernels.derive_stream(42, 1, 2) != _kernels.derive_stream(42, 2, 1)


def test_uniforms_in_unit_interval_and_roughly_uniform():
    u = _kernels.trial_uniforms_numpy(987654321, np.zeros(200000, np.uint64),
                                      np.arange(200000, dtype=np.uint64), 0)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    # draws decorrelate between draw indices
    v = _kernels.trial_uniforms_numpy(987654321, np.zeros(200000, np.uint64),
                                      np.arange(200000, dtype=np.uint64), 1)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_vectorized_uniforms_match_scalar_chain():
    cycles = np.array([0, 1, 7, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
    slots = np.array([0, 3999, 5, 17, 2 ** 63], dtype=np.uint64)
    for seed in (0, 12345, 2 ** 64 - 1):
        for draw in (0, 1, 2):
            u = _kernels.trial_uniforms_numpy(seed, cycles, slots, draw)
            assert u.tolist() == [
                trial_uniform_oracle(seed, int(c), int(s), draw)
                for c, s in zip(cycles, slots)]


def test_raw_words_give_the_uniforms():
    # the uniform of a hash word is its top 53 bits
    cycles = np.array([0, 1, 7, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
    slots = np.array([0, 3999, 5, 17, 2 ** 63], dtype=np.uint64)
    for draw in (0, 1, 2):
        u = _kernels.trial_uniforms_numpy(12345, cycles, slots, draw)
        h = _kernels.trial_uniforms_numpy(12345, cycles, slots, draw,
                                          raw=True)
        assert h.dtype == np.uint64 and h.shape == u.shape
        assert ((h >> np.uint64(11)) * 2.0 ** -53).tolist() == u.tolist()


def test_counts_partition_invariance():
    # splitting the cycle range must not change the merged totals
    kw = dict(n_slots=500, p_herald=0.1, a13=0.2, a14=0.05, a23=0.05,
              a24=0.2, p_noise=1e-3, skip_slots=2)
    whole = np.asarray(_kernels.counts_kernel(77, 0, 40, **kw))
    parts = sum(np.asarray(_kernels.counts_kernel(77, lo, hi, **kw))
                for lo, hi in ((0, 13), (13, 21), (21, 40)))
    assert np.array_equal(whole, parts)


def _streamed(*args, **kw):
    """counts_kernel's tuple and the row arrays it streamed, from one pass.

    The arrays of every batch are joined: (cycle, slot, herald, readout,
    background), each with the dtype of the batches.
    """
    batches = []
    counts = _kernels.counts_kernel(*args, **kw,
                                    rows=lambda *cols: batches.append(cols))
    cols = [np.concatenate(c) for c in zip(*batches)] if batches else \
        [np.empty(0)] * 5
    return counts, cols


def test_records_consistent_with_counts():
    kw = dict(p_herald=0.08, a13=0.25, a14=0.05, a23=0.05, a24=0.25,
              p_noise=5e-3, skip_slots=4)
    counts, (cyc, slot, her, read, bg) = _streamed(55, 0, 25, 800, **kw)
    c13 = int(np.sum((her == 1) & (read == 3)))
    c14 = int(np.sum((her == 1) & (read == 4)))
    c23 = int(np.sum((her == 2) & (read == 3)))
    c24 = int(np.sum((her == 2) & (read == 4)))
    s1 = int(np.sum(her == 1))
    s2 = int(np.sum(her == 2))
    assert (c13, c14, c23, c24, s1, s2, cyc.size, int(bg.sum())) == counts
    # streaming the rows does not change the counts
    assert _kernels.counts_kernel(55, 0, 25, 800, **kw) == counts
    assert [a.dtype for a in (cyc, slot, her, read, bg)] == [
        np.int64, np.int64, np.uint8, np.uint8, np.bool_]
    # readout implies herald
    assert not np.any((her == 0) & (read != 0))


def test_blocked_slots_never_execute():
    kw = dict(p_herald=0.5, a13=0.4, a14=0.1, a23=0.1, a24=0.4,
              p_noise=0.0, skip_slots=5)
    _, (cyc, slot, her, read, bg) = _streamed(9, 0, 5, 300, **kw)
    for c in range(5):
        s = slot[cyc == c]
        h = her[cyc == c]
        heralded = s[h > 0]
        for hs in heralded:
            blocked = s[(s > hs) & (s <= hs + 5)]
            assert blocked.size == 0


def test_empty_cycle_range_and_empty_cycles():
    kw = dict(p_herald=0.3, a13=0.2, a14=0.1, a23=0.1, a24=0.2,
              p_noise=0.1, skip_slots=3)
    assert _kernels.counts_kernel(1, 5, 5, 100, **kw) == (0,) * 8
    assert _kernels.counts_kernel(1, 0, 4, 0, **kw) == (0,) * 8
    for n_slots, lo, hi in ((100, 5, 5), (0, 0, 4)):
        counts, rec = _streamed(1, lo, hi, n_slots, **kw)
        assert counts == (0,) * 8
        assert [a.size for a in rec] == [0] * 5


# --- the core against the scalar oracle -------------------------------------

probability = st.one_of(st.sampled_from([0.0, 1.0]),
                        st.floats(0.0, 1.0, allow_nan=False))

kernel_inputs = st.fixed_dictionaries(dict(
    master_seed=st.integers(0, 2 ** 64 - 1),
    cycle_lo=st.integers(0, 2 ** 40),
    n_cycles=st.integers(0, 4),
    n_slots=st.integers(1, 40),
    p_herald=probability,
    a13=probability, a14=probability, a23=probability, a24=probability,
    p_noise=probability,
    skip_slots=st.integers(0, 12),
    chunk_slots=st.integers(1, 120),
    mix_slots=st.integers(1, 50),
))


@contextlib.contextmanager
def _batch_sizes(chunk_slots, mix_slots):
    # small batches and mix pieces, so a few cycles span several of each
    with mock.patch.object(_kernels, "CHUNK_SLOTS", chunk_slots), \
            mock.patch.object(_kernels, "MIX_SLOTS", mix_slots):
        yield


def _split_inputs(kw):
    kw = dict(kw)
    lo = kw.pop("cycle_lo")
    hi = lo + kw.pop("n_cycles")
    sizes = _batch_sizes(kw.pop("chunk_slots"), kw.pop("mix_slots"))
    seed = kw.pop("master_seed")
    n_slots = kw.pop("n_slots")
    return (seed, lo, hi, n_slots), kw, sizes


def _counts_and_rows(*args, **kw):
    """counts_kernel's tuple and its streamed rows as tuples, from one pass."""
    counts, cols = _streamed(*args, **kw)
    return counts, list(zip(*(c.tolist() for c in cols)))


@settings(max_examples=150, deadline=None)
@given(kernel_inputs)
def test_core_matches_scalar_oracle(kw):
    pos, kw, sizes = _split_inputs(kw)
    rows = trial_records_oracle(*pos, **kw)
    with sizes:
        assert _counts_and_rows(*pos, **kw) == (counts_from_rows(rows), rows)
        assert _kernels.counts_kernel(*pos, **kw) == counts_from_rows(rows)


def test_core_mixes_in_pieces_like_oracle():
    # batches of 6 cycles, slot mixes 25 slots at a time across cycle ends
    args = (31, 5, 12, 10)
    kw = dict(p_herald=0.4, a13=0.3, a14=0.2, a23=0.1, a24=0.5, p_noise=0.3,
              skip_slots=2)
    rows = trial_records_oracle(*args, **kw)
    with _batch_sizes(60, 25):
        assert _counts_and_rows(*args, **kw) == (counts_from_rows(rows), rows)
        assert _kernels.counts_kernel(*args, **kw) == counts_from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(kernel_inputs, st.lists(st.integers(0, 4), max_size=3))
def test_core_partition_invariance(kw, cuts):
    (seed, lo, hi, n_slots), kw, sizes = _split_inputs(kw)
    edges = [lo] + sorted(min(lo + c, hi) for c in cuts) + [hi]
    whole_counts, whole_rows = _counts_and_rows(seed, lo, hi, n_slots, **kw)
    counts = np.zeros(8, dtype=np.int64)
    rows = []
    with sizes:
        for a, b in zip(edges, edges[1:]):
            part, part_rows = _counts_and_rows(seed, a, b, n_slots, **kw)
            counts += part
            rows += part_rows
    assert tuple(counts.tolist()) == whole_counts
    assert rows == whole_rows


@settings(max_examples=60, deadline=None)
@given(kernel_inputs)
def test_core_records_reduce_to_counts(kw):
    pos, kw, sizes = _split_inputs(kw)
    with sizes:
        counts, rows = _counts_and_rows(*pos, **kw)
        # the one tally a dumped run takes its counts from
        assert counts == counts_from_rows(rows)
        assert _kernels.counts_kernel(*pos, **kw) == counts
    # a readout needs a herald, and background flags a readout
    assert all(r[2] > 0 for r in rows if r[3] > 0)
    assert all(r[3] > 0 for r in rows if r[4])


@settings(max_examples=60, deadline=None)
@given(kernel_inputs)
def test_core_blocked_slots_never_execute(kw):
    (seed, lo, hi, n_slots), kw, sizes = _split_inputs(kw)
    skip = kw["skip_slots"]
    with sizes:
        _, rows = _counts_and_rows(seed, lo, hi, n_slots, **kw)
    executed = {(r[0], r[1]) for r in rows}
    blocked = {(r[0], s) for r in rows if r[2] > 0
               for s in range(r[1] + 1, min(r[1] + skip, n_slots - 1) + 1)}
    # exactly the slots outside every herald's window run, once each
    assert len(executed) == len(rows)
    assert executed.isdisjoint(blocked)
    assert len(executed) + len(blocked) == (hi - lo) * n_slots


# --- herald decisions at the comparison boundary ---------------------------

EDGE = (21, 3, 7)  # seed, cycle, slot of the uniform the boundary sits on
U_EDGE = trial_uniform_oracle(*EDGE, 0)


def _boundary_probabilities():
    # p at the uniform decides herald against none, 2 * p at it D1 against
    # D2; k * 2**-53 are the values a uniform can take
    ps = [0.0, 1.0, U_EDGE, 2.0 * U_EDGE]
    ps += [k * 2.0 ** -53 for k in (1, 2, 2 ** 52, 2 ** 53 - 1)]
    out = []
    for p in ps:
        out += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return sorted({float(p) for p in out})


@pytest.mark.parametrize("p", _boundary_probabilities())
def test_herald_decision_at_the_boundary(p):
    seed, cycle, slot = EDGE
    args = (seed, cycle, cycle + 1, 16)
    kw = dict(p_herald=p, a13=0.3, a14=0.2, a23=0.1, a24=0.5, p_noise=0.2,
              skip_slots=0)
    rows = trial_records_oracle(*args, **kw)
    assert _counts_and_rows(*args, **kw) == (counts_from_rows(rows), rows)
    assert _kernels.counts_kernel(*args, **kw) == counts_from_rows(rows)
    herald = 0 if not U_EDGE < p else 1 if U_EDGE < p * 0.5 else 2
    assert rows[slot][:3] == (cycle, slot, herald)


# --- decisions on hash words ------------------------------------------------

def _uniform(h):
    # the uniform of a hash word, as the float path and the oracle form it
    return (h >> 11) * 2.0 ** -53


def _near(p):
    return [float(np.nextafter(p, -np.inf)), p, float(np.nextafter(p, np.inf))]


SPECIAL_PROBABILITIES = [
    0.0, -0.0, math.nan, -1.0, 5e-324, 1e-310, 2.0 ** -1022, 2.0 ** -53,
    float(np.nextafter(1.0, 0.0)), 1.0, 1.5, 2.0 ** 1023, math.inf]


def _lattice(k_max):
    # the values a uniform takes, k * 2**-53, and their neighbours
    return st.integers(0, k_max).flatmap(
        lambda k: st.sampled_from(_near(k * 2.0 ** -53)))


@st.composite
def words_near(draw, p):
    # the ends of the range, multiples of 2**11 and their neighbours, the
    # words next to the key of p, or any word
    key = _kernels._threshold(p)
    k = draw(st.integers(0, 2 ** 53))
    h = draw(st.one_of(
        st.sampled_from([0, 2 ** 64 - 1, key - 1, key, key + 1]),
        st.sampled_from([(k << 11) - 1, k << 11, (k << 11) + 1]),
        st.integers(0, 2 ** 64 - 1)))
    return min(max(h, 0), 2 ** 64 - 1)


def _decided_alike(p, words):
    key = _kernels._threshold(p)
    assert 0 <= key <= 2 ** 64 and key % 2 ** 11 == 0
    got = (np.array(words, dtype=np.uint64) < key).tolist()
    assert got == [_uniform(h) < p for h in words]


@pytest.mark.parametrize("p", SPECIAL_PROBABILITIES + _near(0.5)
                         + _near(3 * 2.0 ** -53))
def test_word_threshold_at_pinned_values(p):
    key = _kernels._threshold(p)
    words = [0, 1, 2 ** 11 - 1, 2 ** 11, 2 ** 11 + 1, 2 ** 63,
             2 ** 64 - 2 ** 11 - 1, 2 ** 64 - 2 ** 11, 2 ** 64 - 1]
    words += [h for h in (key - 1, key, key + 1) if 0 <= h < 2 ** 64]
    _decided_alike(p, words)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.one_of(st.sampled_from(SPECIAL_PROBABILITIES),
                            _lattice(2 ** 53), st.floats()))
def test_word_threshold_matches_the_uniform(data, p):
    _decided_alike(p, [data.draw(words_near(p)) for _ in range(8)])


READ_SEED, READ_CYCLE = 21, 3


def _heralding_slot(p_herald, d1):
    """First slot of the cycle that heralds D1 (or D2) under p_herald."""
    for slot in itertools.count():
        u0 = trial_uniform_oracle(READ_SEED, READ_CYCLE, slot, 0)
        if u0 < p_herald and (u0 < p_herald * 0.5) == d1:
            return slot


def _summing_to(total):
    """(b3, b4) whose float sum is exactly ``total``, b3 an eighth of it."""
    b3 = total / 8
    b4 = total - b3
    while b3 + b4 != total:
        b4 = float(np.nextafter(b4, total if b3 + b4 < total else -total))
    return b3, b4


@pytest.mark.parametrize("path", [0, 1])  # window 0: full path, 1: scan
@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("edge", ["b3", "b3+b4", "p_noise", "p_noise/2"])
@pytest.mark.parametrize("d1", [True, False])
@pytest.mark.parametrize("p_herald", [0.1, 1.0])
def test_readout_decision_at_the_boundary(p_herald, d1, edge, ulps, path):
    slot = _heralding_slot(p_herald, d1)
    u1, u2 = (trial_uniform_oracle(READ_SEED, READ_CYCLE, slot, d)
              for d in (1, 2))
    b3, b4, p_noise = 0.2, 0.3, 0.4
    if edge == "b3":
        b3 = _near(u1)[ulps + 1]
    elif edge == "b3+b4":
        b3, b4 = _summing_to(_near(u1)[ulps + 1])
    else:  # draw 1 misses, draw 2 decides
        b3 = b4 = 0.0
        p_noise = _near(u2)[ulps + 1] * (1.0 if edge == "p_noise" else 2.0)
    other = (0.35, 0.25)
    a13, a14 = (b3, b4) if d1 else other
    a23, a24 = other if d1 else (b3, b4)
    args = (READ_SEED, READ_CYCLE, READ_CYCLE + 1, slot + 3)
    kw = dict(p_herald=p_herald, a13=a13, a14=a14, a23=a23, a24=a24,
              p_noise=p_noise, skip_slots=0)
    rows = trial_records_oracle(*args, **kw)
    with mock.patch.object(_kernels, "_scan_window", lambda *_: path):
        assert _counts_and_rows(*args, **kw) == (counts_from_rows(rows), rows)
    readout = 3 if u1 < b3 else 4 if u1 < b3 + b4 else \
        0 if not u2 < p_noise else 3 if u2 < p_noise * 0.5 else 4
    assert rows[slot][1:4] == (slot, 1 if d1 else 2, readout)


# --- bounded working set ----------------------------------------------------

WORKING_SET_LIMIT = 8 * 2 ** 20  # bytes


def _peak_bytes(n_cycles):
    kw = dict(p_herald=0.5, a13=0.4, a14=0.1, a23=0.1, a24=0.4,
              p_noise=1e-3, skip_slots=5)
    tracemalloc.start()
    try:
        _kernels.counts_kernel(3, 0, n_cycles, 4000, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counts_working_set_is_bounded():
    small = _peak_bytes(50)
    large = _peak_bytes(500)
    assert large <= 1.1 * small
    assert large < WORKING_SET_LIMIT


# a dumped run also holds one batch's rows and one formatting block
DUMP_WORKING_SET_LIMIT = 16 * 2 ** 20  # bytes


def _dump_peak_bytes(n_cycles, skip_slots, path):
    """tracemalloc peak of a dumped run, and the size of its dump."""
    cfg = SequenceConfig(storage_time=skip_slots * 2e-6)
    assert cfg.herald_skip_slots == skip_slots
    tracemalloc.start()
    try:
        with open(path, "wb") as fh:
            run_trials(cfg, SourceParams(chi=0.5, p_noise=1e-3),
                       DecayModel(0.77, 1e-3), 1.0, 0.5,
                       MeasurementSettings(0, 0), n_cycles, SeedSpec(3),
                       dump=fh)
        return tracemalloc.get_traced_memory()[1], path.stat().st_size
    finally:
        tracemalloc.stop()
        path.unlink()


@pytest.mark.parametrize("skip_slots", [5, 0])  # 0: every slot is a row
def test_dump_working_set_is_bounded(skip_slots, tmp_path):
    # 100 cycles are two full batches and a part, so the smaller run
    # already samples a batch while the last one's rows are written
    small, _ = _dump_peak_bytes(100, skip_slots, tmp_path / "dump.csv")
    large, size = _dump_peak_bytes(1000, skip_slots, tmp_path / "dump.csv")
    assert large <= 1.1 * small
    assert large < DUMP_WORKING_SET_LIMIT
    # the dump is larger than the memory that wrote it
    assert size > 2 * large


# --- the two sampler paths ---------------------------------------------------

path_inputs = st.fixed_dictionaries(dict(
    master_seed=st.integers(0, 2 ** 64 - 1),
    cycle_lo=st.integers(0, 2 ** 40),
    n_cycles=st.integers(1, 6),
    n_slots=st.integers(1, 40),
    p_herald=st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0]),
                       st.floats(0.0, 1.0)),
    a13=probability, a14=probability, a23=probability, a24=probability,
    p_noise=probability,
    skip_slots=st.integers(1, 40),
    window=st.floats(0.0, 1.0),  # 1 .. skip_slots + 1 slots
    chunk_slots=st.integers(1, 120),
    mix_slots=st.integers(1, 50),
    lane_slots=st.integers(1, 200),
))

# a 13-slot window in 10-slot cycles: every window crosses a cycle end
WINDOW_PAST_CYCLE_END = dict(
    master_seed=5, cycle_lo=3, n_cycles=4, n_slots=10, p_herald=0.3,
    a13=0.3, a14=0.2, a23=0.1, a24=0.5, p_noise=0.3, skip_slots=12,
    window=1.0, chunk_slots=20, mix_slots=7, lane_slots=26)


def _same_batches(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.cycle_lo, x.n_cycles, x.n_blocked) == \
            (y.cycle_lo, y.n_cycles, y.n_blocked)
        for field in ("flat", "herald", "readout", "background"):
            u, v = getattr(x, field), getattr(y, field)
            assert u.dtype == v.dtype and np.array_equal(u, v), field


@settings(max_examples=200, deadline=None)
@given(path_inputs)
@example(WINDOW_PAST_CYCLE_END)
def test_scan_and_full_paths_agree(kw):
    # each path forced through the dispatch rule: window 0 runs the full
    # hash, a positive one the lane scan, in lane groups of few cycles
    kw = dict(kw)
    sizes = (kw.pop("chunk_slots"), kw.pop("mix_slots"), kw.pop("lane_slots"))
    w = 1 + int(kw.pop("window") * kw["skip_slots"])
    seed = kw.pop("master_seed")
    lo = kw.pop("cycle_lo")
    args = (seed, lo, lo + kw.pop("n_cycles"), kw.pop("n_slots"))
    out = []
    for window in (0, w):
        with _batch_sizes(*sizes[:2]), \
                mock.patch.object(_kernels, "LANE_SLOTS", sizes[2]), \
                mock.patch.object(_kernels, "_scan_window",
                                  lambda *_: window):
            out.append((list(_kernels.herald_batches(*args, **kw)),
                        _counts_and_rows(*args, **kw)))
    (full, full_out), (scan, scan_out) = out
    _same_batches(full, scan)
    rows = trial_records_oracle(*args, **kw)
    assert full_out == scan_out == (counts_from_rows(rows), rows)


@contextlib.contextmanager
def _draw0_hashes():
    """List of the sizes of the draw-0 hashes drawn inside the block."""
    trial_uniforms = _kernels.trial_uniforms_numpy
    drawn = []

    def counting(seed, cycles, slots, draw, **kw):
        u = trial_uniforms(seed, cycles, slots, draw, **kw)
        if draw == 0:
            drawn.append(u.size)
        return u

    with mock.patch.object(_kernels, "trial_uniforms_numpy", counting):
        yield drawn


@pytest.mark.parametrize("p_herald", [0.003, 0.49])
@pytest.mark.parametrize("skip_slots", [0, 5])
def test_full_path_hashes_every_slot_once(p_herald, skip_slots):
    # every draw-0 hash goes through trial_uniforms_numpy, where a tracer
    # counts them: n_cycles x n_slots on the full path
    with _draw0_hashes() as drawn, \
            mock.patch.object(_kernels, "_scan_window", lambda *_: 0), \
            _batch_sizes(2000, 700):
        _kernels.counts_kernel(4, 10, 27, 300, p_herald, a13=0.3, a14=0.1,
                               a23=0.1, a24=0.3, p_noise=1e-2,
                               skip_slots=skip_slots)
    assert sum(drawn) == 17 * 300


def test_scan_hashes_little_more_than_the_slots_run():
    # p_herald 0.003 and 1300 blocked slots per herald (the paper's 2.6 ms
    # storage): the full path hashes about 4 slots per slot run
    with _draw0_hashes() as drawn:
        counts = _kernels.counts_kernel(11, 0, 200, 4000, 0.003, a13=0.3,
                                        a14=0.1, a23=0.1, a24=0.3,
                                        p_noise=1e-4, skip_slots=1300)
    slots_run = counts[6]
    assert counts[4] + counts[5] > 300  # heralds
    assert sum(drawn) <= 1.5 * slots_run
