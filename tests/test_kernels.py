import contextlib
import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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


def _uniforms(h):
    # the uniform of a hash word is its top 53 bits
    return (h >> np.uint64(11)) * 2.0 ** -53


def test_uniforms_in_unit_interval_and_roughly_uniform():
    keys = _kernels.cycle_keys(987654321, np.zeros(200000, np.uint64))
    u = _uniforms(_kernels.trial_uniforms_numpy(
        keys, np.arange(200000, dtype=np.uint64), 0))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    # draws decorrelate between draw indices
    v = _uniforms(_kernels.trial_uniforms_numpy(
        keys, np.arange(200000, dtype=np.uint64), 1))
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_vectorized_uniforms_match_scalar_chain():
    cycles = np.array([0, 1, 7, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
    slots = np.array([0, 3999, 5, 17, 2 ** 63], dtype=np.uint64)
    for seed in (0, 12345, 2 ** 64 - 1):
        for draw in (0, 1, 2):
            h = _kernels.trial_uniforms_numpy(
                _kernels.cycle_keys(seed, cycles), slots, draw)
            assert h.dtype == np.uint64 and h.shape == cycles.shape
            assert _uniforms(h).tolist() == [
                trial_uniform_oracle(seed, int(c), int(s), draw)
                for c, s in zip(cycles, slots)]


# a column of cycles against a row of slots, one cycle or one slot against
# many, or cycles and slots paired one to one
BROADCASTS = [("column", "row"), ("one", "row"), ("column", "one"),
              ("row", "row")]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), cycle_lo=st.integers(0, 2 ** 40),
       n=st.integers(1, 9), m=st.integers(1, 40),
       broadcast=st.sampled_from(BROADCASTS), draw=st.integers(0, 2),
       mix_slots=st.integers(1, 50), spare=st.integers(0, 20))
def test_uniforms_into_buffers_match_the_allocating_call(
        seed, cycle_lo, n, m, broadcast, draw, mix_slots, spare):
    shapes = {"column": (n, 1), "one": (1,), "row": (n,)}
    cycles = np.arange(cycle_lo, cycle_lo + n, dtype=np.uint64)
    cycles = cycles[:math.prod(shapes[broadcast[0]])].reshape(
        shapes[broadcast[0]])
    m = n if broadcast == ("row", "row") else m
    slots = np.arange(m, dtype=np.uint64)[:1 if broadcast[1] == "one" else m]
    size = np.broadcast(cycles, slots).size
    garbage = np.uint64(0xDEADBEEFDEADBEEF)
    # buffers longer than needed: the result takes the front of ``out``
    out = np.full(size + spare, garbage, dtype=np.uint64)
    tmp = np.full(min(size, mix_slots) + spare, garbage, dtype=np.uint64)
    keys = _kernels.cycle_keys(seed, cycles)
    with mock.patch.object(_kernels, "MIX_SLOTS", mix_slots):
        want = _kernels.trial_uniforms_numpy(keys, slots, draw)
        got = _kernels.trial_uniforms_numpy(keys, slots, draw, out=out,
                                            tmp=tmp)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.ctypes.data == out.ctypes.data
    assert np.all(out[size:] == garbage)


@settings(max_examples=150, deadline=None)
@given(lanes=st.lists(st.tuples(
           st.integers(0, 2 ** 64 - 1),
           # starts near 2**64 run their offsets past it
           st.one_of(st.integers(0, 2 ** 64 - 1),
                     st.integers(2 ** 64 - 64, 2 ** 64 - 1))),
           min_size=1, max_size=9),
       w=st.integers(1, 40), draw=st.integers(0, 2),
       mix_slots=st.integers(1, 50), spare=st.integers(0, 20))
def test_step_form_is_the_broadcast_form(lanes, w, draw, mix_slots, spare):
    # the lane scan's form: one key and one start per lane, and a row of
    # offsets multiplied by the slot key once
    keys, start = (np.array(c, dtype=np.uint64) for c in zip(*lanes))
    offsets = np.arange(w, dtype=np.uint64)
    offset_keys = offsets * _kernels._SLOT_KEY
    size = keys.size * w
    garbage = np.uint64(0xDEADBEEFDEADBEEF)
    out = np.full(size + spare, garbage, dtype=np.uint64)
    tmp = np.full(min(size, mix_slots) + spare, garbage, dtype=np.uint64)
    step = dict(offset_keys=offset_keys)
    with mock.patch.object(_kernels, "MIX_SLOTS", mix_slots):
        want = _kernels.trial_uniforms_numpy(keys[:, None],
                                             start[:, None] + offsets, draw)
        alone = _kernels.trial_uniforms_numpy(keys, start, draw, **step)
        got = _kernels.trial_uniforms_numpy(keys, start, draw, out=out,
                                            tmp=tmp, **step)
        unfinished = _kernels.trial_uniforms_numpy(keys, start, draw,
                                                   finish=False, **step)
    assert want.shape == (keys.size, w)
    for words in (alone, got):
        assert words.shape == want.shape and words.dtype == want.dtype
        assert np.array_equal(words, want)
    assert got.ctypes.data == out.ctypes.data
    assert np.all(out[size:] == garbage)
    # an unfinished word is its hash word in bits 63..33, and the last
    # xorshift finishes it
    assert np.array_equal(unfinished >> np.uint64(33), want >> np.uint64(33))
    assert np.array_equal(_kernels._finish(unfinished), want)


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


# --- draw-0 decisions in the band of unfinished words -----------------------

# seed, cycle, slot of a draw-0 word whose uniform U_TIE is below 1/8, the
# first of its cycle: at p_herald = U_TIE its key lies at most 2**11 below
# the word, in the word's band of 2**33, so the word is in the band without
# being a candidate. Slot 3, two on, is a candidate
TIE = (21, 0, 1)
U_TIE = trial_uniform_oracle(*TIE, 0)


@pytest.mark.parametrize("window", [0, 4, 16])  # 0: the full path
def test_word_in_the_band_that_misses_the_key(window):
    seed, cycle, slot = TIE
    key = _kernels._threshold(U_TIE)
    (h,) = _kernels.trial_uniforms_numpy(_kernels.cycle_keys(seed, [cycle]),
                                         [slot], 0)
    assert U_TIE < 1 / 8 and key <= int(h) < _kernels._band(key)
    args = (seed, cycle, cycle + 2, 40)
    kw = dict(p_herald=U_TIE, a13=0.3, a14=0.2, a23=0.1, a24=0.5,
              p_noise=0.2, skip_slots=20)
    rows = trial_records_oracle(*args, **kw)
    assert [r[2] for r in rows[:4]] == [0, 0, 0, 2]
    with mock.patch.object(_kernels, "_scan_window", lambda *_: window):
        assert _counts_and_rows(*args, **kw) == (counts_from_rows(rows), rows)
        assert _kernels.counts_kernel(*args, **kw) == counts_from_rows(rows)


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


LAWS = [(0.4, 0.1, 0.1, 0.4), (0.1, 0.4, 0.4, 0.1), (0.3, 0.2, 0.2, 0.3),
        (0.25, 0.25, 0.1, 0.4)]


def _runs_peak_bytes(n_cycles):
    # the four CHSH runs of a dense storage time in one call
    tracemalloc.start()
    try:
        _kernels.count_runs([3, 4, 5, 6], 0, n_cycles, 4000, 0.5, LAWS,
                            1e-3, 5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("window", [0, 2])  # the full path, the lane scan
def test_runs_working_set_is_bounded(window):
    with mock.patch.object(_kernels, "_scan_window", lambda *_: window):
        small = _runs_peak_bytes(50)
        large = _runs_peak_bytes(500)
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
    group_heralds=st.integers(1, 60),
))

# a 13-slot window in 10-slot cycles: every window crosses a cycle end
WINDOW_PAST_CYCLE_END = dict(
    master_seed=5, cycle_lo=3, n_cycles=4, n_slots=10, p_herald=0.3,
    a13=0.3, a14=0.2, a23=0.1, a24=0.5, p_noise=0.3, skip_slots=12,
    window=1.0, chunk_slots=20, mix_slots=7, lane_slots=26, group_heralds=5)


@settings(max_examples=200, deadline=None)
@given(path_inputs)
@example(WINDOW_PAST_CYCLE_END)
def test_scan_and_full_paths_agree(kw):
    # each path forced through the dispatch rule: window 0 runs the full
    # hash, a positive one the lane scan, whose dump lane groups are one
    # batch or several as GROUP_HERALDS is small or large
    kw = dict(kw)
    sizes = [kw.pop(k) for k in ("chunk_slots", "mix_slots", "lane_slots",
                                 "group_heralds")]
    w = 1 + int(kw.pop("window") * kw["skip_slots"])
    seed = kw.pop("master_seed")
    lo = kw.pop("cycle_lo")
    args = (seed, lo, lo + kw.pop("n_cycles"), kw.pop("n_slots"))
    out = []
    for window in (0, w):
        with _batch_sizes(*sizes[:2]), \
                mock.patch.object(_kernels, "LANE_SLOTS", sizes[2]), \
                mock.patch.object(_kernels, "GROUP_HERALDS", sizes[3]), \
                mock.patch.object(_kernels, "_scan_window",
                                  lambda *_: window):
            out.append(_counts_and_rows(*args, **kw))
    rows = trial_records_oracle(*args, **kw)
    assert out[0] == out[1] == (counts_from_rows(rows), rows)


runs_inputs = st.fixed_dictionaries(dict(
    seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
    laws=st.lists(st.tuples(probability, probability, probability,
                            probability), min_size=4, max_size=4),
    cycle_lo=st.integers(0, 2 ** 40),
    n_cycles=st.integers(0, 6),
    n_slots=st.integers(1, 40),
    p_herald=st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0]),
                       st.floats(0.0, 1.0)),
    p_noise=probability,
    skip_slots=st.integers(0, 40),
    window=st.floats(0.0, 1.0),  # 1 .. skip_slots + 1 slots
    chunk_slots=st.integers(1, 120),
    mix_slots=st.integers(1, 50),
    lane_slots=st.integers(1, 200),
    group_heralds=st.integers(1, 60),
))


def _runs_call(kw):
    """(seeds, laws, cycle range, shared inputs, scan window, sizes) of a
    ``runs_inputs`` example. ``sizes(window)`` forces the path through the
    dispatch rule, window 0 the full hash and a positive one the lane scan,
    and makes lane groups and herald pieces small, so that a few cycles
    span several of each and one group holds lanes of several runs."""
    kw = dict(kw)
    seeds = kw.pop("seeds")
    laws = kw.pop("laws")[:len(seeds)]
    lo = kw.pop("cycle_lo")
    hi = lo + kw.pop("n_cycles")
    w = 1 + int(kw.pop("window") * kw["skip_slots"])
    chunk, mix, lanes, heralds = (kw.pop(k) for k in (
        "chunk_slots", "mix_slots", "lane_slots", "group_heralds"))

    @contextlib.contextmanager
    def sizes(window):
        with _batch_sizes(chunk, mix), \
                mock.patch.object(_kernels, "LANE_SLOTS", lanes), \
                mock.patch.object(_kernels, "GROUP_HERALDS", heralds), \
                mock.patch.object(_kernels, "_scan_window",
                                  lambda *_: window):
            yield

    return seeds, laws, lo, hi, kw, w, sizes


def _runs(seeds, lo, hi, laws, n_slots, p_herald, p_noise, skip_slots):
    return _kernels.count_runs(seeds, lo, hi, n_slots, p_herald, laws,
                               p_noise, skip_slots)


@settings(max_examples=100, deadline=None)
@given(runs_inputs)
def test_runs_count_as_each_run_alone(kw):
    seeds, laws, lo, hi, shared, w, sizes = _runs_call(kw)
    want = [counts_from_rows(trial_records_oracle(
        seed, lo, hi, shared["n_slots"], shared["p_herald"], *law,
        shared["p_noise"], shared["skip_slots"]))
        for seed, law in zip(seeds, laws)]
    for window in (0, w):
        with sizes(window):
            got = _runs(seeds, lo, hi, laws, **shared)
            alone = [_kernels.counts_kernel(
                seed, lo, hi, shared["n_slots"], shared["p_herald"], *law,
                shared["p_noise"], shared["skip_slots"])
                for seed, law in zip(seeds, laws)]
        assert got.dtype == np.int64 and got.shape == (len(seeds), 8)
        assert [tuple(row) for row in got.tolist()] == alone == want


@settings(max_examples=60, deadline=None)
@given(runs_inputs, st.lists(st.integers(0, 6), max_size=3))
def test_runs_partition_invariance(kw, cuts):
    seeds, laws, lo, hi, shared, w, sizes = _runs_call(kw)
    edges = [lo] + sorted(min(lo + c, hi) for c in cuts) + [hi]
    for window in (0, w):
        with sizes(window):
            whole = _runs(seeds, lo, hi, laws, **shared)
            parts = [_runs(seeds, a, b, laws, **shared)
                     for a, b in zip(edges, edges[1:])]
        assert np.array_equal(whole, np.sum(parts, axis=0))


@contextlib.contextmanager
def _hashes():
    """(draw, size, base) of each hash array drawn inside the block; the
    base is the buffer the array is a view of, or None."""
    trial_uniforms = _kernels.trial_uniforms_numpy
    drawn = []

    def recording(keys, slots, draw, **kw):
        u = trial_uniforms(keys, slots, draw, **kw)
        drawn.append((draw, u.size, u.base))
        return u

    with mock.patch.object(_kernels, "trial_uniforms_numpy", recording):
        yield drawn


@pytest.mark.parametrize("p_herald", [0.003, 0.49])
@pytest.mark.parametrize("skip_slots", [0, 5])
@pytest.mark.parametrize("n_runs, n_cycles, batches", [
    (1, 17, 3),   # batches of 6, 6 and 5 cycles
    (4, 7, 5)],   # 28 lanes in batches of 6, 6, 6, 6 and 4, across runs
    ids=["one-run", "four-runs"])
def test_full_path_hashes_every_slot_once(n_runs, n_cycles, batches,
                                          p_herald, skip_slots):
    # every draw-0 hash goes through trial_uniforms_numpy, where a tracer
    # counts them: runs x cycles x n_slots on the full path, in batches
    # that fill up with the cycles of the next run
    with _hashes() as drawn, \
            mock.patch.object(_kernels, "_scan_window", lambda *_: 0), \
            _batch_sizes(2000, 700):
        _kernels.count_runs(range(4, 4 + n_runs), 10, 10 + n_cycles, 300,
                            p_herald, LAWS[:n_runs], 1e-2, skip_slots)
    draw0 = [(size, base) for draw, size, base in drawn if draw == 0]
    assert sum(size for size, _ in draw0) == n_runs * n_cycles * 300
    assert len(draw0) == batches
    if p_herald >= 1 / 8:
        # dense: the hash of every batch, the short last one too, is a
        # view of the call's one workspace buffer
        bases = [base for _, base in draw0]
        assert bases[0] is not None
        assert all(base is bases[0] for base in bases)


def test_scan_hashes_little_more_than_the_slots_run():
    # p_herald 0.003 and 1300 blocked slots per herald (the paper's 2.6 ms
    # storage): the full path hashes about 4 slots per slot run
    with _hashes() as drawn:
        counts = _kernels.counts_kernel(11, 0, 200, 4000, 0.003, a13=0.3,
                                        a14=0.1, a23=0.1, a24=0.3,
                                        p_noise=1e-4, skip_slots=1300)
    slots_run = counts[6]
    assert counts[4] + counts[5] > 300  # heralds
    assert sum(size for draw, size, _ in drawn if draw == 0) \
        <= 1.5 * slots_run


# --- the full path's workspace ----------------------------------------------

@pytest.mark.parametrize("p_herald, skip_slots", [
    (0.49, 3),   # prefix-count lookups
    (0.05, 4),   # binary-search lookups, no workspace
    (0.9, 0)])   # no blocking
@pytest.mark.parametrize("n_cycles", [7, 11])
def test_full_path_short_last_batch_matches_oracle(n_cycles, p_herald,
                                                   skip_slots):
    # batches of 3 cycles, so the last one is shorter than the workspace
    # and must not read what the batch before it left there
    args = (41, 1000, 1000 + n_cycles, 30)
    kw = dict(p_herald=p_herald, a13=0.3, a14=0.2, a23=0.1, a24=0.5,
              p_noise=0.2, skip_slots=skip_slots)
    rows = trial_records_oracle(*args, **kw)
    with _batch_sizes(90, 7), _hashes() as drawn, \
            mock.patch.object(_kernels, "_scan_window", lambda *_: 0):
        assert _counts_and_rows(*args, **kw) == (counts_from_rows(rows), rows)
    # and no stale slot of an earlier batch was taken for a herald: each
    # herald draws its readout once, and once more where that misses
    heralds = [r for r in rows if r[2]]
    misses = [r for r in heralds if r[3] == 0 or r[4]]
    assert [sum(size for draw, size, _ in drawn if draw == d)
            for d in (0, 1, 2)] == [n_cycles * 30, len(heralds), len(misses)]


def test_concurrent_calls_hash_into_their_own_buffers():
    # two calls in two threads, each holding a batch's hashes while the
    # other hashes its own: a buffer shared between calls would be the
    # base of both calls' hashes (no blocking, so a shared buffer cannot
    # stall an acceptance walk)
    trial_uniforms = _kernels.trial_uniforms_numpy
    both = threading.Barrier(2, timeout=30)
    bases = {}  # by thread: each call runs in a thread of its own

    def recording(keys, slots, draw, **kw):
        u = trial_uniforms(keys, slots, draw, **kw)
        if draw == 0:
            bases.setdefault(threading.get_ident(), []).append(u.base)
            both.wait()
        return u

    def call(seed):
        return _kernels.counts_kernel(seed, 0, 5, 300, 0.49, a13=0.3,
                                      a14=0.1, a23=0.1, a24=0.3,
                                      p_noise=1e-2, skip_slots=0)

    with mock.patch.object(_kernels, "trial_uniforms_numpy", recording), \
            mock.patch.object(_kernels, "_scan_window", lambda *_: 0), \
            _batch_sizes(600, 700), ThreadPoolExecutor(2) as pool:
        list(pool.map(call, (1, 2)))
    first, second = bases.values()
    for call in (first, second):  # one buffer for the 3 batches of a call
        assert len(call) == 3 and call[0] is not None
        assert all(base is call[0] for base in call)
    assert first[0] is not second[0]


def test_dense_run_is_the_same_at_two_workers():
    # p_herald 0.49 and 12 blocked slots per herald, as the dense CHSH
    # workload: each worker thread runs its own count_runs call, with
    # its own workspace, over several batches
    cfg = SequenceConfig(storage_time=12 * 2e-6)
    assert cfg.herald_skip_slots == 12
    runs = [run_trials(cfg, SourceParams(chi=0.5, p_noise=1e-3),
                       DecayModel(0.77, 1e-3), 0.98, 0.5,
                       MeasurementSettings(0, 22.5), 300, SeedSpec(17),
                       n_workers=w) for w in (1, 2)]
    one, two = runs
    assert _kernels._scan_window(0.49, 12, 4000, 150) == 0  # the full path
    assert two.counts == one.counts
    assert (two.n_trials, two.n_blocked_slots, two.n_background_readouts) \
        == (one.n_trials, one.n_blocked_slots, one.n_background_readouts)
