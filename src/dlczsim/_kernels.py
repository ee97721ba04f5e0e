"""Hot trial-sampling kernel: one numpy sampler for counts and records.

The per-trial random stream is counter-based: every (cycle, slot, draw)
triple is hashed independently with a splitmix64 chain (cycle, then slot,
then draw), so the results are bit-identical however the cycles are
partitioned or in whatever order the triples are evaluated. The uniform of
a hash is its top 53 bits, ``(h >> 11) * 2**-53``, but the sampler never
forms it: every decision ``u < p`` is taken on the 64-bit word as
``h < _threshold(p)``, with ``_threshold(p) = ceil(p * 2**53) << 11``. The
two agree for every word and every ``p`` (the scaling by ``2**53`` is
exact, and an integer is below a real exactly when it is below its
ceiling), so the counts are those of the uniforms.

``herald_batches`` is the only sampler. It finds the accepted heralds of
its cycles by one of two paths, which give the same heralds:

* the full-hash path draws the draw 0 of every slot of a batch of whole
  cycles with one ``trial_uniforms_numpy`` call, then resolves the
  storage-blocking windows by walking next-candidate pointers for all
  cycles of the batch in step. Where candidates are dense, its hash
  words, candidate mask and prefix count go into one ``_Workspace`` a
  batch long, made once per ``herald_batches`` call and reused by each
  batch, so a dense run does not allocate and fault in these arrays anew
  for every batch;
* the lane scan runs one lane per cycle over a group of whole batches and
  draws only short windows from each lane's next open slot, so the slots a
  herald blocks are never hashed.

``_scan_window`` picks the path from a cost model fitted to measured times:
the scan where storage blocking skips much of a cycle and a cycle holds few
heralds, the full path where nothing or little is blocked. Either way the
readouts of the heralds are drawn once per batch or lane group and the
heralds come out as one ``HeraldBatch`` per batch of about ``CHUNK_SLOTS``
slots. The working set is bounded whatever the number of cycles: a
batch's hashes and candidates on the full path, a step of about
``LANE_SLOTS`` uniforms and a group of about ``GROUP_HERALDS`` heralds on
the scan.

``counts_kernel`` reduces the batches and, for a record dump, hands each
batch expanded by ``records_kernel`` to one row per executed trial to a
callback before sampling the next, so counts and records come from one
tally and the rows of a run are never held at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CYCLE_KEY = np.uint64(0xA24BAED4963EE407)
_SLOT_KEY = np.uint64(0x9FB21C651E98DF25)
_U64_MASK = 0xFFFFFFFFFFFFFFFF

# Write slots per batch (49 cycles of 4000): enough cycles for the
# acceptance walk to amortize its per-step overhead, and a fixed bound on
# the candidates, hence on the working set. The slot mixes run on
# MIX_SLOTS at a time so the piece and its shift buffer stay in a 2 MB L2.
# Both are measured optima for the dense and the sparse regime together.
CHUNK_SLOTS = 196_608
MIX_SLOTS = 65_536

# Lane scan: windows of at most SCAN_WINDOW_MAX slots, and lane groups of
# whole batches with at most LANE_SLOTS uniforms per step (lanes x window,
# the working set of a step, no larger than a batch's) and about
# GROUP_HERALDS heralds (their arrays and readout draws).
SCAN_WINDOW_MAX = 128
LANE_SLOTS = 65_536
GROUP_HERALDS = CHUNK_SLOTS // 8

# Costs of the dispatch rule in draw-0 hashes (about 9 ns each): a scan
# step's fixed numpy overhead, and the full path's acceptance walk per
# herald. Fitted by least squares to three timings of both paths on 65
# cases (p_herald 0.001-0.49, 1-3000 blocked slots, 300 and 1250 cycles of
# 4000 slots; 2-CPU x86 VM, numpy 2.4): the rule picks the faster path in
# 193 of the 195, and the other two are within 20% of a tie.
SCAN_STEP_COST = 7800
WALK_HERALD_COST = 20


def mix64(z: int) -> int:
    """splitmix64 finalizer on a plain Python integer (reference path)."""
    z = (z + 0x9E3779B97F4A7C15) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def derive_stream(master_seed: int, *tags: int) -> int:
    """Child seed derived by folding tags into the master seed one at a time."""
    h = master_seed & _U64_MASK
    for tag in tags:
        h = mix64((h ^ ((tag * 0x9E3779B97F4A7C15) & _U64_MASK)) & _U64_MASK)
    return h


def _mix_inplace(z, tmp):
    # same finalizer as mix64; ``tmp`` (same shape) holds the shifted copy
    z += _GOLD
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def trial_uniforms_numpy(master_seed: int, cycles, slots, draw: int,
                         out=None, tmp=None):
    """Vectorized per-(cycle, slot) hash words (uint64) for one draw index.

    Each word ``h`` stands for the uniform ``(h >> 11) * 2**-53``; the
    sampler compares words with ``_threshold`` keys and never forms the
    uniform. ``cycles`` and ``slots`` broadcast against each other: a column
    of cycles against a row of slots gives one row of words per cycle, and
    each cycle key is mixed once however many slots it meets. The slot
    mixes run ``MIX_SLOTS`` elements at a time, so the piece being mixed
    and its shift buffer stay in cache.

    ``out`` and ``tmp``, when given, are 1-D uint64 buffers at least as
    large as the result and as the shift buffer (``MIX_SLOTS`` or the
    result's size, whichever is smaller); the result is then a view of the
    front of ``out``, so a caller that hashes batch after batch can write
    every batch into the same memory.
    """
    c = np.atleast_1d(np.asarray(cycles, dtype=np.uint64))
    s = np.atleast_1d(np.asarray(slots, dtype=np.uint64))
    with np.errstate(over="ignore"):
        cycle_h = c * _CYCLE_KEY
        cycle_h ^= np.uint64(master_seed)
        _mix_inplace(cycle_h, np.empty_like(cycle_h))
        if out is None:
            h = cycle_h ^ (s * _SLOT_KEY)
        else:
            shape = np.broadcast_shapes(c.shape, s.shape)
            h = out[:math.prod(shape)].reshape(shape)
            np.bitwise_xor(cycle_h, s * _SLOT_KEY, out=h)
        flat = h.reshape(-1)
        if tmp is None:
            tmp = np.empty(min(flat.size, MIX_SLOTS), dtype=np.uint64)
        for i in range(0, flat.size, MIX_SLOTS):
            part = flat[i:i + MIX_SLOTS]
            t = tmp[:part.size]
            _mix_inplace(part, t)
            if draw:
                part ^= np.uint64(draw)
            _mix_inplace(part, t)
    return h


def _threshold(p) -> int:
    """Key ``T`` of probability ``p`` over hash words: ``h < T`` exactly
    when the uniform of ``h`` is below ``p``.

    The uniform is ``(h >> 11) * 2**-53`` and ``p * 2**53`` is exact, so
    ``u < p`` holds when the integer ``h >> 11`` is below ``p * 2**53``,
    that is below ``ceil(p * 2**53)``, that is when ``h`` is below
    ``ceil(p * 2**53) << 11``. For ``p >= 1`` the key is ``2**64``, above
    every word; for ``p <= 0`` or NaN it is 0, below every word. Keys are
    Python integers, which numpy 2 compares with uint64 words exactly, up
    to ``2**64`` and in ``np.less(..., out=)`` too (NEP 50 promotion; hence
    the ``numpy>=2.0`` floor).
    """
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def _accept(cand, is_cand, n_slots: int, skip_slots: int, count):
    """Positions in ``cand`` of the heralds the storage windows let through.

    ``cand`` holds the ascending flat (cycle-major) indices of the herald
    candidates of whole cycles, ``is_cand`` the mask they come from. In a
    cycle the first candidate is accepted and blocks the next
    ``skip_slots`` slots; each later accepted one is the first candidate
    past the previous window, its ``nxt``. One lane per cycle walks its
    ``nxt`` chain and all lanes step together, so the loop runs once per
    herald of the busiest cycle, whatever the number of cycles.

    The first candidate past each window comes from a binary search in
    ``cand``, cheaper for few candidates, or, when ``count`` is given (an
    int32 buffer of at least ``is_cand.size``), from a prefix count of the
    mask, looked up ``skip_slots`` on from each candidate.
    """
    n = cand.size
    size = is_cand.size
    ends = np.searchsorted(cand, np.arange(1, size // n_slots + 1) * n_slots)
    counts = np.diff(ends, prepend=0)
    nxt = np.empty(n + 1, dtype=np.intp)  # an intp index walks fastest
    if count is None:
        nxt[:n] = np.searchsorted(cand, cand + skip_slots, side="right")
    else:
        count = count[:size]
        np.copyto(count, is_cand)
        np.cumsum(count, out=count)
        nxt[:n] = np.take(count[min(skip_slots, size - 1):], cand,
                          mode="clip")
    # a chain that leaves its cycle ends at n, which points to itself, so
    # finished lanes idle there and the walk only checks every few steps
    nxt[n] = n
    nxt[:n][nxt[:n] >= np.repeat(ends, counts)] = n
    keep = np.zeros(n + 1, dtype=bool)
    lane = (ends - counts)[counts > 0]
    while lane.size and lane.min() < n:
        for _ in range(8):
            keep[lane] = True
            lane = nxt[lane]
    return np.flatnonzero(keep[:n])


class HeraldBatch(NamedTuple):
    """Accepted heralds of cycles ``[cycle_lo, cycle_lo + n_cycles)``.

    ``flat`` is the ascending index ``(cycle - cycle_lo) * n_slots + slot``
    of each herald; ``herald`` is 1/2 for D1/D2, ``readout`` 0/3/4 for
    none/D3/D4, ``background`` marks readouts drawn from the noise floor.
    ``n_blocked`` counts the write slots the storage windows skipped.
    """

    cycle_lo: int
    n_cycles: int
    flat: np.ndarray
    herald: np.ndarray
    readout: np.ndarray
    background: np.ndarray
    n_blocked: int


def _readouts(master_seed, cycles, slots, is_d1, keys):
    """Readout code (0/3/4) and background flag of each herald.

    ``keys`` are the ``_threshold`` keys of ``a13``, ``a13 + a14``,
    ``a23``, ``a23 + a24``, ``p_noise`` and ``p_noise / 2``.
    """
    k3_d1, k34_d1, k3_d2, k34_d2, k_noise, k_noise3 = keys
    readout = np.zeros(is_d1.size, dtype=np.uint8)
    background = np.zeros(is_d1.size, dtype=bool)
    if not is_d1.size:
        return readout, background
    h1 = trial_uniforms_numpy(master_seed, cycles, slots, 1)
    hit3 = np.where(is_d1, h1 < k3_d1, h1 < k3_d2)
    hit4 = ~hit3 & np.where(is_d1, h1 < k34_d1, h1 < k34_d2)
    readout[hit3] = 3
    readout[hit4] = 4
    miss = np.flatnonzero(~hit3 & ~hit4)
    if k_noise and miss.size:
        h2 = trial_uniforms_numpy(master_seed, cycles[miss], slots[miss], 2)
        bg = h2 < k_noise
        bg3 = bg & (h2 < k_noise3)
        readout[miss[bg3]] = 3
        readout[miss[bg & ~bg3]] = 4
        background[miss[bg]] = True
    return readout, background


def _open_slots(n_slots, p_herald, skip_slots) -> float:
    """Expected write slots that run per cycle: each herald takes
    ``1/p_herald`` open slots on average and then blocks ``skip_slots``."""
    return n_slots / (1.0 + p_herald * skip_slots)


def _scan_batches(n_slots, p_herald, skip_slots, w) -> int:
    """Whole batches per lane group of the scan: about ``LANE_SLOTS``
    uniforms per step and ``GROUP_HERALDS`` heralds per group."""
    step = max(1, CHUNK_SLOTS // max(n_slots, 1))
    heralds = step * p_herald * _open_slots(n_slots, p_herald, skip_slots)
    return max(1, min(int(GROUP_HERALDS // max(heralds, 1.0)),
                      LANE_SLOTS // w // step))


def _scan_window(p_herald, skip_slots, n_slots, n_cycles) -> int:
    """Window of the lane scan, or 0 where the full-hash path is faster.

    The window is the power of two at or above the mean candidate spacing
    ``1/p_herald``, at most ``SCAN_WINDOW_MAX`` and ``skip_slots + 1``.
    Per cycle, in draw-0 hashes, the full path costs ``n_slots`` plus
    ``WALK_HERALD_COST`` per herald for its acceptance walk, and the scan
    ``windows * (w + SCAN_STEP_COST / lanes)``: each window hashes ``w``
    slots and shares one step's fixed numpy overhead with the other lanes.
    A cycle has about ``heralds + open / w`` windows, ``open`` being its
    expected open slots. The scan runs where it is cheaper.
    """
    if skip_slots <= 0 or not 0.0 < p_herald < 1.0:
        return 0
    w = min(1 << -math.floor(math.log2(p_herald)), SCAN_WINDOW_MAX,
            skip_slots + 1)
    step = max(1, CHUNK_SLOTS // max(n_slots, 1))
    lanes = min(n_cycles,
                step * _scan_batches(n_slots, p_herald, skip_slots, w))
    if lanes <= 0:
        return 0
    open_slots = _open_slots(n_slots, p_herald, skip_slots)
    heralds = p_herald * open_slots
    scan = (heralds + open_slots / w) * (w + SCAN_STEP_COST / lanes)
    return w if scan < n_slots + WALK_HERALD_COST * heralds else 0


class _Workspace(NamedTuple):
    """Buffers of the full-hash path for batches of up to ``size`` slots.

    ``hashes`` takes a batch's draw-0 hash words and ``shift`` the shifted
    copies of their mixes, ``mask`` the candidate mask and ``count`` its
    prefix count in ``_accept``.

    ``herald_batches`` makes one where candidates are dense, from one in
    eight slots: there a batch's temporaries are large enough that the
    allocator hands their memory back and faults it in again for the next
    batch. Sparser batches allocate per batch, which costs no faults, and
    a workspace kept across their batches would only fragment the heap.
    """

    hashes: np.ndarray
    shift: np.ndarray
    mask: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, size):
        # the shift buffer is done with before the prefix count begins, so
        # the two share their memory
        n_shift = min(size, MIX_SLOTS)
        scratch = np.empty(max(8 * n_shift, 4 * size), dtype=np.uint8)
        return cls(np.empty(size, dtype=np.uint64),
                   scratch[:8 * n_shift].view(np.uint64),
                   np.empty(size, dtype=bool),
                   scratch[:4 * size].view(np.int32))


def _full(master_seed, lo, hi, slots, key, skip_slots, work):
    """Accepted heralds of cycles ``[lo, hi)`` from the draw 0 of every
    slot, a candidate where the hash is below ``key``. Returns their
    ascending flat indices from ``lo`` and the draw-0 hash of each.

    With ``work``, a ``_Workspace``, the hash, the mask and the prefix
    count go into the fronts of its buffers, so a run of batches reuses
    the same memory; with None they are allocated for the batch and the
    next candidates are found by binary search."""
    hashes, shift, mask, count = work or (None,) * 4
    cycles = np.arange(lo, hi)
    h = trial_uniforms_numpy(master_seed, cycles[:, None], slots, 0,
                             out=hashes, tmp=shift).reshape(-1)
    if mask is None:
        is_cand = h < key
    else:
        is_cand = np.less(h, key, out=mask[:h.size])
    flat = np.flatnonzero(is_cand)
    if skip_slots > 0 and flat.size > 1:
        flat = flat[_accept(flat, is_cand, slots.size, skip_slots, count)]
    return flat, h[flat]


def _scan(master_seed, lo, hi, n_slots, key, skip_slots, w):
    """Accepted heralds of cycles ``[lo, hi)`` by a lane scan.

    One lane per cycle holds its next open slot. At each step every live
    lane draws the draw 0 of the ``w`` slots from there and takes the first
    candidate, a hash below ``key``, then goes on ``skip_slots + 1`` slots
    past it, or ``w`` slots on when the window holds none. With
    ``w <= skip_slots + 1`` a window never holds a second herald. Returns
    the ascending flat indices of the heralds from ``lo`` and the draw-0
    hash of each.
    """
    offsets = np.arange(w, dtype=np.uint64)
    rows = np.arange(hi - lo)
    cycle = np.arange(lo, hi, dtype=np.uint64)
    start = np.zeros(hi - lo, dtype=np.uint64)
    end = np.uint64(n_slots)
    found = []
    while cycle.size:
        h = trial_uniforms_numpy(master_seed, cycle[:, None],
                                 start[:, None] + offsets, 0)
        # argmax is 0 for a window without a candidate
        k = (h < key).argmax(axis=1)
        h_k = h[rows[:cycle.size], k]
        got = h_k < key
        slot = start + k.view(np.uint64)
        found.append((cycle[got], slot[got], h_k[got]))
        start = slot + np.where(got, np.uint64(skip_slots + 1),
                                np.uint64(w))
        live = start < end
        if not live.all():
            cycle = cycle[live]
            start = start[live]
    cycle, slot, h0 = (np.concatenate(c) for c in zip(*found))
    del found
    # a window that crosses the cycle end may find a candidate past it
    inside = slot < end
    flat = (cycle[inside] - np.uint64(lo)) * end + slot[inside]
    flat = flat.view(np.int64)
    order = np.argsort(flat, kind="stable")
    return flat[order], h0[inside][order]


def herald_batches(master_seed, cycle_lo, cycle_hi, n_slots, p_herald,
                   a13, a14, a23, a24, p_noise, skip_slots):
    """Yield one ``HeraldBatch`` per batch of whole cycles, together about
    ``CHUNK_SLOTS`` slots (at least one cycle).

    Per executed trial: draw 0 heralds when ``u0 < p_herald`` (D1 when
    ``u0 < p_herald/2``); a herald blocks the next ``skip_slots`` slots of
    its cycle. Draw 1 picks the correlated readout, D3 with probability
    ``a13``/``a23`` and D4 with ``a14``/``a24`` given D1/D2; when it misses,
    draw 2 gives a background click with probability ``p_noise``, split
    evenly between D3 and D4. Blocked slots consume no draws.

    Every decision ``u < p`` is taken on the hash word as ``h < T``, with
    ``T = _threshold(p)`` built once per call from the same probability;
    the two are equivalent (see ``_threshold``), so no uniform is formed.

    ``_scan_window`` picks the path: the full-hash path samples and yields
    one batch at a time, the lane scan a group of whole batches (see
    ``_scan_batches``), whose batches are then yielded in turn. The stream
    of batches is the same on either path. From one candidate in eight
    slots the full path makes one ``_Workspace`` per call, as long as its
    first batch, and every batch writes into it; a call owns its
    workspace, so worker threads that run calls side by side share no
    buffer.
    """
    n_slots = int(n_slots)
    skip_slots = int(skip_slots)
    step = max(1, CHUNK_SLOTS // max(n_slots, 1))
    w = _scan_window(p_herald, skip_slots, n_slots, cycle_hi - cycle_lo)
    # the scan runs a lane group of whole batches, the full path a batch
    group = step * (_scan_batches(n_slots, p_herald, skip_slots, w)
                    if w else 1)
    slots = np.arange(n_slots)
    work = None
    if not w and 8 * p_herald >= 1:
        work = _Workspace.of(max(0, min(group, cycle_hi - cycle_lo)) * n_slots)
    key = _threshold(p_herald)
    key_d1 = _threshold(p_herald * 0.5)
    keys = (_threshold(a13), _threshold(a13 + a14), _threshold(a23),
            _threshold(a23 + a24), _threshold(p_noise),
            _threshold(p_noise * 0.5))

    def batches(lo, hi, flat, h0):
        # readouts of the heralds of cycles [lo, hi), one batch per step
        is_d1 = h0 < key_d1
        herald = np.where(is_d1, np.uint8(1), np.uint8(2))
        readout, background = _readouts(
            master_seed, flat // n_slots + lo, flat % n_slots, is_d1, keys)
        blocked = np.minimum(skip_slots, n_slots - 1 - flat % n_slots)
        bounds = list(range(0, hi - lo, step)) + [hi - lo]
        edges = np.searchsorted(flat, np.array(bounds) * n_slots).tolist()
        for c0, c1, i, j in zip(bounds, bounds[1:], edges, edges[1:]):
            yield HeraldBatch(lo + c0, c1 - c0, flat[i:j] - c0 * n_slots,
                              herald[i:j], readout[i:j], background[i:j],
                              int(blocked[i:j].sum()))

    for lo in range(cycle_lo, cycle_hi, group):
        hi = min(lo + group, cycle_hi)
        if w:
            found = _scan(master_seed, lo, hi, n_slots, key, skip_slots, w)
        else:
            found = _full(master_seed, lo, hi, slots, key, skip_slots, work)
        yield from batches(lo, hi, *found)
        del found  # freed before the next group is sampled


def _bins(herald, readout):
    """Heralded trials binned by ``(herald - 1) * 5 + readout``.

    Bins 3, 4 are c13, c14 and 8, 9 are c23, c24; bins 0-4 and 5-9 sum to
    s1 and s2. Trials without a herald (code 0) fall outside the bins.
    """
    return np.bincount(herald.astype(np.intp) * 5 + readout, minlength=15)[5:]


def records_kernel(b: HeraldBatch, n_slots: int, skip_slots: int):
    """Per-trial event arrays of one batch (the dump path).

    Returns arrays (cycle, slot, herald, readout, background) covering every
    executed trial of the batch in order. ``herald`` is 0/1/2 for
    none/D1/D2, ``readout`` 0/3/4 for none/D3/D4.
    """
    size = b.n_cycles * n_slots
    if skip_slots > 0 and b.flat.size:
        # the windows [flat + 1, stop) never overlap or touch, so a +1/-1
        # edge array summed up marks exactly the blocked slots, and the sum
        # is 0 or 1: int8 holds it
        stop = np.minimum(b.flat + (skip_slots + 1),
                          (b.flat // n_slots + 1) * n_slots)
        open_ = stop > b.flat + 1
        edges = np.zeros(size + 1, dtype=np.int8)
        edges[b.flat[open_] + 1] = 1
        edges[stop[open_]] = -1
        blocked = np.cumsum(edges[:size], dtype=np.int8)
        executed = np.flatnonzero(blocked == 0)
    else:
        executed = np.arange(size)
    at = np.searchsorted(executed, b.flat)
    her = np.zeros(executed.size, dtype=np.uint8)
    read = np.zeros(executed.size, dtype=np.uint8)
    bg = np.zeros(executed.size, dtype=bool)
    her[at] = b.herald
    read[at] = b.readout
    bg[at] = b.background
    return executed // n_slots + b.cycle_lo, executed % n_slots, her, read, bg


def counts_kernel(master_seed, cycle_lo, cycle_hi, n_slots, p_herald,
                  a13, a14, a23, a24, p_noise, skip_slots, rows=None):
    """Accumulate coincidence counts for a contiguous range of cycles.

    Returns ``(c13, c14, c23, c24, s1, s2, n_trials, n_background)``.
    ``rows``, when given, is called with the ``records_kernel`` arrays of
    each batch in turn, before the next batch is sampled, so the rows of
    the whole range are never held at once.
    """
    bins = np.zeros(10, dtype=np.int64)
    n_blocked = 0
    n_bg = 0
    for b in herald_batches(master_seed, cycle_lo, cycle_hi, n_slots,
                            p_herald, a13, a14, a23, a24, p_noise,
                            skip_slots):
        bins += _bins(b.herald, b.readout)
        n_blocked += b.n_blocked
        n_bg += np.count_nonzero(b.background)
        if rows is not None:
            rows(*records_kernel(b, n_slots, skip_slots))
    n_trials = max(cycle_hi - cycle_lo, 0) * n_slots - n_blocked
    return (int(bins[3]), int(bins[4]), int(bins[8]), int(bins[9]),
            int(bins[:5].sum()), int(bins[5:].sum()), int(n_trials),
            int(n_bg))
