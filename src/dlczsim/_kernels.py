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

``cycle_keys`` mixes the cycle link of the chain once per cycle, and
``trial_uniforms_numpy`` goes on from those keys with the slot and the
draw; it makes every hash of the sampler. The lane scan, and the full
path where heralds are sparse (below one in eight slots), decide draw 0 on
unfinished words, which stop before the last xorshift of the chain: such
a word equals its hash word in bits 63..33, so only the few words below
the herald key's ``_band`` are finished and compared with the key itself.
The trial is written once, in ``count_runs``'s docstring. Its lanes are
(run, cycle) pairs, each with its own cycle key, and it samples them a
lane group at a time by one of two paths, which give the same heralds in
the same piece form ``(lane, slot, h0)``, in no set order:

* the full-hash path (``_full``) takes a batch of lanes as its group,
  draws the draw 0 of every slot with one ``trial_uniforms_numpy`` call,
  then resolves the storage-blocking windows by walking next-candidate
  pointers for all lanes in step. Where candidates are dense, its hash
  words, candidate mask and prefix count go into one ``_Workspace`` made
  once per call, so a dense run does not fault them in for every batch;
* the lane scan (``_scan``) draws only short windows from each lane's
  next open slot, so the slots a herald blocks are never hashed. A step
  hashes its windows in the step form of ``trial_uniforms_numpy`` (each
  lane's start and one row of offsets, multiplied by the slot key once)
  into buffers made once per lane group, so it allocates nothing the size
  of its windows.

``_scan_window`` picks the path from a cost model fitted to measured times:
the scan where storage blocking skips much of a cycle, a cycle holds few
heralds and there are lanes enough to share each step's fixed cost, the
full path where nothing or little is blocked.

The runs of a call share everything but their seed and readout law (the
four CHSH settings of a storage time), so a lane group may hold cycles of
several runs. Its pieces go to the call's ``_Tally``, which draws every
herald's readout, sums the slots it blocks and bins it by run and outcome,
unsorted. A record dump is a row sink of a one-run call whose lane groups
hold about ``GROUP_HERALDS`` heralds: a group's pieces are joined and
drawn at once, and ``records_kernel``, which takes heralds in any order,
expands them a batch of cycles at a time, so its rows are never all held.

The working set is bounded whatever the number of cycles: a batch's
hashes and candidates on the full path, a step of at most ``LANE_SLOTS``
uniforms on the scan, about ``GROUP_HERALDS`` heralds, and on a dump one
batch's rows.
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

# Lane scan: windows of at most SCAN_WINDOW_MAX slots and lane groups with
# at most LANE_SLOTS uniforms per step (lanes x window, the working set of a
# step, no larger than a batch's). The tally draws readouts for about
# GROUP_HERALDS heralds at a time, and a dump's lane groups hold about
# that many heralds, but at least a batch's cycles.
SCAN_WINDOW_MAX = 128
LANE_SLOTS = 65_536
GROUP_HERALDS = CHUNK_SLOTS // 8

# Costs of the dispatch rule in draw-0 hashes (about 10 ns each): a scan
# step's fixed numpy overhead, and the full path's acceptance walk per
# herald. Fitted by least squares, with a per-herald readout cost common to
# both paths, to the best of three timings of each path of ``count_runs``
# on 297 cases: 9 p_herald values from 0.001 to 0.7, 11 blocking lengths
# from 1 to 3000 slots, and 1 run of 300 cycles, 4 runs of 300 or 4 runs of
# 1250 (4000 slots a cycle; 2-CPU x86 VM, numpy 2.4). The rule picks the
# faster path in 266 cases, and its picks take 2.0% longer than the faster
# path's on average; the worst pick, 1.85x, is one run of 300 cycles at
# p_herald 0.7 and 25 blocked slots. The earlier fit (7800, 20), made for a
# scan that sorted its heralds and bounded its lane groups by them, takes
# 3.4% longer on these cases.
SCAN_STEP_COST = 5500
WALK_HERALD_COST = 5


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


def _mix_inplace(z, tmp, finish=True):
    # same finalizer as mix64; ``tmp`` (same shape) holds the shifted copy.
    # Unfinished, the last xorshift is left to ``_finish``
    z += _GOLD
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    if finish:
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp
    return z


def _finish(z):
    """Finish unfinished words in place with the last xorshift of the
    finalizer; they are then hash words."""
    z ^= z >> np.uint64(31)
    return z


def cycle_keys(master_seed, cycles):
    """Key of each cycle of a stream: the cycle link of the hash chain,
    mixed once, which ``trial_uniforms_numpy`` goes on from with the slot
    and the draw. ``master_seed``, an integer or a uint64 array, broadcasts
    against ``cycles``, so one call keys the cycles of several streams."""
    c = np.asarray(cycles, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = (c * _CYCLE_KEY) ^ np.asarray(master_seed, dtype=np.uint64)
        return _mix_inplace(k, np.empty_like(k))


def trial_uniforms_numpy(keys, slots, draw: int, out=None, tmp=None,
                         offset_keys=None, finish=True):
    """Vectorized per-(cycle, slot) hash words (uint64) for one draw index.

    ``keys`` are ``cycle_keys`` of the cycles. Each word ``h`` stands for
    the uniform ``(h >> 11) * 2**-53``; the sampler compares words with
    ``_threshold`` keys and never forms the uniform. ``keys`` and ``slots``
    broadcast against each other: a column of keys against a row of slots
    gives one row of words per cycle. The slot mixes run ``MIX_SLOTS``
    elements at a time, so the piece being mixed and its shift buffer stay
    in cache. Every hash the sampler makes is made here.

    ``offset_keys``, given, is ``offsets * _SLOT_KEY`` of a row of slot
    offsets, the step form of the lane scan: ``keys`` and ``slots`` are then
    1-D, one per lane, and the result holds one row per lane, the words of
    slots ``slots[:, None] + offsets``. Each is mixed from
    ``(slots * _SLOT_KEY)[:, None] + offset_keys``, which is
    ``(slots[:, None] + offsets) * _SLOT_KEY`` modulo ``2**64``, so a step
    multiplies once per lane rather than once per word.

    With ``finish`` False the words stop before the last ``z ^= z >> 31``
    of their mix: each then equals its hash word in bits 63..33, which
    ``_band`` decides on, and ``_finish`` completes it.

    ``out`` and ``tmp``, when given, are 1-D uint64 buffers at least as
    large as the result and as the shift buffer (``MIX_SLOTS`` or the
    result's size, whichever is smaller); the result is then a view of the
    front of ``out``, so a caller that hashes batch after batch can write
    every batch into the same memory.
    """
    # uint64 array arithmetic wraps modulo 2**64 and never warns
    k = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    s = np.atleast_1d(np.asarray(slots, dtype=np.uint64))
    if offset_keys is not None:
        shape = (s.size, offset_keys.size)
        h = (np.empty(shape, dtype=np.uint64) if out is None
             else out[:math.prod(shape)].reshape(shape))
        np.add((s * _SLOT_KEY)[:, None], offset_keys, out=h)
        h ^= k[:, None]
    elif out is None:
        h = k ^ (s * _SLOT_KEY)
    else:
        shape = np.broadcast_shapes(k.shape, s.shape)
        h = out[:math.prod(shape)].reshape(shape)
        np.bitwise_xor(k, s * _SLOT_KEY, out=h)
    flat = h.reshape(-1)
    if tmp is None:
        tmp = np.empty(min(flat.size, MIX_SLOTS), dtype=np.uint64)
    for i in range(0, flat.size, MIX_SLOTS):
        part = flat[i:i + MIX_SLOTS]
        t = tmp[:part.size]
        _mix_inplace(part, t)
        if draw:
            part ^= np.uint64(draw)
        _mix_inplace(part, t, finish)
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

    The lane scan, and the full path where candidates are sparse, decide
    draw 0 on unfinished words (see ``trial_uniforms_numpy``), against the
    key's ``_band``.
    """
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def _band(key) -> int:
    """Band of a ``_threshold`` key over unfinished words: the least
    multiple of ``2**33`` above ``key - 1``.

    An unfinished word ``z`` and its hash word ``h = z ^ (z >> 31)`` agree
    in bits 63..33, so ``h < key`` holds only where ``z`` is below the
    band. A word at or above the band is no candidate; one below it is
    finished and tested against ``key``, which fewer than one word in
    ``2**31`` then misses.
    """
    return (((key - 1) >> 33) + 1) << 33


def _accept(cand, is_cand, n_slots: int, skip_slots: int, count):
    """Positions in ``cand`` of the heralds the storage windows let through.

    ``cand`` holds the ascending flat (cycle-major) indices of the herald
    candidates of whole cycles, ``is_cand`` the mask they come from (read
    only for its size without ``count``, so it may hold more). In a
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


class _Law(NamedTuple):
    """Readout keys of the runs of a call.

    ``k3`` and ``k34`` hold, at ``2 * run + is_d1``, the ``_threshold`` keys
    of ``a23``/``a13`` and of ``a23 + a24``/``a13 + a14`` of each run,
    shifted right by 11 bits: a key ``T`` is a multiple of ``2**11``, so
    ``h < T`` exactly when ``h >> 11 < T >> 11``, and ``2**64 >> 11`` fits a
    uint64 where ``2**64`` does not. ``k34`` is raised to ``k3`` where it is
    below, which changes no readout: D4 is drawn below ``k34`` and not below
    ``k3``. ``k_noise`` and ``k_noise3`` are the keys of ``p_noise`` and
    ``p_noise / 2``, which the runs share.
    """

    k3: np.ndarray
    k34: np.ndarray
    k_noise: int
    k_noise3: int

    @classmethod
    def of(cls, laws, p_noise):
        """Keys of the readout laws ``(a13, a14, a23, a24)``, one a run."""
        k3, k34 = [], []
        for a13, a14, a23, a24 in laws:
            for b3, b4 in ((a23, a24), (a13, a14)):
                t3 = _threshold(b3)
                k3.append(t3 >> 11)
                k34.append(max(t3, _threshold(b3 + b4)) >> 11)
        return cls(np.array(k3, dtype=np.uint64),
                   np.array(k34, dtype=np.uint64), _threshold(p_noise),
                   _threshold(p_noise * 0.5))


def _readouts(keys, slots, sel, law):
    """Readout code (uint8 0/3/4) and background flag of each herald.

    ``keys`` and ``slots`` are the heralds' cycle keys and slots, ``sel``
    their ``2 * run + is_d1`` entries in the ``_Law`` tables. Every choice
    is taken by arithmetic on the comparisons, none by a branch per herald.
    """
    if not sel.size:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool)
    u = trial_uniforms_numpy(keys, slots, 1)
    u >>= np.uint64(11)
    hit3 = u < law.k3.take(sel)
    hit34 = u < law.k34.take(sel)
    del u  # freed before draw 2
    # a hit below k3 is one below k34 too: 4 - 1 for D3, 4 for D4
    readout = hit34 * np.uint8(4) - hit3
    background = np.zeros(sel.size, dtype=bool)
    miss = np.flatnonzero(~hit34)
    if law.k_noise and miss.size:
        h2 = trial_uniforms_numpy(keys[miss], slots[miss], 2)
        bg = h2 < law.k_noise
        # p_noise / 2 <= p_noise, so a hit below k_noise3 is a background one
        readout[miss] = bg * np.uint8(4) - (h2 < law.k_noise3)
        background[miss] = bg
    return readout, background


def _open_slots(n_slots, p_herald, skip_slots) -> float:
    """Expected write slots that run per cycle: each herald takes
    ``1/p_herald`` open slots on average and then blocks ``skip_slots``."""
    return n_slots / (1.0 + p_herald * skip_slots)


def _scan_window(p_herald, skip_slots, n_slots, lanes) -> int:
    """Window of the lane scan over ``lanes`` lanes (cycles of one run or
    of several), or 0 where the full-hash path is faster.

    The window is the power of two at or above the mean candidate spacing
    ``1/p_herald``, at most ``SCAN_WINDOW_MAX`` and ``skip_slots + 1``.
    Per cycle, in draw-0 hashes, the full path costs ``n_slots`` plus
    ``WALK_HERALD_COST`` per herald for its acceptance walk, and the scan
    ``windows * (w + SCAN_STEP_COST / group)``: each window hashes ``w``
    slots and shares one step's fixed numpy overhead with the other lanes
    of its group, at most ``LANE_SLOTS / w`` lanes. A cycle has about
    ``heralds + open / w`` windows, ``open`` being its expected open slots.
    The scan runs where it is cheaper.
    """
    if skip_slots <= 0 or not 0.0 < p_herald < 1.0:
        return 0
    w = min(1 << -math.floor(math.log2(p_herald)), SCAN_WINDOW_MAX,
            skip_slots + 1)
    group = min(lanes, LANE_SLOTS // w)
    if group <= 0:
        return 0
    open_slots = _open_slots(n_slots, p_herald, skip_slots)
    heralds = p_herald * open_slots
    scan = (heralds + open_slots / w) * (w + SCAN_STEP_COST / group)
    return w if scan < n_slots + WALK_HERALD_COST * heralds else 0


class _Workspace(NamedTuple):
    """Buffers of the full-hash path for batches of up to ``size`` slots.

    ``hashes`` takes a batch's draw-0 hash words and ``shift`` the shifted
    copies of their mixes, ``mask`` the candidate mask and ``count`` its
    prefix count in ``_accept``.

    A call makes one where candidates are dense, from one in eight slots:
    there a batch's temporaries are large enough that the allocator hands
    their memory back and faults it in again for the next batch. Sparser
    batches allocate per batch, which costs no faults, and a workspace
    kept across their batches would only fragment the heap.
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


def _join(parts):
    """The columns of ``parts``, tuples of arrays, each joined; a single
    part is returned as it is, without a copy."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(c) for c in zip(*parts))


def _full(keys, slots, key, skip_slots, work):
    """Accepted heralds of one lane per cycle key in ``keys`` from the
    draw 0 of every slot, a candidate where the hash is below ``key``.
    Yields them as one piece in ``_scan``'s form.

    With ``work``, a ``_Workspace``, the hash, the mask and the prefix
    count go into the fronts of its buffers, so a run of batches reuses
    the same memory; with None they are allocated for the batch, the next
    candidates are found by binary search, and the words stay unfinished:
    only those below the key's ``_band`` are finished, and those that then
    miss the key are dropped from the candidates (the binary search reads
    only the mask's size). The words and mask go before the yield."""
    hashes, shift, mask, count = work or (None,) * 4
    h = trial_uniforms_numpy(keys[:, None], slots, 0, out=hashes, tmp=shift,
                             finish=work is not None).reshape(-1)
    if mask is None:
        is_cand = h < _band(key)
    else:
        is_cand = np.less(h, key, out=mask[:h.size])
    flat = np.flatnonzero(is_cand)
    if work is None:
        h[flat] = h0 = _finish(h[flat])
        miss = h0 >= key
        if miss.any():
            flat = flat[~miss]
    if skip_slots > 0 and flat.size > 1:
        flat = flat[_accept(flat, is_cand, slots.size, skip_slots, count)]
    h0 = h[flat]
    del h, is_cand
    lane = flat // slots.size
    flat %= slots.size  # the heralds' slots
    yield lane, flat, h0


def _scan(keys, n_slots, key, skip_slots, w):
    """Accepted heralds of one lane per cycle key in ``keys``, by a lane
    scan.

    Each lane holds its cycle's next open slot. At each step every live
    lane draws the draw 0 of the ``w`` slots from there and takes the first
    candidate, a hash below ``key``, then goes on ``skip_slots + 1`` slots
    past it, or ``w`` slots on when the window holds none. With
    ``w <= skip_slots + 1`` a window never holds a second herald.

    The words stay unfinished: a lane takes its first word below the key's
    ``_band`` and finishes it, and where that misses the key it goes on one
    slot past it.

    Each step writes its words, in the step form of
    ``trial_uniforms_numpy``, into one buffer made for the lane group, and
    its candidate mask into the memory of the shift buffer, which the hash
    is done with by then. Both are freed before the last piece is yielded,
    so the tally draws its readouts without them.

    Yields the heralds as pieces ``(lane, slot, h0)``: the lane's index in
    ``keys``, the slot (int64) and the draw-0 hash, in no set order. A
    piece joins the steps since the last one once they found at least
    ``GROUP_HERALDS`` heralds, and when the last lane ends; holding each
    step's few heralds apart until a draw would fragment the heap.
    """
    offset_keys = np.arange(w, dtype=np.uint64) * _SLOT_KEY
    size = keys.size * w
    words = np.empty(size, dtype=np.uint64)
    # the shift buffer, and the mask's bytes in its memory
    shift = np.empty(max(min(size, MIX_SLOTS), -(-size // 8)),
                     dtype=np.uint64)
    masks = shift.view(bool)[:size].reshape(keys.size, w)
    band = _band(key)
    # a lane's move past a window without a word in the band, past a word
    # in the band that misses the key, and past a herald
    moves = np.array([w, 1, skip_slots + 1], dtype=np.uint64)
    rows = lane = np.arange(keys.size)
    start = np.zeros(keys.size, dtype=np.uint64)
    end = np.uint64(n_slots)
    found, held = [], 0
    while lane.size:
        h = trial_uniforms_numpy(keys, start, 0, out=words, tmp=shift,
                                 offset_keys=offset_keys, finish=False)
        # argmax is 0 for a window without a word in the band
        k = np.less(h, band, out=masks[:lane.size]).argmax(axis=1)
        h_k = h[rows[:lane.size], k]
        in_band = h_k < band
        got = _finish(h_k) < key
        slot = start + k.view(np.uint64)
        start = slot + moves.take(in_band.view(np.uint8) + got)
        # a window crossing the cycle end may find a candidate past it;
        # its lane ends either way
        got &= slot < end
        found.append((lane[got], slot[got].view(np.int64), h_k[got]))
        held += found[-1][0].size
        live = start < end
        if not live.all():
            keys, lane, start = keys[live], lane[live], start[live]
        # the tally may draw readouts on a piece: the step's arrays go
        # first, and after the last step its buffers too
        del h, k, h_k, in_band, got, slot, live
        if not lane.size:
            del words, shift, masks
        if held >= GROUP_HERALDS or not lane.size:
            yield _join(found)
            found, held = [], 0


class _Tally:
    """Per-run counts of accepted heralds.

    ``draw`` takes a set of heralds at once: it draws their readouts and
    adds them to the counts. ``add`` holds a piece instead and draws the
    held heralds once about ``GROUP_HERALDS`` are held. Bins, blocked
    slots and background readouts are sums, so the order in which the
    heralds come does not matter.
    """

    def __init__(self, n_runs, n_slots, skip_slots, key_d1, law):
        self.n_slots = n_slots
        self.skip_slots = skip_slots
        self.key_d1 = key_d1
        self.law = law
        self.bins = np.zeros(10 * n_runs, dtype=np.int64)
        self.blocked = np.zeros(n_runs, dtype=np.int64)
        self.background = np.zeros(n_runs, dtype=np.int64)
        self.parts = []
        self.held = 0

    def add(self, keys, runs, slot, h0):
        """Hold heralds, given as ``draw`` takes them; the tally owns the
        arrays from here on."""
        if h0.size >= GROUP_HERALDS:
            self.flush()  # alone, a large piece is drawn without a copy
        self.parts.append((keys, runs, slot, h0))
        self.held += h0.size
        if self.held >= GROUP_HERALDS:
            self.flush()

    def flush(self):
        """Draw the held heralds and drop them."""
        if not self.parts:
            return
        keys, runs, slot, h0 = _join(self.parts)
        self.parts, self.held = [], 0
        self.draw(keys, runs, slot, h0)

    def draw(self, keys, runs, slot, h0):
        """Count the heralds at ``slot`` (int64) of the cycles of key
        ``keys`` in runs ``runs`` (intp, overwritten), with draw-0 hashes
        ``h0``, and draw their readouts.

        Returns each herald's bin ``(2 * run + is_d2) * 5 + readout``
        (intp, readout 0/3/4 for none/D3/D4) and background flag, in the
        order given.
        """
        n_runs = self.blocked.size
        if self.skip_slots > 0:
            # a herald blocks skip_slots slots, or the rest of its cycle
            blocked = self.n_slots - 1 - slot
            np.minimum(blocked, self.skip_slots, out=blocked)
            self.blocked += np.bincount(runs, blocked,
                                        minlength=n_runs).astype(np.int64)
            del blocked
        sel = runs  # 2 * run + is_d1, in place
        sel *= 2
        sel += h0 < self.key_d1
        readout, background = _readouts(keys, slot, sel, self.law)
        self.background += np.bincount(sel[background] >> 1,
                                       minlength=n_runs)
        sel ^= 1
        sel *= 5
        sel += readout
        self.bins += np.bincount(sel, minlength=self.bins.size)
        return sel, background

    def counts(self, n_cycles):
        """One row ``(c13, c14, c23, c24, s1, s2, n_trials, n_background)``
        per run, over ``n_cycles`` cycles."""
        self.flush()
        b = self.bins.reshape(-1, 10)
        return np.column_stack((
            b[:, 3], b[:, 4], b[:, 8], b[:, 9], b[:, :5].sum(axis=1),
            b[:, 5:].sum(axis=1), n_cycles * self.n_slots - self.blocked,
            self.background))


def count_runs(master_seeds, cycle_lo, cycle_hi, n_slots, p_herald, laws,
               p_noise, skip_slots, rows=None):
    """Coincidence counts of several runs over one range of cycles.

    Run ``r`` draws from ``master_seeds[r]`` with the readout law
    ``laws[r]``, its ``(a13, a14, a23, a24)``; the runs share the slots per
    cycle, ``p_herald``, ``p_noise`` and ``skip_slots``. Returns an int64
    array with one row ``(c13, c14, c23, c24, s1, s2, n_trials,
    n_background)`` per run, the counts of that run alone.

    Per executed trial: draw 0 heralds when ``u0 < p_herald`` (D1 when
    ``u0 < p_herald/2``); a herald blocks the next ``skip_slots`` slots of
    its cycle. Draw 1 picks the correlated readout, D3 with probability
    ``a13``/``a23`` and D4 with ``a14``/``a24`` given D1/D2; when it misses,
    draw 2 gives a background click with probability ``p_noise``, split
    evenly between D3 and D4. Blocked slots consume no draws. Every
    decision ``u < p`` is taken on the hash word as ``h < T``, with
    ``T = _threshold(p)`` built once per call from the same probability;
    the two are equivalent (see ``_threshold``), so no uniform is formed.

    The lanes are the (run, cycle) pairs of all runs, run-major, sampled
    in one loop over lane groups: at most ``LANE_SLOTS / w`` lanes on the
    scan, a batch of ``CHUNK_SLOTS / n_slots`` on the full path, so runs
    too short to fill a group share one. Both paths yield pieces
    ``(lane, slot, h0)``, which go to one ``_Tally``, unsorted, and the
    working set is a step or a batch and ``GROUP_HERALDS`` heralds,
    whatever the number of cycles.

    ``rows``, given to a one-run call, is called with the ``records_kernel``
    arrays of each batch of whole cycles, together about ``CHUNK_SLOTS``
    slots, in order and before the next is expanded. The lane groups then
    hold about ``GROUP_HERALDS`` heralds but at least a batch's cycles, so
    the scan's step cost stays shared by many lanes. A group's heralds are
    joined and drawn at once, and each batch's go to ``records_kernel`` in
    the order their path found them.

    A one-run call goes through ``counts_kernel``, which the benchmark's
    tracer wraps by name, until the program counts its own work (ROADMAP
    item 3b).
    """
    seeds = [int(s) for s in master_seeds]
    if len(seeds) == 1:
        return np.array([counts_kernel(seeds[0], cycle_lo, cycle_hi, n_slots,
                                       p_herald, *laws[0], p_noise,
                                       skip_slots, rows)], dtype=np.int64)
    return _count_runs(seeds, cycle_lo, cycle_hi, n_slots, p_herald, laws,
                       p_noise, skip_slots, rows)


def _count_runs(master_seeds, cycle_lo, cycle_hi, n_slots, p_herald, laws,
                p_noise, skip_slots, rows=None):
    """``count_runs``, for any number of runs."""
    seeds = np.array(master_seeds, dtype=np.uint64)
    n_slots = int(n_slots)
    skip_slots = int(skip_slots)
    n_cycles = max(cycle_hi - cycle_lo, 0)
    lanes = seeds.size * n_cycles if n_slots > 0 else 0
    key = _threshold(p_herald)
    tally = _Tally(seeds.size, n_slots, skip_slots,
                   _threshold(p_herald * 0.5), _Law.of(laws, p_noise))
    step = max(1, CHUNK_SLOTS // max(n_slots, 1))  # cycles per batch
    group = lanes
    if rows is not None:  # a dump draws about GROUP_HERALDS heralds at once
        heralds = p_herald * _open_slots(n_slots, p_herald, skip_slots)
        if heralds * lanes > GROUP_HERALDS:  # else one group takes them all
            group = max(step, int(GROUP_HERALDS // heralds))
    w = _scan_window(p_herald, skip_slots, n_slots, min(lanes, group))
    if w:
        size = max(1, min(group, LANE_SLOTS // w))
    else:  # the full path's lane group is a batch
        size = step
        slots = np.arange(n_slots)
        work = None
        if 8 * p_herald >= 1:  # else draw 0 is decided on bands
            work = _Workspace.of(min(step, lanes) * n_slots)
    for g in range(0, lanes, size):
        runs, cycle = np.divmod(np.arange(g, min(g + size, lanes)), n_cycles)
        keys = cycle_keys(seeds[runs], cycle + cycle_lo)
        pieces = (_scan(keys, n_slots, key, skip_slots, w) if w
                  else _full(keys, slots, key, skip_slots, work))
        if rows is None:
            for lane, slot, h0 in pieces:
                tally.add(keys[lane], runs[lane], slot, h0)
            del lane, slot, h0  # freed before the next group is sampled
            continue
        # a dump draws a group's heralds at once and expands them a batch
        # of cycles at a time, in any order
        lane, slot, h0 = _join(list(pieces))
        bins, background = tally.draw(keys[lane], runs[lane], slot, h0)
        flat = lane * n_slots + slot
        batch = lane // step
        del lane, slot, h0
        for c0 in range(0, keys.size, step):
            i = np.flatnonzero(batch == c0 // step)
            rows(*records_kernel(flat[i] - c0 * n_slots, bins[i],
                                 background[i], cycle_lo + g + c0,
                                 min(step, keys.size - c0), n_slots,
                                 skip_slots))
        del flat, batch, bins, background  # freed before the next group
    return tally.counts(n_cycles)


def records_kernel(flat, bins, background, cycle_lo, n_cycles, n_slots,
                   skip_slots):
    """Per-trial event arrays of cycles ``[cycle_lo, cycle_lo + n_cycles)``.

    ``flat`` holds the index ``(cycle - cycle_lo) * n_slots + slot`` of
    each accepted herald of these cycles, in any order, ``bins`` and
    ``background`` its ``_Tally.draw`` bin and background flag. Returns
    arrays (cycle, slot, herald, readout, background) covering every
    executed trial in order, whatever the order of the heralds. ``herald``
    is 0/1/2 for none/D1/D2, ``readout`` 0/3/4 for none/D3/D4.
    """
    size = n_cycles * n_slots
    if skip_slots > 0 and flat.size:
        # the windows [flat + 1, stop) never overlap or touch, so a +1/-1
        # edge array summed up marks exactly the blocked slots, and the sum
        # is 0 or 1: int8 holds it
        stop = np.minimum(flat + (skip_slots + 1),
                          (flat // n_slots + 1) * n_slots)
        open_ = stop > flat + 1
        edges = np.zeros(size + 1, dtype=np.int8)
        edges[flat[open_] + 1] = 1
        edges[stop[open_]] = -1
        blocked = np.cumsum(edges[:size], dtype=np.int8)
        executed = np.flatnonzero(blocked == 0)
    else:
        executed = np.arange(size)
    at = np.searchsorted(executed, flat)
    her = np.zeros(executed.size, dtype=np.uint8)
    read = np.zeros(executed.size, dtype=np.uint8)
    bg = np.zeros(executed.size, dtype=bool)
    her[at] = bins // 5 + 1
    read[at] = bins % 5
    bg[at] = background
    return executed // n_slots + cycle_lo, executed % n_slots, her, read, bg


def counts_kernel(master_seed, cycle_lo, cycle_hi, n_slots, p_herald,
                  a13, a14, a23, a24, p_noise, skip_slots, rows=None):
    """``count_runs`` of one run, as the tuple ``(c13, c14, c23, c24, s1,
    s2, n_trials, n_background)``; ``rows`` is passed on. ``count_runs``
    takes its one-run calls through it."""
    (counts,) = _count_runs([int(master_seed)], cycle_lo, cycle_hi, n_slots,
                            p_herald, [(a13, a14, a23, a24)], p_noise,
                            skip_slots, rows)
    return tuple(int(v) for v in counts)
