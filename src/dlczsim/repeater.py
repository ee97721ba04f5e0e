"""Multiplexed nested-repeater rate model with explicit interpretation flags.

Implements the elementary-link success probability, the entanglement-swap
recursion across nest levels, and the pair-distribution probability, then
composes them into a rate. Two printed-formula ambiguities are surfaced as
configuration flags rather than silently resolved:

* ``link_convention``: whether the elementary-link length is the total
  distance over the nest level (as printed) or over ``2**nest_level``
  (the usual link count of a nested chain).
* ``pr_exponent``: the decay argument of the final distribution
  probability. ``literal_L_over_tau`` applies the printed distance-over-
  lifetime exponent unchanged (dimensionally inconsistent, retained for
  transparency and marked non-physical); ``total_elapsed_time`` uses the
  accumulated chain time; ``flight_time`` uses the fiber transit time.

All probability chains are evaluated in log space; a factor falling below
1e-300 is reported as a collapse diagnostic, never a silent underflow, and
a rate past the largest float is an error. Every function takes an array
of distances (a scalar gives 0-d results) and evaluates the whole chain
for all of them in one pass with numpy's ufuncs, whose exp, log, expm1 and
log1p may differ from the C library's in the last bit; the swap levels
are written into preallocated rows. The rate formula follows Sangouard et
al., Rev. Mod. Phys. 83, 33 (2011).

The anchor report fits chi by a bisection over whole sweeps. Its result
is that of the plain bisection, but only the midpoints whose verdict the
earlier sweeps leave open are swept, after a regula falsi search has
placed sweeps near the root: 56 sweeps per default report, not 114.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._keys import defaults
from .errors import NotBracketedError

LINK_CONVENTIONS = ("L_over_n", "L_over_2_pow_n")
PR_EXPONENTS = ("literal_L_over_tau", "total_elapsed_time", "flight_time")

_LOG_FLOOR = -300.0 * math.log(10.0)  # collapse threshold for any factor
_LOG_MAX = math.log(sys.float_info.max)  # a larger log rate overflows

# Upper bound on nest_level. 2**16 links is far past any proposed chain
# (the published parameter set has level 4), and every level adds two
# columns per point: a 10,000-point JSON sweep peaks at 93 MB (tracemalloc)
# at level 16 and 311 MB at 64. Past level 1023, 2**nest_level links would
# not even convert to a float.
MAX_NEST_LEVEL = 16


@dataclass(frozen=True)
class RepeaterParams:
    """Node and link parameters of the nested multiplexed repeater."""

    nest_level: int = defaults("repeater")["nest_level"]
    mode_count: int = defaults("repeater")["mode_count"]
    memory_lifetime: float = defaults("repeater")["memory_lifetime"]
    eta_td: float = defaults("repeater")["eta_td"]
    eta_fc: float = defaults("repeater")["eta_fc"]
    chi: float = defaults("repeater")["chi"]
    attenuation_length: float = defaults("repeater")["attenuation_length"]
    r0: float = defaults("repeater")["r0"]
    fiber_speed: float = defaults("repeater")["fiber_speed"]
    link_convention: str = defaults("repeater")["link_convention"]
    pr_exponent: str = defaults("repeater")["pr_exponent"]

    def __post_init__(self) -> None:
        if not 1 <= self.nest_level <= MAX_NEST_LEVEL:
            raise ValueError(f"nest_level must lie in [1, {MAX_NEST_LEVEL}], "
                             f"got {self.nest_level}")
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        for name in ("eta_td", "eta_fc", "chi", "r0"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("memory_lifetime", "attenuation_length", "fiber_speed"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if self.link_convention not in LINK_CONVENTIONS:
            raise ValueError(f"link_convention must be one of {LINK_CONVENTIONS}")
        if self.pr_exponent not in PR_EXPONENTS:
            raise ValueError(f"pr_exponent must be one of {PR_EXPONENTS}")

    @property
    def n_links(self) -> int:
        if self.link_convention == "L_over_n":
            return self.nest_level
        return 2 ** self.nest_level


def _log(x: float) -> float:
    """Natural log of a parameter with log 0 = -inf, by numpy's log, as the
    distance columns are."""
    return float(np.log(x)) if x > 0.0 else -math.inf


def _flight_time_s(p: RepeaterParams, km):
    """Fiber transit time in s over ``km`` kilometers; inf past 1.8e305 km,
    where the length in m passes the largest float."""
    with np.errstate(over="ignore"):
        return km * 1e3 / p.fiber_speed


def _link_time_s(p: RepeaterParams, total_km):
    """One-link communication time in s."""
    return _flight_time_s(p, total_km / p.n_links)


def elementary_probability(p: RepeaterParams, total_km):
    """Elementary-link quantities for total distribution distances (km).

    Returns ``(p0, p0_multi, p0_multi_approx, t0)``, each shaped like
    ``total_km``: the single-mode success probability, the exact multiplexed
    probability ``1 - (1 - p0)^N``, the linear shortcut ``min(1, N*p0)``
    carried for comparison, and the expected generation time in s. A link
    whose single-shot probability falls below the underflow floor is
    unreachable: its probabilities are 0 and its ``t0`` is inf. Raises
    ValueError naming the first distance whose one-link time underflows
    to 0 s.
    """
    d = np.asarray(total_km, dtype=float)
    if not np.all(d > 0.0):
        raise ValueError("distance must be positive")
    link_s = _link_time_s(p, d)
    under = np.flatnonzero(link_s == 0.0)
    if under.size:
        raise ValueError(f"distance {float(d.flat[under[0]])!r} km: "
                         f"one-link time underflows to 0 s")
    log_p0 = (2.0 * _log(p.chi) - d / p.n_links / p.attenuation_length
              + 2.0 * _log(p.eta_fc) + 2.0 * _log(p.eta_td)
              - math.log(2.0))
    reachable = log_p0 >= _LOG_FLOOR
    p0 = np.where(reachable, np.exp(log_p0), 0.0)
    p0_multi = -np.expm1(p.mode_count * np.log1p(-p0))
    with np.errstate(divide="ignore"):
        t0 = np.where(reachable, link_s / p0_multi, math.inf)
    return p0, p0_multi, np.minimum(1.0, p.mode_count * p0), t0


def swap_chain(p: RepeaterParams, t0):
    """Evaluate the swap recursion ``t_j = t_{j-1} / p_j`` level by level.

    Each level's success probability applies the memory decay accumulated
    while waiting for the previous level. Returns ``(p_levels, t_levels,
    collapsed_at)``: ``p_levels[j - 1]`` is P_j and ``t_levels[j]`` is t_j
    (``t_levels[0]`` is ``t0``), stacked along a leading axis over the shape
    of ``t0``. A level whose probability underflows ends its chain:
    ``collapsed_at`` holds that level (0 where the chain completes), and
    from it on the probabilities are 0 and the times inf.
    """
    t0 = np.asarray(t0, dtype=float)
    if not np.all(t0 > 0.0):
        raise ValueError("t0 must be positive")
    n = p.nest_level
    p_levels = np.empty((n,) + t0.shape)
    t_levels = np.empty((n + 1,) + t0.shape)
    t_levels[0] = t0
    log_pj = np.empty(t0.shape)
    base = 2.0 * _log(p.r0) + 2.0 * _log(p.eta_td) - math.log(2.0)
    # rows as views: p_levels[j - 1] of a 0-d t0 would be a scalar copy
    for j in range(1, n + 1):
        t_prev, p_j = t_levels[j - 1, ...], p_levels[j - 1, ...]
        np.multiply(2.0, t_prev, out=log_pj)
        np.divide(log_pj, p.memory_lifetime, out=log_pj)
        np.subtract(base, log_pj, out=log_pj)
        np.exp(log_pj, out=p_j)
        # below the floor the level is dead (so is every level after a
        # collapse: its t is inf); t_prev / 0 is then inf, as t_prev > 0,
        # and a live level may pass the largest float
        np.copyto(p_j, 0.0, where=log_pj < _LOG_FLOOR)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(t_prev, p_j, out=t_levels[j, ...])
    dead = p_levels == 0.0
    collapsed_at = np.where(dead.any(axis=0), dead.argmax(axis=0) + 1, 0)
    return p_levels, t_levels, collapsed_at


STATUSES = ("ok", "unreachable", "collapsed")


@dataclass(frozen=True)
class RateCurve:
    """Rate and diagnostics of the repeater over an array of distances.

    Every field is a column shaped like the distances, except ``p_levels``
    (P1..Pn) and ``t_levels`` (t0..tn), which stack the nest levels along a
    leading axis. ``status`` is one of ``STATUSES``: ``unreachable`` when
    the elementary link underflows, ``collapsed`` when a swap level or the
    final rate does. ``collapsed_at`` is the swap level that underflowed,
    0 where none did. ``p_pr`` is 0 unless the swap chain completed.
    """

    params: RepeaterParams
    distance_km: np.ndarray
    rate_per_s: np.ndarray
    p0: np.ndarray
    p0_multi: np.ndarray
    p_levels: np.ndarray
    t_levels: np.ndarray
    p_pr: np.ndarray
    status: np.ndarray
    collapsed_at: np.ndarray

    @property
    def points(self) -> np.ndarray:
        # perfbench/tracing.py counts a sweep's points as len(curve.points)
        return self.distance_km

    @property
    def pr_nonphysical_units(self) -> bool:
        return self.params.pr_exponent == "literal_L_over_tau"


def repeater_rate(p: RepeaterParams, total_km) -> RateCurve:
    """Entangled-pair distribution rate over ``total_km`` kilometers.

    The final distribution probability uses the configured interpretation
    of its decay exponent. A scalar distance gives 0-d columns. Raises
    ValueError naming the first distance whose rate passes the largest
    float.
    """
    d = np.asarray(total_km, dtype=float)
    p0, p0_multi, _, t0 = elementary_probability(p, d)
    reachable = p0 > 0.0
    p_levels, t_levels, collapsed_at = swap_chain(p, t0)
    collapsed_at = np.where(reachable, collapsed_at, 0)
    completed = reachable & (collapsed_at == 0)
    if p.pr_exponent == "literal_L_over_tau":
        # Printed form: distance (km) over lifetime (s), applied verbatim.
        decay = -d / p.memory_lifetime
    elif p.pr_exponent == "total_elapsed_time":
        decay = -t_levels[-1] / p.memory_lifetime
    else:  # flight_time
        decay = -_flight_time_s(p, d) / p.memory_lifetime
    log_ppr = 2.0 * (_log(p.r0) + decay) - math.log(2.0)
    p_pr = np.where(completed & (log_ppr >= _LOG_FLOOR), np.exp(log_ppr),
                    0.0)
    # every probability is >= 0, so log 0 = -inf is the only edge case
    with np.errstate(divide="ignore"):
        log_rate = (np.log(p0_multi) + sum(np.log(p_levels)) + np.log(p_pr)
                    - np.log(_link_time_s(p, d)))
    over = np.flatnonzero(completed & (log_rate > _LOG_MAX))
    if over.size:
        raise ValueError(f"distance {float(d.flat[over[0]])!r} km: rate "
                         f"passes the largest float")
    rate = np.where(completed & (log_rate > _LOG_FLOOR), np.exp(log_rate),
                    0.0)
    status = np.where(~reachable, "unreachable",
                      np.where(rate > 0.0, "ok", "collapsed"))
    return RateCurve(params=p, distance_km=d, rate_per_s=rate, p0=p0,
                     p0_multi=p0_multi, p_levels=p_levels, t_levels=t_levels,
                     p_pr=p_pr, status=status, collapsed_at=collapsed_at)


@functools.lru_cache(maxsize=4)
def _distance_grid(l_min_km: float, l_max_km: float, points: int,
                   grid: str) -> np.ndarray:
    """A sweep's distance grid, read-only, so that every sweep over the same
    bounds shares one array (the anchor report's 56 sweeps, say); the last
    four grids are kept."""
    space = np.geomspace if grid == "log" else np.linspace
    ls = space(l_min_km, l_max_km, points)
    ls.flags.writeable = False
    return ls


def sweep_distance(p: RepeaterParams, l_min_km: float, l_max_km: float,
                   points: int, grid: str = "log") -> RateCurve:
    """Evaluate the rate on a distance grid (log-spaced by default).

    The grid is read-only and shared with other sweeps over the same bounds.
    """
    if not (0.0 < l_min_km < l_max_km < math.inf):
        raise ValueError("need 0 < l_min < l_max, both finite")
    if points < 2:
        raise ValueError("need at least two grid points")
    if grid not in ("log", "linear"):
        raise ValueError("grid must be 'log' or 'linear'")
    return repeater_rate(p, _distance_grid(float(l_min_km), float(l_max_km),
                                           operator.index(points), grid))


def crossing_distance(distances_km, rates, target_rate: float) -> float:
    """Distance at which a swept rate crosses ``target_rate``.

    Log-linear interpolation (log rate against distance) between the first
    bracketing grid pair; an exact grid hit at or before that pair returns
    that grid distance. A rate under the collapse floor, 0 at a collapsed
    or unreachable point, reads as the floor (about 1e-300), so a drop
    into a collapse is a crossing and a target under the floor is never
    crossed. Raises NotBracketedError when the curve never spans the
    target.
    """
    if not (0.0 < target_rate < math.inf):
        raise ValueError("target rate must be positive and finite")
    ls = np.asarray(distances_km, dtype=float)
    rs = np.maximum(np.asarray(rates, dtype=float), math.exp(_LOG_FLOOR))
    lo, hi = rs[:-1], rs[1:]
    hits = np.flatnonzero(rs == target_rate)
    brackets = np.flatnonzero((lo - target_rate) * (hi - target_rate) < 0.0)
    if hits.size and not (brackets.size and brackets[0] < hits[0]):
        return float(ls[hits[0]])
    if brackets.size:
        i = brackets[0]
        f = ((math.log(target_rate) - math.log(rs[i]))
             / (math.log(rs[i + 1]) - math.log(rs[i])))
        return float(ls[i] + f * (ls[i + 1] - ls[i]))
    raise NotBracketedError(
        f"target rate {target_rate!r} is not bracketed by the sweep")


# -- Anchor-reproduction report -------------------------------------------
#
# The published rate-vs-distance comparison fixes every node parameter
# except the excitation probability and leaves both printed-formula
# ambiguities open. Rather than asserting the quoted crossing distances,
# the report enumerates every (convention, exponent, chi) combination and
# flags the ones that land near both anchors.

CPE_R0 = 0.77
CIE_R0 = 0.58
# the published crossings of the high- (CPE) and low-efficiency (CIE)
# memory, and the fraction of them within which an entry matches
ANCHOR_CPE_KM = 1000.0
ANCHOR_CIE_KM = 430.0
ANCHOR_TOLERANCE = 0.15
# the excitation probabilities the report evaluates beside its fitted one
FIXED_CHI = (0.01, 0.02)


@dataclass(frozen=True)
class ReportEntry:
    link_convention: str
    pr_exponent: str
    chi_mode: str           # "fixed" | "fitted"
    chi: Optional[float]
    crossing_cpe_km: Optional[float]
    crossing_cie_km: Optional[float]
    matches_anchors: bool
    note: str = ""


def _swept_crossing(p: RepeaterParams, target: float, l_min: float,
                    l_max: float, points: int) -> Optional[float]:
    """The crossing of one sweep, None where it does not span ``target``."""
    curve = sweep_distance(p, l_min, l_max, points)
    try:
        return crossing_distance(curve.distance_km, curve.rate_per_s, target)
    except NotBracketedError:
        return None


def _fit_chi_for_crossing(p: RepeaterParams, target_rate: float,
                          target_km: float, l_min: float, l_max: float,
                          points: int) -> Optional[float]:
    """Bisect the excitation probability so the crossing lands on target_km.

    The result is that of a plain bisection in log chi over (1e-4, 0.99):
    a chi whose crossing is None or short of target_km is "below", the
    midpoint ``sqrt(lo*hi)`` replaces the end of its kind until
    ``hi/lo < 1 + 1e-10``, and ``sqrt(lo*hi)`` is returned. Returns None
    when no chi in (1e-4, 0.99) brackets the target.

    The bisection is replayed, and only the midpoints whose verdict the
    sweeps so far leave open are swept. At every distance p0 rises with
    chi, and so do each P_j (the chain waits less) and p_pr, so the rate
    rises too, and with it the rate read at the collapse floor; it falls
    with distance. So the first grid point below the target rate, and the
    interpolated crossing, rise with chi. Once 0.99 is not below, every
    sweep crosses or lies below the target rate throughout, and the
    verdict is monotone: every chi at or under a swept "below" is below,
    and every chi at or above a swept "not below" is not.

    A regula falsi search (Illinois) in log chi first narrows the bracket
    (a, b) of swept verdicts, so that the replay sweeps only the midpoints
    inside it.
    """
    def probe(chi: float) -> tuple:
        """``(below, crossing - target_km or None)`` at chi."""
        c = _swept_crossing(replace(p, chi=chi), target_rate, l_min, l_max,
                            points)
        return c is None or c < target_km, None if c is None else c - target_km

    lo, hi = 1e-4, 0.99
    hi_below, f_b = probe(hi)
    if hi_below:
        return None
    _, f_a = probe(lo)
    if f_a is not None and f_a > 0.0:
        return None
    # regula falsi on crossing - target_km against log chi; a step
    # bisects while a's crossing is None or the secant leaves (a, b)
    a, b = lo, hi
    side = None
    for _ in range(60):
        if b / a < 1.0 + 1e-10:
            break
        chi = math.sqrt(a * b)
        if f_a is not None:
            x_a, x_b = math.log(a), math.log(b)
            step = math.exp(x_b - f_b * (x_b - x_a) / (f_b - f_a))
            if a < step < b:
                chi = step
        is_below, f = probe(chi)
        if is_below:
            a, f_a = chi, f
            if side == "a":
                f_b /= 2.0
            side = "a"
        else:
            b, f_b = chi, f
            if side == "b" and f_a is not None:
                f_a /= 2.0
            side = "b"
    # the bisection, replayed; (a, b) stays as it is, since a midpoint
    # swept here becomes lo or hi, which bound every later midpoint
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if mid <= a or (mid < b and probe(mid)[0]):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-10:
            break
    return math.sqrt(lo * hi)


def calibration_report(base: RepeaterParams = RepeaterParams(),
                       target_rate: float = 1e-4,
                       l_min_km: float = 1.0, l_max_km: float = 50000.0,
                       points: int = 400) -> list:
    """Crossing distances for every interpretation/chi combination.

    For each link convention and exponent interpretation, evaluates the
    chi values of ``FIXED_CHI`` plus a fitted chi chosen so the
    high-efficiency crossing lands on its anchor; an entry is flagged when
    both crossings fall within ``ANCHOR_TOLERANCE`` of their anchors
    (``ANCHOR_CPE_KM``, ``ANCHOR_CIE_KM``).
    """
    entries = []
    for convention in LINK_CONVENTIONS:
        for exponent in PR_EXPONENTS:
            variant = replace(base, link_convention=convention,
                              pr_exponent=exponent)
            modes = [("fixed", chi) for chi in FIXED_CHI]
            fitted = _fit_chi_for_crossing(replace(variant, r0=CPE_R0),
                                           target_rate, ANCHOR_CPE_KM,
                                           l_min_km, l_max_km, points)
            modes.append(("fitted", fitted))
            for mode, chi in modes:
                if chi is None:
                    entries.append(ReportEntry(
                        link_convention=convention, pr_exponent=exponent,
                        chi_mode=mode, chi=None, crossing_cpe_km=None,
                        crossing_cie_km=None, matches_anchors=False,
                        note="no chi reproduces the high-efficiency anchor"))
                    continue
                pv = replace(variant, chi=chi)
                cpe = _swept_crossing(replace(pv, r0=CPE_R0), target_rate,
                                      l_min_km, l_max_km, points)
                cie = _swept_crossing(replace(pv, r0=CIE_R0), target_rate,
                                      l_min_km, l_max_km, points)
                ok = all(c is not None
                         and abs(c - anchor) <= ANCHOR_TOLERANCE * anchor
                         for c, anchor in ((cpe, ANCHOR_CPE_KM),
                                           (cie, ANCHOR_CIE_KM)))
                entries.append(ReportEntry(
                    link_convention=convention, pr_exponent=exponent,
                    chi_mode=mode, chi=chi, crossing_cpe_km=cpe,
                    crossing_cie_km=cie, matches_anchors=ok))
    return entries
