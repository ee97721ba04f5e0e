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
1e-300 is reported as a collapse diagnostic, never a silent underflow.
Every function takes an array of distances (a scalar gives 0-d results)
and evaluates the whole chain for all of them in one pass. The rate
formula follows Sangouard et al., Rev. Mod. Phys. 83, 33 (2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import NotBracketedError
from .model import FIBER_LIGHT_SPEED

LINK_CONVENTIONS = ("L_over_n", "L_over_2_pow_n")
PR_EXPONENTS = ("literal_L_over_tau", "total_elapsed_time", "flight_time")

_LOG_FLOOR = -300.0 * math.log(10.0)  # collapse threshold for any factor

# Upper bound on nest_level. 2**16 links is far past any proposed chain
# (the published parameter set has level 4), and every level adds two
# columns per point: a 10,000-point JSON sweep peaks at 93 MB (tracemalloc)
# at level 16 and 311 MB at 64. Past level 1023, 2**nest_level links would
# not even convert to a float.
MAX_NEST_LEVEL = 16


@dataclass(frozen=True)
class RepeaterParams:
    """Node and link parameters of the nested multiplexed repeater."""

    nest_level: int = 4
    mode_count: int = 1000
    memory_lifetime: float = 16.0  # s
    eta_td: float = 0.90
    eta_fc: float = 0.33
    chi: float = 0.02
    attenuation_length: float = 22.0  # km
    r0: float = 0.77
    fiber_speed: float = FIBER_LIGHT_SPEED  # m/s
    link_convention: str = "L_over_n"
    pr_exponent: str = "total_elapsed_time"

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


def _libm(f, x) -> np.ndarray:
    """The C library's ``f`` (``math.exp``, say) applied to every element.

    numpy's SIMD exp, log, log1p and expm1 differ from the C library's in
    the last bit for a few percent of arguments (exp: 4.6% of uniform draws
    from [-700, 0], and the less accurate of the two in 99% of those),
    which would move full-precision outputs.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _log(x) -> np.ndarray:
    """Elementwise natural log with log 0 = -inf."""
    pos = x > 0.0
    return np.where(pos, _libm(math.log, np.where(pos, x, 1.0)), -math.inf)


def _link_time_s(p: RepeaterParams, total_km):
    """One-link communication time in s."""
    return total_km / p.n_links * 1e3 / p.fiber_speed


def elementary_probability(p: RepeaterParams, total_km):
    """Elementary-link quantities for total distribution distances (km).

    Returns ``(p0, p0_multi, p0_multi_approx, t0)``, each shaped like
    ``total_km``: the single-mode success probability, the exact multiplexed
    probability ``1 - (1 - p0)^N``, the linear shortcut ``min(1, N*p0)``
    carried for comparison, and the expected generation time in s. A link
    whose single-shot probability falls below the underflow floor is
    unreachable: its probabilities are 0 and its ``t0`` is inf.
    """
    d = np.asarray(total_km, dtype=float)
    if not np.all(d > 0.0):
        raise ValueError("distance must be positive")
    log_p0 = (2.0 * _log(p.chi) - d / p.n_links / p.attenuation_length
              + 2.0 * _log(p.eta_fc) + 2.0 * _log(p.eta_td)
              - math.log(2.0))
    reachable = log_p0 >= _LOG_FLOOR
    p0 = np.where(reachable, _libm(math.exp, log_p0), 0.0)
    p0_multi = -_libm(math.expm1, p.mode_count * _libm(math.log1p, -p0))
    with np.errstate(divide="ignore"):
        t0 = np.where(reachable, _link_time_s(p, d) / p0_multi, math.inf)
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
    p_levels = np.zeros((n,) + t0.shape)
    t_levels = np.full((n + 1,) + t0.shape, math.inf)
    t_levels[0] = t0
    collapsed_at = np.zeros(t0.shape, dtype=int)
    base = 2.0 * _log(p.r0) + 2.0 * _log(p.eta_td) - math.log(2.0)
    for j in range(1, n + 1):
        log_pj = base - 2.0 * t_levels[j - 1] / p.memory_lifetime
        alive = log_pj >= _LOG_FLOOR  # false after a collapse: t is inf
        collapsed_at = np.where((collapsed_at == 0) & ~alive, j, collapsed_at)
        p_levels[j - 1] = np.where(alive, _libm(math.exp, log_pj), 0.0)
        # a dead level divides by 0, a live one may pass the largest float
        with np.errstate(divide="ignore", over="ignore"):
            t_levels[j] = np.where(alive, t_levels[j - 1] / p_levels[j - 1],
                                   math.inf)
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
    p0_multi_approx: np.ndarray
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
    of its decay exponent. A scalar distance gives 0-d columns.
    """
    d = np.asarray(total_km, dtype=float)
    p0, p0_multi, p0_multi_approx, t0 = elementary_probability(p, d)
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
        decay = -(d * 1e3 / p.fiber_speed) / p.memory_lifetime
    log_ppr = 2.0 * (_log(p.r0) + decay) - math.log(2.0)
    p_pr = np.where(completed & (log_ppr >= _LOG_FLOOR),
                    _libm(math.exp, log_ppr), 0.0)
    log_rate = (_log(p0_multi) + sum(_log(p_levels)) + _log(p_pr)
                - _libm(math.log, _link_time_s(p, d)))
    rate = np.where(completed & (log_rate > _LOG_FLOOR),
                    _libm(math.exp, log_rate), 0.0)
    status = np.where(~reachable, "unreachable",
                      np.where(rate > 0.0, "ok", "collapsed"))
    return RateCurve(params=p, distance_km=d, rate_per_s=rate, p0=p0,
                     p0_multi=p0_multi, p0_multi_approx=p0_multi_approx,
                     p_levels=p_levels, t_levels=t_levels, p_pr=p_pr,
                     status=status, collapsed_at=collapsed_at)


def sweep_distance(p: RepeaterParams, l_min_km: float, l_max_km: float,
                   points: int, grid: str = "log") -> RateCurve:
    """Evaluate the rate on a distance grid (log-spaced by default)."""
    if not (0.0 < l_min_km < l_max_km):
        raise ValueError("need 0 < l_min < l_max")
    if points < 2:
        raise ValueError("need at least two grid points")
    if grid == "log":
        ls = np.geomspace(l_min_km, l_max_km, points)
    elif grid == "linear":
        ls = np.linspace(l_min_km, l_max_km, points)
    else:
        raise ValueError("grid must be 'log' or 'linear'")
    return repeater_rate(p, ls)


def crossing_distance(distances_km, rates, target_rate: float) -> float:
    """Distance at which a swept rate crosses ``target_rate``.

    Log-linear interpolation (log rate against distance) between the first
    bracketing grid pair; an exact grid hit at or before that pair returns
    that grid distance. Raises NotBracketedError when the curve never spans
    the target.
    """
    if target_rate <= 0.0:
        raise ValueError("target rate must be positive")
    ls = np.asarray(distances_km, dtype=float)
    rs = np.asarray(rates, dtype=float)
    lo, hi = rs[:-1], rs[1:]
    hits = np.flatnonzero(rs == target_rate)
    spans = (lo - target_rate) * (hi - target_rate) < 0.0
    brackets = np.flatnonzero((lo > 0.0) & (hi > 0.0) & spans)
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


def _crossing_or_none(p: RepeaterParams, target: float, l_min: float,
                      l_max: float, points: int) -> Optional[float]:
    curve = sweep_distance(p, l_min, l_max, points)
    try:
        return crossing_distance(curve.distance_km, curve.rate_per_s, target)
    except NotBracketedError:
        return None


def _fit_chi_for_crossing(p: RepeaterParams, target_rate: float,
                          target_km: float, l_min: float, l_max: float,
                          points: int) -> Optional[float]:
    """Bisect the excitation probability so the crossing lands on target_km.

    The rate is monotone increasing in chi, so the crossing distance is too;
    plain bisection suffices. Returns None when no chi in (1e-4, 0.99)
    brackets the target.
    """
    def crossing(chi: float) -> Optional[float]:
        return _crossing_or_none(replace(p, chi=chi), target_rate, l_min,
                                 l_max, points)

    lo, hi = 1e-4, 0.99
    c_lo, c_hi = crossing(lo), crossing(hi)
    if c_hi is None or c_hi < target_km:
        return None
    if c_lo is not None and c_lo > target_km:
        return None
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        c_mid = crossing(mid)
        if c_mid is None or c_mid < target_km:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-10:
            break
    return math.sqrt(lo * hi)


def calibration_report(base: RepeaterParams = RepeaterParams(),
                       target_rate: float = 1e-4,
                       anchor_cpe_km: float = 1000.0,
                       anchor_cie_km: float = 430.0,
                       tolerance: float = 0.15,
                       chi_values: Sequence[float] = (0.01, 0.02),
                       l_min_km: float = 1.0, l_max_km: float = 50000.0,
                       points: int = 400) -> list:
    """Crossing distances for every interpretation/chi combination.

    For each link convention and exponent interpretation, evaluates the
    fixed chi values plus a fitted chi chosen so the high-efficiency
    crossing lands on its anchor; an entry is flagged when both crossings
    fall within the fractional tolerance of their anchors.
    """
    entries = []
    for convention in LINK_CONVENTIONS:
        for exponent in PR_EXPONENTS:
            variant = replace(base, link_convention=convention,
                              pr_exponent=exponent)
            modes = [("fixed", chi) for chi in chi_values]
            fitted = _fit_chi_for_crossing(replace(variant, r0=CPE_R0),
                                           target_rate, anchor_cpe_km,
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
                cpe = _crossing_or_none(replace(pv, r0=CPE_R0), target_rate,
                                        l_min_km, l_max_km, points)
                cie = _crossing_or_none(replace(pv, r0=CIE_R0), target_rate,
                                        l_min_km, l_max_km, points)
                ok = (cpe is not None and cie is not None
                      and abs(cpe - anchor_cpe_km) <= tolerance * anchor_cpe_km
                      and abs(cie - anchor_cie_km) <= tolerance * anchor_cie_km)
                entries.append(ReportEntry(
                    link_convention=convention, pr_exponent=exponent,
                    chi_mode=mode, chi=chi, crossing_cpe_km=cpe,
                    crossing_cie_km=cie, matches_anchors=ok))
    return entries
