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
        if self.nest_level < 1:
            raise ValueError("nest_level must be >= 1")
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


@dataclass(frozen=True)
class ElementaryLink:
    """Success probabilities and timing of one elementary link."""

    l0_km: float
    p0: float
    p0_multi: float          # exact 1 - (1 - p0)^N
    p0_multi_approx: float   # the N*p0 shortcut, exposed for comparison
    t_cc: float              # one-link communication time, s
    t0: float                # expected elementary generation time, s
    reachable: bool


def link_length_km(p: RepeaterParams, total_km: float) -> float:
    return total_km / p.n_links


def elementary_probability(p: RepeaterParams, total_km: float) -> ElementaryLink:
    """Elementary-link quantities for a total distribution distance (km).

    The multiplexed success probability uses the exact binomial form; the
    linear shortcut is carried alongside. A link whose single-shot
    probability falls below the underflow floor is flagged unreachable
    instead of dividing by zero.
    """
    if total_km <= 0.0:
        raise ValueError("distance must be positive")
    l0 = link_length_km(p, total_km)
    t_cc = l0 * 1e3 / p.fiber_speed
    log_p0 = (2.0 * _safe_log(p.chi) - l0 / p.attenuation_length
              + 2.0 * _safe_log(p.eta_fc) + 2.0 * _safe_log(p.eta_td)
              - math.log(2.0))
    if log_p0 < _LOG_FLOOR:
        return ElementaryLink(l0_km=l0, p0=0.0, p0_multi=0.0,
                              p0_multi_approx=0.0, t_cc=t_cc, t0=math.inf,
                              reachable=False)
    p0 = math.exp(log_p0)
    p0_multi = -math.expm1(p.mode_count * math.log1p(-p0)) if p0 < 1.0 else 1.0
    return ElementaryLink(l0_km=l0, p0=p0, p0_multi=p0_multi,
                          p0_multi_approx=min(1.0, p.mode_count * p0),
                          t_cc=t_cc, t0=t_cc / p0_multi, reachable=True)


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class SwapLevel:
    level: int
    p_j: float
    t_j: float


@dataclass(frozen=True)
class SwapChainResult:
    """Swap probabilities and elapsed times across the nest levels."""

    levels: tuple
    collapsed_at: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.collapsed_at is None

    @property
    def log_product(self) -> float:
        return sum(_safe_log(lv.p_j) for lv in self.levels)

    @property
    def total_time(self) -> float:
        return self.levels[-1].t_j if self.levels else math.inf


def swap_chain(p: RepeaterParams, t0: float) -> SwapChainResult:
    """Evaluate the swap recursion ``t_j = t_{j-1} / p_j`` level by level.

    Each level's success probability applies the memory decay accumulated
    while waiting for the previous level. A level whose probability
    underflows terminates the chain with a collapse diagnostic.
    """
    if not (t0 > 0.0):
        raise ValueError("t0 must be positive")
    levels = []
    t_prev = t0
    base = 2.0 * _safe_log(p.r0) + 2.0 * _safe_log(p.eta_td) - math.log(2.0)
    for j in range(1, p.nest_level + 1):
        log_pj = base - 2.0 * t_prev / p.memory_lifetime
        if not math.isfinite(log_pj) or log_pj < _LOG_FLOOR:
            return SwapChainResult(levels=tuple(levels), collapsed_at=j)
        p_j = math.exp(log_pj)
        t_prev = t_prev / p_j
        levels.append(SwapLevel(level=j, p_j=p_j, t_j=t_prev))
    return SwapChainResult(levels=tuple(levels))


@dataclass(frozen=True)
class RatePoint:
    """Rate and full diagnostics at one distribution distance."""

    distance_km: float
    rate_per_s: float
    link: ElementaryLink
    chain: SwapChainResult
    p_pr: float
    status: str  # "ok" | "unreachable" | "collapsed"
    pr_exponent: str
    link_convention: str
    pr_nonphysical_units: bool

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _pair_probability(p: RepeaterParams, total_km: float,
                      chain_time: float) -> float:
    """Final distribution probability under the configured interpretation."""
    if p.pr_exponent == "literal_L_over_tau":
        # Printed form: distance (km) over lifetime (s), applied verbatim.
        decay = -total_km / p.memory_lifetime
    elif p.pr_exponent == "total_elapsed_time":
        decay = -chain_time / p.memory_lifetime
    else:  # flight_time
        decay = -(total_km * 1e3 / p.fiber_speed) / p.memory_lifetime
    log_ppr = 2.0 * (_safe_log(p.r0) + decay) - math.log(2.0)
    if not math.isfinite(log_ppr) or log_ppr < _LOG_FLOOR:
        return 0.0
    return math.exp(log_ppr)


def repeater_rate(p: RepeaterParams, total_km: float) -> RatePoint:
    """Entangled-pair distribution rate over ``total_km`` kilometers."""
    link = elementary_probability(p, total_km)
    flags = dict(pr_exponent=p.pr_exponent, link_convention=p.link_convention,
                 pr_nonphysical_units=p.pr_exponent == "literal_L_over_tau")
    if not link.reachable:
        return RatePoint(distance_km=total_km, rate_per_s=0.0, link=link,
                         chain=SwapChainResult(levels=(), collapsed_at=0),
                         p_pr=0.0, status="unreachable", **flags)
    chain = swap_chain(p, link.t0)
    if not chain.ok:
        return RatePoint(distance_km=total_km, rate_per_s=0.0, link=link,
                         chain=chain, p_pr=0.0, status="collapsed", **flags)
    p_pr = _pair_probability(p, total_km, chain.total_time)
    log_rate = (math.log(link.p0_multi) + chain.log_product + _safe_log(p_pr)
                - math.log(link.t_cc))
    rate = math.exp(log_rate) if log_rate > _LOG_FLOOR else 0.0
    status = "ok" if rate > 0.0 else "collapsed"
    return RatePoint(distance_km=total_km, rate_per_s=rate, link=link,
                     chain=chain, p_pr=p_pr, status=status, **flags)


@dataclass(frozen=True)
class RateCurve:
    """Rate-vs-distance sweep with per-point diagnostics."""

    points: tuple
    params: RepeaterParams
    grid: str  # "log" | "linear"

    @property
    def distances_km(self) -> np.ndarray:
        return np.array([pt.distance_km for pt in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([pt.rate_per_s for pt in self.points])


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
    return RateCurve(points=tuple(repeater_rate(p, float(l)) for l in ls),
                     params=p, grid=grid)


def crossing_distance(curve: RateCurve, target_rate: float) -> float:
    """Distance at which the swept rate crosses ``target_rate``.

    Log-linear interpolation (log rate against distance) between the first
    bracketing grid pair; an exact grid hit returns that grid distance.
    Raises NotBracketedError when the curve never spans the target.
    """
    if target_rate <= 0.0:
        raise ValueError("target rate must be positive")
    ls = curve.distances_km
    rs = curve.rates
    for i in range(len(ls)):
        if rs[i] == target_rate:
            return float(ls[i])
        if i + 1 == len(ls):
            break
        lo, hi = rs[i], rs[i + 1]
        if lo > 0.0 and hi > 0.0 and (lo - target_rate) * (hi - target_rate) < 0.0:
            f = (math.log(target_rate) - math.log(lo)) / (math.log(hi) - math.log(lo))
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
    try:
        return crossing_distance(sweep_distance(p, l_min, l_max, points), target)
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
