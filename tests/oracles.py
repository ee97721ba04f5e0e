"""Independent reference implementations used to freeze expected values.

These stay deliberately separate from the package code paths: the density
matrix is built explicitly and projected with explicit operators, the
scalar formulas are evaluated in 50-digit decimal arithmetic, the repeater
rate is evaluated one distance at a time with ``math``, and the trial
sampler hashes one (cycle, slot, draw) triple at a time in plain Python,
sharing only the pinned ``mix64`` finalizer with the package, and the
anchor report's chi fit is a plain bisection, one sweep per step.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

from dlczsim._kernels import mix64

getcontext().prec = 50


def dec_exp(x) -> Decimal:
    return Decimal(str(x)).exp()


def decay_oracle(t, r0, tau) -> Decimal:
    """High-precision evaluation of the Gaussian-plus-exponential decay."""
    x = Decimal(str(t)) / Decimal(str(tau))
    return Decimal(str(r0)) * ((-x * x).exp() + (-x).exp()) / 2


def escape_oracle(t_ocm, loss) -> Decimal:
    return Decimal(str(t_ocm)) / (Decimal(str(t_ocm)) + Decimal(str(loss)))


def p0_oracle(chi, l0_km, l_att_km, eta_fc, eta_td) -> Decimal:
    """Elementary-link single-mode success probability, 50-digit decimal."""
    chi = Decimal(str(chi))
    att = (-Decimal(str(l0_km)) / Decimal(str(l_att_km))).exp()
    return (chi * chi * att * Decimal(str(eta_fc)) ** 2
            * Decimal(str(eta_td)) ** 2) / 2


def multi_mode_oracle(p0: Decimal, n: int) -> Decimal:
    return 1 - (1 - p0) ** n


def werner_density_matrix(p: float, gamma: float = 0.0) -> np.ndarray:
    """Explicit 4x4 Werner matrix in the |HH>,|HV>,|VH>,|VV> basis."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / np.sqrt(2.0)
    ket[3] = np.exp(1j * gamma) / np.sqrt(2.0)
    return p * np.outer(ket, ket.conj()) + (1.0 - p) * np.eye(4) / 4.0


def polarizer_projector(theta_rad: float) -> np.ndarray:
    v = np.array([np.cos(theta_rad), np.sin(theta_rad)])
    return np.outer(v, v)


def joint_projection_oracle(p: float, theta_s_deg: float, theta_as_deg: float,
                            gamma: float = 0.0):
    """Brute-force (W13, W14, W23, W24) from the explicit density matrix."""
    rho = werner_density_matrix(p, gamma)
    ts = np.radians(theta_s_deg)
    tas = np.radians(theta_as_deg)
    out = []
    for ds in (ts, ts + np.pi / 2):         # D1, D2
        for da in (tas, tas + np.pi / 2):   # D3, D4
            proj = np.kron(polarizer_projector(ds), polarizer_projector(da))
            out.append(float(np.real(np.trace(rho @ proj))))
    return tuple(out)  # (W13, W14, W23, W24)


# --- scalar trial sampler -------------------------------------------------
# One (cycle, slot, draw) hash at a time and one slot at a time, blocking
# write slots sequentially after each herald: the trial semantics written as
# the plain loop the vectorized kernel must reproduce bit for bit.

_U64 = (1 << 64) - 1
_CYCLE_KEY = 0xA24BAED4963EE407
_SLOT_KEY = 0x9FB21C651E98DF25


def trial_uniform_oracle(master_seed: int, cycle: int, slot: int,
                         draw: int) -> float:
    """Uniform of one (cycle, slot, draw) triple from the splitmix64 chain."""
    h = mix64(((cycle * _CYCLE_KEY) & _U64) ^ master_seed)
    h = mix64(h ^ ((slot * _SLOT_KEY) & _U64))
    h = mix64(h ^ draw)
    return (h >> 11) * 2.0 ** -53


def trial_records_oracle(master_seed, cycle_lo, cycle_hi, n_slots, p_herald,
                         a13, a14, a23, a24, p_noise, skip_slots) -> list:
    """(cycle, slot, herald, readout, background) of every executed trial."""
    rows = []
    for cycle in range(cycle_lo, cycle_hi):
        blocked_until = -1
        for slot in range(n_slots):
            if slot <= blocked_until:
                continue
            u0 = trial_uniform_oracle(master_seed, cycle, slot, 0)
            if u0 >= p_herald:
                rows.append((cycle, slot, 0, 0, False))
                continue
            d1 = u0 < p_herald * 0.5
            b3, b4 = (a13, a14) if d1 else (a23, a24)
            if skip_slots > 0:
                blocked_until = slot + skip_slots
            u1 = trial_uniform_oracle(master_seed, cycle, slot, 1)
            readout, background = 0, False
            if u1 < b3:
                readout = 3
            elif u1 < b3 + b4:
                readout = 4
            else:
                u2 = trial_uniform_oracle(master_seed, cycle, slot, 2)
                if u2 < p_noise:
                    background = True
                    readout = 3 if u2 < p_noise * 0.5 else 4
            rows.append((cycle, slot, 1 if d1 else 2, readout, background))
    return rows


def counts_from_rows(rows) -> tuple:
    """(c13, c14, c23, c24, s1, s2, n_trials, n_background) of trial rows."""
    def n(herald, readout):
        return sum(1 for r in rows if r[2] == herald and r[3] == readout)

    return (n(1, 3), n(1, 4), n(2, 3), n(2, 4),
            sum(1 for r in rows if r[2] == 1), sum(1 for r in rows if r[2] == 2),
            len(rows), sum(1 for r in rows if r[4]))


# --- record dump ----------------------------------------------------------

def write_record_dump_reference(columns, path) -> None:
    """The click-record dump of the record columns ``(cycle, slot, herald,
    readout, background, t_ns)``, written one f-string per row."""
    cyc, slot, her, read, bg, t_ns = columns
    names_h = ("", "D1", "D2")
    names_r = ("", "", "", "D3", "D4")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cycle,trial,herald,readout,background,t_ns\n")
        for i in range(cyc.size):
            fh.write(f"{cyc[i]},{slot[i]},{names_h[her[i]]},"
                     f"{names_r[read[i]]},{int(bg[i])},{t_ns[i]}\n")


# --- repeater rate, one distance at a time ---------------------------------
# The log-space chain with its 1e-300 collapse floor, written per point with
# ``math``: the reference the array evaluation in ``dlczsim.repeater`` must
# reproduce column by column.

_LOG_FLOOR = -300.0 * math.log(10.0)


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def repeater_rate_oracle(p, total_km: float) -> dict:
    """Every column of one repeater point, under ``RepeaterParams`` ``p``.

    Levels past a collapse have probability 0 and time inf; ``collapsed_at``
    is the swap level that underflowed, 0 where none did.
    """
    n = p.nest_level
    row = dict(p0=0.0, p0_multi=0.0, p_levels=[0.0] * n,
               t_levels=[math.inf] * (n + 1), p_pr=0.0, rate_per_s=0.0,
               status="unreachable", collapsed_at=0)
    # elementary link
    l0 = total_km / p.n_links
    t_cc = l0 * 1e3 / p.fiber_speed
    log_p0 = (2.0 * _safe_log(p.chi) - l0 / p.attenuation_length
              + 2.0 * _safe_log(p.eta_fc) + 2.0 * _safe_log(p.eta_td)
              - math.log(2.0))
    if log_p0 < _LOG_FLOOR:
        return row
    p0 = math.exp(log_p0)
    p0_multi = -math.expm1(p.mode_count * math.log1p(-p0)) if p0 < 1.0 else 1.0
    row.update(p0=p0, p0_multi=p0_multi, status="collapsed")
    # swap chain
    t_prev = t_cc / p0_multi
    row["t_levels"][0] = t_prev
    base = 2.0 * _safe_log(p.r0) + 2.0 * _safe_log(p.eta_td) - math.log(2.0)
    for j in range(1, n + 1):
        log_pj = base - 2.0 * t_prev / p.memory_lifetime
        if not math.isfinite(log_pj) or log_pj < _LOG_FLOOR:
            row["collapsed_at"] = j
            return row
        p_j = math.exp(log_pj)
        t_prev = t_prev / p_j
        row["p_levels"][j - 1] = p_j
        row["t_levels"][j] = t_prev
    # pair distribution
    if p.pr_exponent == "literal_L_over_tau":
        decay = -total_km / p.memory_lifetime
    elif p.pr_exponent == "total_elapsed_time":
        decay = -t_prev / p.memory_lifetime
    else:  # flight_time
        decay = -(total_km * 1e3 / p.fiber_speed) / p.memory_lifetime
    log_ppr = 2.0 * (_safe_log(p.r0) + decay) - math.log(2.0)
    p_pr = (math.exp(log_ppr)
            if math.isfinite(log_ppr) and log_ppr >= _LOG_FLOOR else 0.0)
    log_rate = (math.log(p0_multi)
                + sum(_safe_log(p_j) for p_j in row["p_levels"])
                + _safe_log(p_pr) - math.log(t_cc))
    rate = math.exp(log_rate) if log_rate > _LOG_FLOOR else 0.0
    row.update(p_pr=p_pr, rate_per_s=rate,
               status="ok" if rate > 0.0 else "collapsed")
    return row


# --- the anchor report's chi fit --------------------------------------------

def fit_chi_bisection_oracle(crossing, target_km: float):
    """The plain bisection in log chi over (1e-4, 0.99) that
    ``repeater._fit_chi_for_crossing`` replays, one crossing per step.

    ``crossing(chi)`` is the swept crossing distance, None where the sweep
    does not span the target rate. Returns None when the ends do not
    bracket ``target_km``.
    """
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
