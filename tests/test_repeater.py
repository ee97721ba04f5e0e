import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dlczsim import model, repeater
from dlczsim.errors import NotBracketedError
from dlczsim.repeater import (
    LINK_CONVENTIONS,
    MAX_NEST_LEVEL,
    PR_EXPONENTS,
    RepeaterParams,
    calibration_report,
    crossing_distance,
    elementary_probability,
    repeater_rate,
    swap_chain,
    sweep_distance,
)

from oracles import (
    fit_chi_bisection_oracle,
    multi_mode_oracle,
    p0_oracle,
    repeater_rate_oracle,
)

FIG5 = RepeaterParams()  # spec defaults are the published parameter set


def _chain_levels(curve):
    """Mask of the swap levels each point reached, shaped like p_levels."""
    level = np.arange(1, curve.p_levels.shape[0] + 1).reshape(
        (-1,) + (1,) * curve.collapsed_at.ndim)
    return ((curve.status != "unreachable")
            & ((curve.collapsed_at == 0) | (level < curve.collapsed_at)))


class TestElementaryLink:
    def test_p0_against_decimal_oracle(self):
        p = dataclasses.replace(FIG5, link_convention="L_over_2_pow_n")
        p0, p0_multi, _, _ = elementary_probability(p, 1000.0)  # l0 = 62.5 km
        want = float(p0_oracle(0.02, 62.5, 22.0, 0.33, 0.90))
        assert 1000.0 / p.n_links == pytest.approx(62.5)
        assert p0 == pytest.approx(want, rel=1e-6)
        assert p0 == pytest.approx(1.03e-6, rel=0.01)
        want_multi = float(multi_mode_oracle(p0_oracle(0.02, 62.5, 22.0,
                                                       0.33, 0.90), 1000))
        assert p0_multi == pytest.approx(want_multi, rel=1e-6)
        assert p0_multi == pytest.approx(1.03e-3, rel=0.01)

    def test_lossless_fiber_limit(self):
        p = dataclasses.replace(FIG5, attenuation_length=1e12)
        p0 = elementary_probability(p, 100.0)[0]
        want = 0.02 ** 2 * 0.33 ** 2 * 0.90 ** 2 / 2
        assert p0 == pytest.approx(want, rel=1e-9)

    def test_single_mode_collapses_to_p0(self):
        p = dataclasses.replace(FIG5, mode_count=1)
        p0, p0_multi, _, _ = elementary_probability(p, 200.0)
        assert p0_multi == pytest.approx(p0, rel=1e-12)

    def test_unreachable_link_flagged_not_crashed(self):
        p = dataclasses.replace(FIG5, chi=1e-12)
        p0, _, _, t0 = elementary_probability(p, 4e5)
        assert repeater_rate(p, 4e5).status == "unreachable"
        assert p0 == 0.0 and math.isinf(t0)

    def test_shortcut_agreement_in_linear_regime(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = dataclasses.replace(
                FIG5, chi=float(rng.uniform(1e-3, 0.05)),
                mode_count=int(rng.integers(1, 2000)))
            p0, p0_multi, p0_multi_approx, _ = elementary_probability(
                p, float(rng.uniform(50, 800)))
            if p0 > 0.0 and p.mode_count * p0 < 0.02:
                assert p0_multi_approx == pytest.approx(p0_multi, rel=0.01)

    def test_shortcut_is_the_clipped_linear_term(self):
        # min(1, N*p0) at every distance, reachable or not, and saturated
        # where N*p0 passes 1
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = dataclasses.replace(
                FIG5, chi=float(rng.uniform(1e-3, 0.5)),
                mode_count=int(rng.integers(1, 5000)))
            km = rng.uniform(1.0, 4e4, size=16)
            p0, _, p0_multi_approx, _ = elementary_probability(p, km)
            assert np.array_equal(p0_multi_approx,
                                  np.minimum(1.0, p.mode_count * p0))
        p = dataclasses.replace(FIG5, chi=0.5, mode_count=5000)
        assert elementary_probability(p, 1.0)[2] == 1.0

    def test_doubling_modes_doubles_rate_at_small_p0(self):
        # linear regime of 1-(1-p0)^N; decay switched off so the shorter
        # generation time does not additionally boost the swap chain
        p1 = dataclasses.replace(FIG5, mode_count=500,
                                 memory_lifetime=1e12)
        p2 = dataclasses.replace(p1, mode_count=1000)
        l = 300.0
        r1 = repeater_rate(p1, l)
        r2 = repeater_rate(p2, l)
        assert p2.mode_count * r1.p0 < 0.01
        assert r2.p0_multi / r1.p0_multi == pytest.approx(2.0, rel=0.01)
        assert r2.rate_per_s / r1.rate_per_s == pytest.approx(2.0, rel=0.01)


class TestSwapChain:
    def test_fast_link_level1_probability(self):
        p_levels, _, collapsed_at = swap_chain(FIG5, t0=1e-6)
        assert collapsed_at == 0
        assert p_levels[0] == pytest.approx(0.77 ** 2 * 0.90 ** 2 / 2,
                                            rel=1e-6)
        assert p_levels[0] == pytest.approx(0.240, abs=5e-4)

    def test_no_decay_limit_recursion_pattern(self):
        p = dataclasses.replace(FIG5, memory_lifetime=1e15)
        p_levels, t_levels, _ = swap_chain(p, t0=1.0)
        pj = 0.77 ** 2 * 0.90 ** 2 / 2
        t = 1.0
        for p_j, t_j in zip(p_levels, t_levels[1:]):
            assert p_j == pytest.approx(pj, rel=1e-9)
            t = t / pj
            assert t_j == pytest.approx(t, rel=1e-9)

    def test_zero_retrieval_collapses_at_level_1(self):
        p_levels, t_levels, collapsed_at = swap_chain(
            dataclasses.replace(FIG5, r0=0.0), t0=1e-3)
        assert collapsed_at == 1
        assert not p_levels.any() and np.all(np.isinf(t_levels[1:]))

    def test_times_strictly_increasing(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = dataclasses.replace(
                FIG5, r0=float(rng.uniform(0.2, 1.0)),
                eta_td=float(rng.uniform(0.3, 1.0)),
                memory_lifetime=float(10 ** rng.uniform(-1, 2)),
                nest_level=int(rng.integers(1, 6)))
            p_levels, t_levels, collapsed_at = swap_chain(
                p, t0=float(10 ** rng.uniform(-6, 0)))
            k = collapsed_at - 1 if collapsed_at else p.nest_level
            ts = t_levels[1:k + 1]
            assert all(b > a for a, b in zip(ts, ts[1:]))
            assert all(0 < p_j <= p.r0 ** 2 * p.eta_td ** 2 / 2 + 1e-15
                       for p_j in p_levels[:k])


    def test_time_past_the_largest_float_raises_no_warning(self):
        # a long-lived memory keeps every level alive while the waiting
        # time of the upper levels grows past the largest float
        p = RepeaterParams(nest_level=4, memory_lifetime=1e300, chi=1e-6,
                           r0=1e-3, attenuation_length=22.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = repeater_rate(p, np.geomspace(1, 1e6, 200))
        assert np.isinf(curve.t_levels).any()


class TestRate:
    def test_zero_retrieval_zero_rate(self):
        pt = repeater_rate(dataclasses.replace(FIG5, r0=0.0), 500.0)
        assert pt.rate_per_s == 0.0
        assert pt.status == "collapsed"

    def test_zero_retrieval_rows_collapse_at_level_1(self):
        # the rows `repeater --format json` writes; with r0 = 0 no point is
        # ok, so the command itself exits 3 before writing them
        curve = sweep_distance(dataclasses.replace(FIG5, r0=0.0), 50.0,
                               5000.0, 20)
        assert np.all(curve.status == "collapsed")
        assert np.all(curve.collapsed_at == 1)
        assert not curve.p_levels.any() and not curve.p_pr.any()
        assert np.all(np.isinf(curve.t_levels[1:]))
        assert np.all(np.isfinite(curve.t_levels[0]))

    def test_cpe_dominates_cie_everywhere_all_modes(self):
        for exponent in PR_EXPONENTS:
            for convention in LINK_CONVENTIONS:
                base = dataclasses.replace(FIG5, pr_exponent=exponent,
                                           link_convention=convention)
                for l in (50.0, 200.0, 700.0):
                    hi = repeater_rate(dataclasses.replace(base, r0=0.77), l)
                    lo = repeater_rate(dataclasses.replace(base, r0=0.58), l)
                    assert hi.rate_per_s >= lo.rate_per_s

    def test_rate_monotone_decreasing_in_distance(self):
        for exponent in PR_EXPONENTS:
            p = dataclasses.replace(FIG5, pr_exponent=exponent)
            curve = sweep_distance(p, 20.0, 3000.0, 80)
            rates = curve.rate_per_s
            assert np.all(np.diff(rates) <= 1e-18)

    def test_rate_monotone_in_each_parameter(self):
        rng = np.random.default_rng(31)
        grids = {
            "r0": (0.2, 1.0), "eta_td": (0.3, 1.0), "eta_fc": (0.1, 1.0),
            "mode_count": (1, 3000), "memory_lifetime": (0.5, 100.0),
        }
        for exponent in PR_EXPONENTS:
            for _ in range(40):
                kw = dict(
                    r0=float(rng.uniform(0.3, 0.9)),
                    eta_td=float(rng.uniform(0.4, 0.95)),
                    eta_fc=float(rng.uniform(0.2, 0.9)),
                    mode_count=int(rng.integers(10, 2000)),
                    memory_lifetime=float(10 ** rng.uniform(0, 2)),
                    chi=float(rng.uniform(0.005, 0.05)),
                    pr_exponent=exponent,
                )
                l = float(rng.uniform(50, 600))
                base_rate = repeater_rate(RepeaterParams(**kw), l).rate_per_s
                name = rng.choice(list(grids))
                lo, hi = grids[name]
                bigger = dict(kw)
                if name == "mode_count":
                    bigger[name] = min(int(kw[name] * 2), 4000)
                else:
                    bigger[name] = min(float(kw[name]) * 1.2, hi)
                new_rate = repeater_rate(RepeaterParams(**bigger), l).rate_per_s
                assert new_rate >= base_rate * (1 - 1e-12)

    def test_interpretations_converge_at_infinite_lifetime(self):
        p = dataclasses.replace(FIG5, memory_lifetime=1e14)
        rates = [repeater_rate(dataclasses.replace(p, pr_exponent=e),
                               400.0).rate_per_s for e in PR_EXPONENTS]
        assert rates[0] == pytest.approx(rates[1], rel=1e-9)
        assert rates[0] == pytest.approx(rates[2], rel=1e-9)

    def test_literal_mode_flagged_nonphysical(self):
        pt = repeater_rate(dataclasses.replace(
            FIG5, pr_exponent="literal_L_over_tau"), 100.0)
        assert pt.pr_nonphysical_units
        pt2 = repeater_rate(FIG5, 100.0)
        assert not pt2.pr_nonphysical_units

    def test_rate_past_the_largest_float_raises_naming_the_distance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"distance 1e-308 km"):
                repeater_rate(FIG5, np.array([1e-300, 1e-308, 1e-310]))
            pt = repeater_rate(FIG5, 1e-300)
        assert pt.status == "ok"
        assert pt.rate_per_s == pytest.approx(1.378823863364139e301,
                                              rel=1e-12)

    def test_link_time_underflow_raises_naming_the_distance(self):
        with pytest.raises(ValueError, match=r"^distance 1e-320 km: one-link "
                                             r"time underflows to 0 s$"):
            repeater_rate(FIG5, np.array([1e-300, 1e-320, 1e-322]))

    def test_probabilities_bounded(self):
        curve = sweep_distance(FIG5, 10.0, 5000.0, 60)
        assert np.all((0.0 <= curve.p0) & (curve.p0 <= 1.0))
        assert np.all((0.0 <= curve.p0_multi) & (curve.p0_multi <= 1.0))
        assert np.all((0.0 <= curve.p_pr) & (curve.p_pr <= 1.0))
        p_j = curve.p_levels[_chain_levels(curve)]
        assert np.all((0.0 < p_j) & (p_j <= 1.0))
        assert np.all(curve.rate_per_s >= 0.0)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_PARAMS = st.builds(
    RepeaterParams,
    nest_level=st.integers(1, 6),
    mode_count=st.integers(1, 4000),
    memory_lifetime=_log_uniform(-3, 14),
    eta_td=st.floats(0.0, 1.0),
    eta_fc=st.floats(0.0, 1.0),
    chi=st.one_of(_log_uniform(-12, 0), st.just(0.0)),
    attenuation_length=_log_uniform(0, 3),
    r0=st.one_of(st.floats(0.0, 1.0), st.just(0.0)),
    link_convention=st.sampled_from(LINK_CONVENTIONS),
    pr_exponent=st.sampled_from(PR_EXPONENTS),
)
_DISTANCES = st.one_of(
    _log_uniform(-3, 6),
    st.lists(_log_uniform(-3, 6), min_size=1, max_size=12).map(np.array))


def _same_value(got, want):
    if want == 0.0:  # the sign of a zero shows in the output
        return got == want and math.copysign(1.0, got) == 1.0
    if math.isinf(want):
        return got == want
    return abs(got - want) <= 1e-11 * abs(want)


class TestScalarOracle:
    @settings(max_examples=300, deadline=None)
    @given(p=_PARAMS, distances=_DISTANCES)
    # a sweep through ok, collapse at levels 4 to 1 and unreachable, and a
    # scalar distance whose chain collapses at level 1
    @example(p=dataclasses.replace(FIG5, chi=1e-3),
             distances=np.geomspace(1.0, 1e5, 300))
    @example(p=dataclasses.replace(FIG5, r0=0.0), distances=500.0)
    def test_columns_match_the_scalar_chain(self, p, distances):
        curve = repeater_rate(p, distances)
        shape = np.shape(distances)
        assert curve.rate_per_s.shape == shape
        assert curve.p_levels.shape == (p.nest_level,) + shape
        assert curve.t_levels.shape == (p.nest_level + 1,) + shape
        for i, d in enumerate(np.ravel(distances)):
            want = repeater_rate_oracle(p, float(d))
            at = np.unravel_index(i, shape)
            assert curve.status[at] == want["status"]
            assert curve.collapsed_at[at] == want["collapsed_at"]
            for name in ("p0", "p0_multi", "p_pr", "rate_per_s"):
                assert _same_value(getattr(curve, name)[at], want[name]), name
            for column, levels in (("p_levels", want["p_levels"]),
                                   ("t_levels", want["t_levels"])):
                got = getattr(curve, column)[(slice(None),) + at]
                assert all(_same_value(g, w) for g, w in zip(got, levels)), \
                    column


    def test_collapse_floor_at_its_boundary(self):
        # half a nat either side of the 1e-300 floor: for the link the
        # scalar chain decides, for the first swap level the collapse level
        floor = -300.0 * math.log(10.0)
        log_p0_at_0km = math.log(FIG5.chi ** 2 * FIG5.eta_fc ** 2
                                 * FIG5.eta_td ** 2 / 2)
        ls = [FIG5.n_links * FIG5.attenuation_length
              * (log_p0_at_0km - floor + s) for s in (-0.5, 0.5)]
        curve = repeater_rate(FIG5, ls)
        assert curve.status.tolist() == ["collapsed", "unreachable"]
        for i, l in enumerate(ls):
            want = repeater_rate_oracle(FIG5, l)
            assert curve.status[i] == want["status"]
            assert curve.collapsed_at[i] == want["collapsed_at"]
        base = math.log(FIG5.r0 ** 2 * FIG5.eta_td ** 2 / 2)
        t0 = [(base - floor + s) * FIG5.memory_lifetime / 2
              for s in (-0.5, 0.5)]
        assert swap_chain(FIG5, t0)[2].tolist() == [2, 1]


class TestCrossing:
    def test_exact_grid_point(self):
        assert crossing_distance([100, 200, 300], [1e-2, 1e-4, 1e-6],
                                 1e-4) == 200.0

    def test_closed_form_log_linear(self):
        ls = list(np.linspace(100, 700, 13))
        assert crossing_distance(ls, [10 ** (-l / 100) for l in ls], 1e-4) \
            == pytest.approx(400.0, rel=1e-9)

    def test_first_event_in_grid_order_wins(self):
        # a bracketing pair before a grid hit is interpolated; a grid hit
        # before a bracketing pair returns that grid distance
        ls = [100.0, 200.0, 300.0, 400.0]
        assert crossing_distance(ls, [1e-3, 1e-5, 1e-4, 1e-6], 1e-4) \
            == pytest.approx(150.0)
        assert crossing_distance(ls, [1e-3, 1e-4, 1e-5, 1e-3], 1e-4) == 200.0

    def test_drop_into_a_collapse_interpolates_towards_the_floor(self):
        # a zero rate reads as the collapse floor, about 1e-300: the target
        # lies 2 of the 298 decades from 1e-2 down to it
        assert crossing_distance([100, 200, 300], [1e-2, 0.0, 0.0], 1e-4) \
            == pytest.approx(100.0 + 100.0 * 2.0 / 298.0, rel=1e-12)

    @pytest.mark.parametrize("rates", [[1e-2, 0.0, 0.0], [1e-2, 1e-320, 0.0]])
    def test_target_under_the_floor_never_crossed(self, rates):
        with pytest.raises(NotBracketedError):
            crossing_distance([100, 200, 300], rates, 1e-310)

    def test_flat_zero_curve_not_bracketed(self):
        with pytest.raises(NotBracketedError):
            crossing_distance([100, 200, 300], [0.0, 0.0, 0.0], 1e-4)

    def test_real_curve_crossing_is_stable_under_refinement(self):
        coarse = sweep_distance(FIG5, 50.0, 2000.0, 60)
        fine = sweep_distance(FIG5, 50.0, 2000.0, 400)
        a = crossing_distance(coarse.distance_km, coarse.rate_per_s, 1e-4)
        b = crossing_distance(fine.distance_km, fine.rate_per_s, 1e-4)
        assert a == pytest.approx(b, rel=5e-3)


class TestReport:
    def test_enumerates_all_combinations(self):
        entries = calibration_report(points=150, l_max_km=20000.0)
        combos = {(e.link_convention, e.pr_exponent, e.chi_mode, e.chi)
                  for e in entries}
        assert len(entries) == len(LINK_CONVENTIONS) * len(PR_EXPONENTS) * 3
        assert len(combos) == len(entries)
        for e in entries:
            if e.chi_mode == "fitted" and e.chi is not None:
                assert e.crossing_cpe_km == pytest.approx(1000.0, rel=0.01)
            if e.matches_anchors:
                assert abs(e.crossing_cpe_km - 1000) <= 150
                assert abs(e.crossing_cie_km - 430) <= 64.5

    def test_default_report_matches_the_recorded_values(self):
        # recorded with the C library's exp and log, which differ from
        # numpy's in the last bit for some arguments: hence the tolerance
        want = [
            ("L_over_n", "literal_L_over_tau", "fixed", 0.01,
             46.47586035899427, 27.015592197456606),
            ("L_over_n", "literal_L_over_tau", "fixed", 0.02,
             56.54777412135995, 37.644280615612786),
            ("L_over_n", "literal_L_over_tau", "fitted", None, None, None),
            ("L_over_n", "total_elapsed_time", "fixed", 0.01,
             79.42581931295345, 20.002154545106457),
            ("L_over_n", "total_elapsed_time", "fixed", 0.02,
             147.12417306108037, 54.12574635208485),
            ("L_over_n", "total_elapsed_time", "fitted", None, None, None),
            ("L_over_n", "flight_time", "fixed", 0.01,
             140.57182697122846, 63.349540528110104),
            ("L_over_n", "flight_time", "fixed", 0.02,
             222.19746716072908, 125.24674200868597),
            ("L_over_n", "flight_time", "fitted", None, None, None),
            ("L_over_2_pow_n", "literal_L_over_tau", "fixed", 0.01,
             60.108571636452155, 40.11936558090123),
            ("L_over_2_pow_n", "literal_L_over_tau", "fixed", 0.02,
             70.04668275404775, 50.1659059032758),
            ("L_over_2_pow_n", "literal_L_over_tau", "fitted", None, None,
             None),
            ("L_over_2_pow_n", "total_elapsed_time", "fixed", 0.01,
             317.6938343949604, 80.0089584122875),
            ("L_over_2_pow_n", "total_elapsed_time", "fixed", 0.02,
             588.3936241764412, 216.49434893891936),
            ("L_over_2_pow_n", "total_elapsed_time", "fitted",
             0.04684161025610774, 1000.0000000176591, 511.0533261747805),
            ("L_over_2_pow_n", "flight_time", "fixed", 0.01,
             562.2710932965218, 253.3819590812026),
            ("L_over_2_pow_n", "flight_time", "fixed", 0.02,
             888.7021768986164, 500.9422788257597),
            ("L_over_2_pow_n", "flight_time", "fitted",
             0.024848316597395476, 999.9999999987355, 593.7074179606425),
        ]
        entries = calibration_report()
        assert len(entries) == len(want)
        for e, (conv, expo, mode, chi, cpe, cie) in zip(entries, want):
            assert (e.link_convention, e.pr_exponent, e.chi_mode) == (
                conv, expo, mode)
            assert (e.chi is None) == (chi is None)
            assert not e.matches_anchors
            if chi is not None:
                assert e.chi == pytest.approx(chi, rel=1e-12, abs=0.0)
                assert e.crossing_cpe_km == pytest.approx(cpe, rel=1e-12,
                                                          abs=0.0)
                assert e.crossing_cie_km == pytest.approx(cie, rel=1e-12,
                                                          abs=0.0)

    def test_fitted_chi_is_deterministic(self):
        a = calibration_report(points=120, l_max_km=20000.0)
        b = calibration_report(points=120, l_max_km=20000.0)
        assert a == b


class TestFitChi:
    @settings(max_examples=150, deadline=None)
    @given(convention=st.sampled_from(LINK_CONVENTIONS),
           exponent=st.sampled_from(PR_EXPONENTS), r0=st.floats(0.3, 1.0),
           target_km=st.floats(300.0, 3000.0), points=st.integers(40, 150))
    # coarse grids on which, for some chi above the fitted one, the rate
    # falls from above the target rate straight to a collapse between two
    # grid points: read at the collapse floor, that drop is a crossing
    @example(convention="L_over_n", exponent="total_elapsed_time",
             r0=0.9277315906735355, target_km=590.8728497098356, points=45)
    @example(convention="L_over_2_pow_n", exponent="flight_time",
             r0=0.7886394462896906, target_km=2023.629144652663, points=47)
    # the default report's two fitted variants, on a test grid
    @example(convention="L_over_2_pow_n", exponent="total_elapsed_time",
             r0=repeater.CPE_R0, target_km=1000.0, points=120)
    @example(convention="L_over_2_pow_n", exponent="flight_time",
             r0=repeater.CPE_R0, target_km=1000.0, points=120)
    def test_fit_is_the_plain_bisection(self, convention, exponent, r0,
                                        target_km, points):
        p = dataclasses.replace(FIG5, link_convention=convention,
                                pr_exponent=exponent, r0=r0)

        def crossing(chi):
            return repeater._swept_crossing(
                dataclasses.replace(p, chi=chi), 1e-4, 1.0, 20000.0, points)

        got = repeater._fit_chi_for_crossing(p, 1e-4, target_km, 1.0,
                                             20000.0, points)
        assert got == fit_chi_bisection_oracle(crossing, target_km)

    @pytest.mark.parametrize("convention, exponent, r0, points", [
        ("L_over_n", "total_elapsed_time", 0.9277315906735355, 45),
        ("L_over_2_pow_n", "flight_time", 0.7886394462896906, 47)])
    def test_crossing_rises_with_chi_through_collapses(self, convention,
                                                       exponent, r0, points):
        # the coarse grids of the examples above, where the rate falls into
        # a collapse between two grid points at many chis
        p = dataclasses.replace(FIG5, link_convention=convention,
                                pr_exponent=exponent, r0=r0)
        crossings = [repeater._swept_crossing(
            dataclasses.replace(p, chi=chi), 1e-4, 1.0, 20000.0, points)
            for chi in np.geomspace(1e-3, 0.99, 200)]
        assert None not in crossings
        assert all(a <= b for a, b in zip(crossings, crossings[1:]))

    def test_default_report_sweeps_at_most_75_times(self, monkeypatch):
        calls = []
        sweep = repeater.sweep_distance

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(repeater, "sweep_distance", counted)
        calibration_report()
        # each of the 6 variants sweeps its two fixed chis at both r0 and
        # the fit's end checks, a fitted chi at both r0 once more; the
        # plain bisection took 114 sweeps, 74 of them in its two fits
        assert len(calls) <= 75


class TestValidation:
    def test_param_bounds(self):
        with pytest.raises(ValueError):
            RepeaterParams(nest_level=0)
        with pytest.raises(ValueError):
            RepeaterParams(nest_level=MAX_NEST_LEVEL + 1)
        with pytest.raises(ValueError):
            RepeaterParams(eta_td=1.5)
        with pytest.raises(ValueError):
            RepeaterParams(link_convention="bogus")
        with pytest.raises(ValueError):
            RepeaterParams(pr_exponent="bogus")

    def test_link_count_per_convention(self):
        assert RepeaterParams(link_convention="L_over_n").n_links == 4
        assert RepeaterParams(link_convention="L_over_2_pow_n").n_links == 16

    def test_chain_uses_numpy_ufuncs(self):
        # neither the chain nor the model's decay laws map the C library's
        # functions over arrays
        assert not hasattr(repeater, "_libm")
        assert not hasattr(model, "_libm")

    @pytest.mark.parametrize("l_min, l_max", [
        (10.0, math.inf), (math.nan, 100.0), (10.0, math.nan),
        (-math.inf, 100.0)])
    def test_sweep_bounds_must_be_finite(self, l_min, l_max):
        with pytest.raises(ValueError, match="finite"):
            sweep_distance(FIG5, l_min, l_max, 10)

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1e-4])
    def test_crossing_target_must_be_positive_and_finite(self, target):
        with pytest.raises(ValueError, match="target rate"):
            crossing_distance([1.0, 2.0], [1.0, 1e-9], target)

    @pytest.mark.parametrize("grid, space", [("log", np.geomspace),
                                             ("linear", np.linspace)])
    def test_sweeps_over_equal_bounds_share_a_read_only_grid(self, grid,
                                                             space):
        a = sweep_distance(FIG5, 10.0, 5000.0, 60, grid=grid)
        b = sweep_distance(dataclasses.replace(FIG5, chi=0.01), 10, 5000,
                           60, grid=grid)
        assert np.array_equal(a.distance_km, space(10.0, 5000.0, 60))
        assert np.array_equal(b.distance_km, a.distance_km)
        for curve in (a, b):
            with pytest.raises(ValueError, match="read-only"):
                curve.distance_km[0] = 1.0
        assert a.distance_km[0] == 10.0

    def test_sweep_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_distance(FIG5, 100.0, 50.0, 10)
        with pytest.raises(ValueError):
            sweep_distance(FIG5, 10.0, 100.0, 1)
