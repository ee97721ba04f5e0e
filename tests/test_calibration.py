import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from dlczsim.calibration import (
    DataPoint,
    calibration_to_dict,
    default_calibration,
    default_decay_model,
    default_source_params,
    fit_bell_model,
    fit_decay,
    read_datapoints_csv,
)
from dlczsim.errors import FitConvergenceError, InsufficientStatisticsError
from dlczsim.model import (DecayModel, SourceParams, expected_bell,
                           retrieval_efficiency)

DM = DecayModel(0.77, 1e-3)

PAPER_BELL_POINTS = [DataPoint(0.0, 2.5, 0.02),
                     DataPoint(1.15e-3, 2.05, 0.03),
                     DataPoint(2.6e-3, 1.15, 0.03)]


def _source(p0, tau_g, tau_e, p_noise):
    return SourceParams(chi=0.02, werner_p0=p0, vis_tau_gauss=tau_g,
                        vis_tau_exp=tau_e, p_noise=p_noise)


def synth_decay_points(model, ts, sigma=0.01):
    return [DataPoint(t, float(retrieval_efficiency(t, model)), sigma)
            for t in ts]


class TestFitDecay:
    def test_exact_points_recover_parameters(self):
        pts = synth_decay_points(DM, np.linspace(0, 3e-3, 9))
        fit = fit_decay(pts)
        assert fit.model.r0 == pytest.approx(0.77, abs=1e-6)
        assert fit.model.tau0 == pytest.approx(1e-3, rel=1e-6)
        assert max(abs(r) for r in fit.residuals) < 1e-9

    def test_three_paper_anchors(self):
        pts = [DataPoint(0.0, 0.77, 0.01), DataPoint(0.23e-3, 0.667, 0.01),
               DataPoint(0.54e-3, 0.51, 0.01)]
        fit = fit_decay(pts)
        assert fit.model.r0 == pytest.approx(0.77, abs=0.01)
        assert fit.model.tau0 == pytest.approx(1e-3, abs=1e-4)

    def test_three_paper_anchors_bits(self):
        # the decay fit's result is pinned bit for bit, as the Bell fit's is
        pts = [DataPoint(0.0, 0.77, 0.01), DataPoint(0.23e-3, 0.667, 0.01),
               DataPoint(0.54e-3, 0.51, 0.01)]
        fit = fit_decay(pts)
        assert fit.model.r0.hex() == "0x1.898d2a85876fbp-1"
        assert fit.model.tau0.hex() == "0x1.046cdb11f02c8p-10"

    def test_noisy_points_statistical_recovery(self):
        rng = np.random.default_rng(42)
        ts = np.linspace(0, 3e-3, 12)
        failures = 0
        for _ in range(100):
            pts = [DataPoint(float(t),
                             float(retrieval_efficiency(t, DM)
                                   + rng.normal(0, 0.01)), 0.01)
                   for t in ts]
            try:
                fit = fit_decay(pts)
            except ValueError:
                failures += 1
                continue
            # 3 sigma in parameter space, loose bound from the fit errors
            if not (abs(fit.model.r0 - 0.77) < 0.03
                    and abs(fit.model.tau0 - 1e-3) < 0.15e-3):
                failures += 1
        assert failures <= 5

    def test_requires_three_distinct_times(self):
        with pytest.raises(ValueError):
            fit_decay([DataPoint(0, 0.7, 0.01), DataPoint(0, 0.6, 0.01),
                       DataPoint(1e-3, 0.5, 0.01)])


class TestFitBellModel:
    def test_paper_points_within_sigma(self):
        fit = fit_bell_model(PAPER_BELL_POINTS, DM, 0.15, 1e-4)
        assert fit.converged
        for resid, pt in zip(fit.residuals, PAPER_BELL_POINTS):
            assert abs(resid) <= pt.sigma
        assert 0.85 < fit.werner_p0 <= 1.0

    def test_round_trip_recovers_parameters(self):
        truth = (0.9, 1.5e-3, 4e-3)
        ts = [0.0, 0.4e-3, 0.9e-3, 1.6e-3, 2.4e-3, 3.5e-3]
        pts = [DataPoint(t, expected_bell(_source(*truth, 1e-4), DM, t, 0.15),
                         0.02) for t in ts]
        fit = fit_bell_model(pts, DM, 0.15, 1e-4)
        assert fit.werner_p0 == pytest.approx(truth[0], abs=1e-6)
        assert fit.vis_tau_gauss == pytest.approx(truth[1], rel=1e-5)
        assert fit.vis_tau_exp == pytest.approx(truth[2], rel=1e-5)

    def test_background_free_limit_fits_mixing_alone(self):
        # p_noise = 0 and constant retrieval: S/(2 sqrt 2) is p(t) itself
        dm_flat = DecayModel(1.0, 1e6)  # effectively constant over the grid
        truth = (0.8, 2e-3, 5e-3)
        ts = [0.0, 1e-3, 2e-3, 4e-3]
        pts = [DataPoint(t, expected_bell(_source(*truth, 0.0), dm_flat, t,
                                          1.0), 0.02) for t in ts]
        fit = fit_bell_model(pts, dm_flat, 1.0, 0.0)
        assert fit.werner_p0 == pytest.approx(0.8, abs=1e-6)

    def test_single_zero_delay_point(self):
        s_max = 2 * math.sqrt(2)
        fit = fit_bell_model([DataPoint(0.0, s_max, 0.02)],
                             DecayModel(1.0, 1.0), 1.0, 0.0)
        assert fit.werner_p0 == pytest.approx(1.0, abs=1e-9)
        assert not fit.decay_constrained

    @pytest.mark.parametrize("points", [PAPER_BELL_POINTS,
                                        PAPER_BELL_POINTS[:1]])
    def test_zero_probability_model_raises_naming_the_time(self, points):
        # no retrieval and no background: the model has no coincidences
        with pytest.raises(InsufficientStatisticsError,
                           match="storage time 0 s: model assigns zero"):
            fit_bell_model(points, DecayModel(0.0, 1e-3), 0.15, 0.0)

    def test_deterministic(self):
        a = fit_bell_model(PAPER_BELL_POINTS, DM, 0.15, 1e-4)
        b = fit_bell_model(PAPER_BELL_POINTS, DM, 0.15, 1e-4)
        assert a == b


class TestCalibrationFiles:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("t_s,value,sigma\n0.0,2.5,0.02\n0.00115,2.05,0.03\n")
        pts = read_datapoints_csv(path)
        assert pts == [DataPoint(0.0, 2.5, 0.02), DataPoint(1.15e-3, 2.05, 0.03)]

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val,err\n0,1,0.1\n")
        with pytest.raises(ValueError):
            read_datapoints_csv(path)

    def test_packaged_fixture_matches_fresh_fit(self):
        cal = default_calibration()
        fit = fit_bell_model(PAPER_BELL_POINTS, default_decay_model(), 0.15,
                             1e-4)
        assert cal["bell"]["werner_p0"] == pytest.approx(fit.werner_p0,
                                                         rel=1e-9)
        assert cal["bell"]["vis_tau_gauss_s"] == pytest.approx(
            fit.vis_tau_gauss, rel=1e-9)
        assert cal["bell"]["vis_tau_exp_s"] == pytest.approx(
            fit.vis_tau_exp, rel=1e-9)
        assert cal["decay"] == {"r0": 0.77, "tau0_s": 1e-3,
                                "residuals": cal["decay"]["residuals"]}

    def test_default_source_params_reproduce_bell_values(self):
        sp = default_source_params()
        dm = default_decay_model()
        for t, want in ((0.0, 2.5), (1.15e-3, 2.05), (2.6e-3, 1.15)):
            assert expected_bell(sp, dm, t, 0.15) == pytest.approx(want,
                                                                   abs=0.03)

    def test_to_dict_empty(self):
        assert calibration_to_dict() == {}


# -- the start grids, one point at a time ------------------------------------

def _amplitude_loop(shape, y, w):
    denom = float(np.sum(w * shape * shape))
    if denom <= 0.0:
        return 0.0
    return float(np.clip(np.sum(w * shape * y) / denom, 0.0, 1.0))


def _decay_start_loop(ts, ys, ws):
    span = max(ts.max(), 1e-9)
    best = None
    for tau in np.geomspace(span / 30.0, span * 30.0, 40):
        x = ts / tau
        shape = (np.exp(-x * x) + np.exp(-x)) / 2.0
        r0 = _amplitude_loop(shape, ys, ws)
        chi2 = float(np.sum(ws * (r0 * shape - ys) ** 2))
        if best is None or chi2 < best[0]:
            best = (chi2, r0, tau)
    return [best[1], math.log(best[2])]


def _bell_start_loop(ts, ys, ws, dm, readout_eta, p_noise):
    # the model's S at unit visibility: h(t) rounds to 1 at these times
    scale = expected_bell(_source(1.0, 1e300, 1e300, p_noise), dm, ts,
                          readout_eta)
    span = max(ts.max(), 1e-9)
    grid = np.geomspace(span / 20.0, span * 20.0, 14)
    best = None
    for tg in grid:
        for te in grid:
            xg = ts / tg
            h = (np.exp(-xg * xg) + np.exp(-ts / te)) / 2.0
            p0 = _amplitude_loop(scale * h, ys, ws)
            chi2 = float(np.sum(ws * (scale * h * p0 - ys) ** 2))
            if best is None or chi2 < best[0]:
                best = (chi2, p0, tg, te)
    return [best[1], math.log(best[2]), math.log(best[3])]


def _start_of(fit, *args):
    """The start point ``fit`` hands to ``least_squares``."""
    with mock.patch.object(scipy.optimize, "least_squares",
                           wraps=scipy.optimize.least_squares) as spy, \
            contextlib.suppress(FitConvergenceError):
        fit(*args)
    return [float(v) for v in spy.call_args.args[1]]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 2 ** 32 - 1),
       p_noise=st.sampled_from([0.0, 1e-4, 0.3]))
def test_start_grids_match_the_point_by_point_loops(n, seed, p_noise):
    # each fit evaluates its grid in one pass and must start where the
    # loop over grid points starts, bit for bit
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, 5e-3, n))
    ys = rng.uniform(0.3, 2.8, n)
    ws = 1.0 / rng.uniform(0.01, 0.1, n) ** 2
    pts = [DataPoint(t, y, 1.0 / math.sqrt(w)) for t, y, w in
           zip(ts.tolist(), ys.tolist(), ws.tolist())]
    ws = np.array([1.0 / p.sigma ** 2 for p in pts])
    dm = DecayModel(float(rng.uniform(0.2, 1.0)),
                    float(10 ** rng.uniform(-4, -2)))
    eta = float(rng.uniform(0.05, 1.0))
    assert _start_of(fit_bell_model, pts, dm, eta, p_noise) == \
        _bell_start_loop(ts, ys, ws, dm, eta, p_noise)
    pts = [DataPoint(p.t, p.value / 3, p.sigma) for p in pts]
    assert _start_of(fit_decay, pts) == _decay_start_loop(ts, ys / 3, ws)


# -- the fitted curve is the model's -----------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1),
       at_zero=st.booleans(),
       p_noise=st.sampled_from([0.0, 1e-4, 0.3, 0.9]))
def test_fit_curve_is_the_models_expected_bell(n, seed, at_zero, p_noise):
    # residuals plus data give the curve the fit minimised; it must be the
    # model's S for the fitted parameters. Where S is near 0 the model's
    # own rounding (a few ulps of each E) sets the tolerance
    rng = np.random.default_rng(seed)
    ts = np.zeros(n) if at_zero else np.sort(rng.uniform(0.0, 5e-3, n))
    pts = [DataPoint(t, y, s) for t, y, s in
           zip(ts.tolist(), rng.uniform(0.0, 2.8, n).tolist(),
               rng.uniform(0.01, 0.1, n).tolist())]
    dm = DecayModel(float(rng.uniform(0.05, 1.0)),
                    float(10 ** rng.uniform(-5, -1)))
    eta = float(rng.uniform(0.01, 1.0))
    try:
        fit = fit_bell_model(pts, dm, eta, p_noise)
    except FitConvergenceError as exc:
        fit = exc.best
    curve = np.array(fit.residuals) + [p.value for p in pts]
    sp = _source(fit.werner_p0, fit.vis_tau_gauss, fit.vis_tau_exp, p_noise)
    assert curve == pytest.approx(expected_bell(sp, dm, ts, eta), rel=1e-12,
                                  abs=1e-14)
