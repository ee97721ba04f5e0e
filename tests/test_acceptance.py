"""Acceptance suite: one test per numbered criterion, at stated tolerances.

The Monte Carlo comparisons run on fixed seeds, so every assertion here is
deterministic. The terminal summary prints one PASS/FAIL line per
criterion (see conftest).
"""

import dataclasses
import math

import numpy as np
import pytest

from dlczsim.calibration import (
    DataPoint,
    default_decay_model,
    default_source_params,
    fit_bell_model,
)
from dlczsim.cli import main as cli_main
from dlczsim.model import (
    CANONICAL_SETTINGS,
    DecayModel,
    DetectionChain,
    MeasurementSettings,
    SourceParams,
    TSIRELSON_BOUND,
    bell_parameter,
    coincidence_probabilities,
    correlation_E,
    estimate_intrinsic_retrieval,
    expected_bell,
    fidelity_from_bell,
    retrieval_efficiency,
    total_detection_efficiency,
)
from dlczsim.montecarlo import (
    SeedSpec,
    SequenceConfig,
    bootstrap_errors,
    run_trials,
)
from dlczsim.repeater import (
    LINK_CONVENTIONS,
    PR_EXPONENTS,
    RepeaterParams,
    calibration_report,
    elementary_probability,
    repeater_rate,
    sweep_distance,
)

from oracles import decay_oracle, joint_projection_oracle, p0_oracle


def test_criterion_1_decay_law_reproduction():
    dm = DecayModel(0.77, 1e-3)
    for t, want in ((0.23e-3, 0.667), (0.54e-3, 0.512)):
        got = retrieval_efficiency(t, dm)
        assert got == pytest.approx(want, abs=0.005)
        # independent high-precision evaluation of the same closed form
        assert got == pytest.approx(float(decay_oracle(t, 0.77, 1e-3)),
                                    abs=1e-14)


def test_criterion_2_detection_budgets():
    experimental = DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68)
    assert total_detection_efficiency(experimental) == pytest.approx(
        0.150, abs=0.003)
    improved = DetectionChain(0.20, 0.005, 0.99, 0.98, 0.99, 0.95)
    assert total_detection_efficiency(improved) == pytest.approx(0.90,
                                                                 abs=0.01)


def test_criterion_3_chsh_analytics():
    ideal = SourceParams(chi=0.02, werner_p0=1.0, p_noise=0.0)
    unit = DecayModel(1.0, 1.0)
    assert expected_bell(ideal, unit, 0.0, 1.0) == pytest.approx(
        TSIRELSON_BOUND, abs=1e-12)
    werner = SourceParams(chi=0.02, werner_p0=0.884, p_noise=0.0)
    assert expected_bell(werner, unit, 0.0, 1.0) == pytest.approx(2.500,
                                                                  abs=0.001)
    assert fidelity_from_bell(1.15) == pytest.approx(0.555, abs=0.005)


def _mc_bell(sp, dm, t, eta, n_trials_target, seed):
    """Bell parameter and bootstrap error from a Monte Carlo of the source."""
    cfg = SequenceConfig().with_storage_time(t)
    p_herald = sp.chi * eta
    blocking = 1.0 + p_herald * cfg.herald_skip_slots
    n_cycles = math.ceil(n_trials_target * blocking / cfg.trials_per_run)
    counts = []
    for j, setting in enumerate(CANONICAL_SETTINGS):
        res = run_trials(cfg, sp, dm, eta, eta, setting, n_cycles,
                         seed.child(j))
        assert res.n_trials >= 0.8 * n_trials_target
        counts.append(res.counts)
    s = bell_parameter(*[correlation_E(c) for c in counts])
    err = bootstrap_errors(counts, 500, seed.child(99)).s_bell
    return s, err


def test_criterion_4_bell_curve_calibration():
    dm = default_decay_model()
    points = [DataPoint(0.0, 2.5, 0.02), DataPoint(1.15e-3, 2.05, 0.03),
              DataPoint(2.6e-3, 1.15, 0.03)]
    fit = fit_bell_model(points, dm, readout_eta=0.15, p_noise=1e-4)
    for resid in fit.residuals:
        assert abs(resid) <= 0.03

    sp = SourceParams(chi=0.02, werner_p0=fit.werner_p0,
                      vis_tau_gauss=fit.vis_tau_gauss,
                      vis_tau_exp=fit.vis_tau_exp, p_noise=1e-4)
    for k, (t, _) in enumerate(((0.0, 2.5), (1.15e-3, 2.05), (2.6e-3, 1.15))):
        s_analytic = expected_bell(sp, dm, t, 0.15)
        s_mc, err = _mc_bell(sp, dm, t, 0.15, 10_000_000,
                             SeedSpec(4000 + k))
        assert abs(s_mc - s_analytic) <= 3 * err, \
            f"t={t}: MC {s_mc:.4f} vs analytic {s_analytic:.4f}, sigma {err:.4f}"


def test_criterion_5_sequencer_arithmetic():
    cfg = SequenceConfig()
    assert cfg.trials_per_run == 4000
    res = run_trials(cfg, default_source_params(), default_decay_model(),
                     0.15, 0.15, MeasurementSettings(0, 0), 20, SeedSpec(50))
    assert res.n_trials == 80000


def test_criterion_6_repeater_model():
    # unit values against the 50-digit decimal oracle
    p16 = RepeaterParams(link_convention="L_over_2_pow_n")
    p0 = elementary_probability(p16, 1000.0)[0]
    want = float(p0_oracle(0.02, 62.5, 22.0, 0.33, 0.90))
    assert p0 == pytest.approx(want, rel=1e-6)
    assert p0 == pytest.approx(1.03e-6, rel=0.01)

    # property suite on the published parameter set
    base = RepeaterParams()
    rng = np.random.default_rng(600)
    for exponent in PR_EXPONENTS:
        for convention in LINK_CONVENTIONS:
            p = dataclasses.replace(base, pr_exponent=exponent,
                                    link_convention=convention)
            curve = sweep_distance(p, 20.0, 3000.0, 50)
            rates = curve.rate_per_s
            assert np.all(np.diff(rates) <= 1e-18)  # monotone in distance
            cie = sweep_distance(dataclasses.replace(p, r0=0.58), 20.0,
                                 3000.0, 50).rate_per_s
            assert np.all(curve.rate_per_s >= cie)  # CPE dominates CIE
            for i in range(curve.distance_km.size):
                assert 0.0 <= curve.p0_multi[i] <= 1.0
                assert 0.0 <= curve.p_pr[i] <= 1.0
                ts = curve.t_levels[1:, i][curve.p_levels[:, i] > 0.0]
                assert all(b > a for a, b in zip(ts, ts[1:]))
    # monotone in each node parameter under random perturbation
    for _ in range(60):
        kw = dict(r0=float(rng.uniform(0.3, 0.9)),
                  eta_td=float(rng.uniform(0.4, 0.95)),
                  eta_fc=float(rng.uniform(0.2, 0.9)),
                  mode_count=int(rng.integers(10, 2000)),
                  memory_lifetime=float(10 ** rng.uniform(0, 2)),
                  chi=float(rng.uniform(0.005, 0.05)),
                  pr_exponent=str(rng.choice(PR_EXPONENTS)))
        l = float(rng.uniform(50, 500))
        r_base = repeater_rate(RepeaterParams(**kw), l).rate_per_s
        for name, factor in (("r0", 1.1), ("eta_td", 1.05), ("eta_fc", 1.2),
                             ("mode_count", 2), ("memory_lifetime", 3.0)):
            up = dict(kw)
            if name == "mode_count":
                up[name] = min(4000, kw[name] * 2)
            else:
                up[name] = min(1.0 if name != "memory_lifetime" else 1e6,
                               kw[name] * factor)
            assert repeater_rate(RepeaterParams(**up), l).rate_per_s >= \
                r_base * (1 - 1e-12)
    # exact vs linear multiplexing shortcut within 1% when N*P0 < 0.02
    for _ in range(100):
        p = dataclasses.replace(base, chi=float(rng.uniform(1e-3, 0.05)),
                                mode_count=int(rng.integers(1, 2000)))
        p0, p0_multi, p0_multi_approx, _ = elementary_probability(
            p, float(rng.uniform(50, 900)))
        if p0 > 0.0 and p.mode_count * p0 < 0.02:
            assert p0_multi_approx == pytest.approx(p0_multi, rel=0.01)
    # anchor report: every combination enumerated, matches flagged
    entries = calibration_report(points=200, l_max_km=20000.0)
    assert len(entries) == 18
    for e in entries:
        assert e.link_convention in LINK_CONVENTIONS
        assert e.pr_exponent in PR_EXPONENTS
        if e.matches_anchors:
            assert abs(e.crossing_cpe_km - 1000.0) <= 150.0
            assert abs(e.crossing_cie_km - 430.0) <= 64.5


def test_criterion_7_statistical_core():
    # brute-force density-matrix oracle, 1000 random cases at 1e-12
    rng = np.random.default_rng(700)
    unit = DecayModel(1.0, 1.0)
    for _ in range(1000):
        p = rng.uniform(0, 1)
        ths, thas = rng.uniform(-180, 180, size=2)
        sp = SourceParams(chi=0.02, werner_p0=p, p_noise=0.0)
        got = coincidence_probabilities(sp, unit, 0.0, 1.0,
                                        MeasurementSettings(ths, thas))
        assert tuple(got) == pytest.approx(
            joint_projection_oracle(p, ths, thas), abs=1e-12)

    # MC vs analytic at 3 sigma across 20 random parameter sets,
    # >= 1e6 heralds per angle setting. Seeds are frozen: with 160
    # three-sigma comparisons a fresh draw would trip ~once in three runs
    # by chance alone, so the suite certifies one fixed, reproducible draw
    # (worst |z| for this family is 2.58).
    cfg = SequenceConfig()
    for k in range(20):
        prng = np.random.default_rng(7000 + k)
        sp = SourceParams(chi=float(prng.uniform(0.3, 0.7)),
                          werner_p0=float(prng.uniform(0.4, 1.0)),
                          vis_tau_gauss=float(10 ** prng.uniform(-3.5, -2)),
                          vis_tau_exp=float(10 ** prng.uniform(-3.5, -2)),
                          p_noise=float(prng.uniform(0, 2e-4)))
        dm = DecayModel(float(prng.uniform(0.4, 1.0)),
                        float(10 ** prng.uniform(-3.5, -2.5)))
        write_eta = float(prng.uniform(0.7, 1.0))
        read_eta = float(prng.uniform(0.3, 0.9))
        # storage spanning up to ~25 trial slots exercises the blocking
        # path; the millisecond regime is criterion 4's territory
        t = float(prng.uniform(0, 5e-5))
        cfg_t = cfg.with_storage_time(t)
        p_herald = sp.chi * write_eta
        blocking = 1.0 + p_herald * cfg_t.herald_skip_slots
        n_cycles = math.ceil(1.05e6 * blocking
                             / (p_herald * cfg_t.trials_per_run))
        seed = SeedSpec(42000 + k)

        # CHSH settings: E per setting and the Bell parameter
        counts = []
        for j, setting in enumerate(CANONICAL_SETTINGS):
            res = run_trials(cfg_t, sp, dm, write_eta, read_eta, setting,
                             n_cycles, seed.child(j), n_workers=2)
            assert res.counts.s1 + res.counts.s2 >= 1e6
            counts.append(res.counts)
        errs = bootstrap_errors(counts, 400, seed.child(50))
        e_an = []
        for setting, c, e_err in zip(CANONICAL_SETTINGS, counts, errs.e):
            pj = coincidence_probabilities(sp, dm, t, read_eta, setting)
            e_a = (pj.p13 + pj.p24 - pj.p14 - pj.p23) / pj.total
            assert abs(correlation_E(c) - e_a) <= 3 * e_err, f"set {k}"
            e_an.append(e_a)
        s_mc = bell_parameter(*[correlation_E(c) for c in counts])
        s_an = bell_parameter(*e_an)
        assert abs(s_mc - s_an) <= 3 * errs.s_bell, f"set {k}"

        # retrieval estimators at aligned angles
        res0 = run_trials(cfg_t, sp, dm, write_eta, read_eta,
                          MeasurementSettings(0, 0), n_cycles,
                          seed.child(9), n_workers=2)
        est = estimate_intrinsic_retrieval(res0.counts, read_eta)
        p0j = coincidence_probabilities(sp, dm, t, read_eta,
                                        MeasurementSettings(0, 0))
        r_qu_an = (p0j.p13 + p0j.p24) / read_eta
        r_l_an = 2 * p0j.p13 / read_eta
        r_r_an = 2 * p0j.p24 / read_eta
        rerr = bootstrap_errors(res0.counts, 400, seed.child(51),
                                eta_td=read_eta)
        assert abs(est.qubit.value - r_qu_an) <= 3 * rerr.r_qu, f"set {k}"
        assert abs(est.left.value - r_l_an) <= 3 * rerr.r_l, f"set {k}"
        assert abs(est.right.value - r_r_an) <= 3 * rerr.r_r, f"set {k}"


def _run_cli_bytes(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli_main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_criterion_8_determinism(tmp_path):
    runs = {
        "efficiency": ["efficiency", "--t-ms", "0,0.3,1.0", "--montecarlo",
                       "--trials", "40000", "--seed", "8"],
        "bell": ["bell", "--t-ms", "0,0.6", "--mode", "montecarlo",
                 "--trials", "200000", "--seed", "8"],
        "repeater": ["repeater", "--points", "40", "--l-min-km", "20",
                     "--l-max-km", "1500"],
        "simulate": ["simulate", "--seconds", "0.3", "--seed", "8"],
    }
    for name, argv in runs.items():
        a = _run_cli_bytes(tmp_path, name + "_a", list(argv))
        b = _run_cli_bytes(tmp_path, name + "_b", list(argv))
        assert a == b, f"{name} output not byte-identical"

    # calibrate twice from the same CSV
    data = tmp_path / "bell.csv"
    data.write_text("t_s,value,sigma\n0,2.5,0.02\n0.00115,2.05,0.03\n"
                    "0.0026,1.15,0.03\n")
    cal_argv = ["calibrate", "--data", str(data), "--which", "bell"]
    a = _run_cli_bytes(tmp_path, "cal_a", list(cal_argv))
    b = _run_cli_bytes(tmp_path, "cal_b", list(cal_argv))
    assert a == b

    # Monte Carlo results invariant to worker count
    for w in ("1", "3", "8"):
        out = _run_cli_bytes(tmp_path, f"sim_w{w}",
                             ["simulate", "--seconds", "0.5", "--seed", "9",
                              "--workers", w])
        if w == "1":
            ref = out
        assert out == ref
    sp = default_source_params(chi=0.05)
    dm = default_decay_model()
    results = [run_trials(SequenceConfig(), sp, dm, 0.5, 0.5,
                          MeasurementSettings(45, 22.5), 25, SeedSpec(88),
                          n_workers=w).counts for w in (1, 2, 7)]
    assert results[1] == results[0] and results[2] == results[0]
