import math
import warnings

import numpy as np
import pytest

from dlczsim.errors import InsufficientStatisticsError
from dlczsim.model import (
    CANONICAL_SETTINGS,
    CavityParams,
    CoincidenceCounts,
    DecayModel,
    DetectionChain,
    MeasurementSettings,
    SourceParams,
    TSIRELSON_BOUND,
    bell_parameter,
    cavity_fsr,
    coincidence_probabilities,
    correlation_E,
    escape_efficiency,
    estimate_intrinsic_retrieval,
    expected_bell,
    expected_correlation,
    fidelity_from_bell,
    retrieval_efficiency,
    total_detection_efficiency,
    visibility,
    werner_joint_projections,
)

from oracles import (
    decay_oracle,
    escape_oracle,
    joint_projection_oracle,
)

DM = DecayModel(r0=0.77, tau0=1e-3)


def ideal_source(**kw):
    base = dict(chi=0.02, werner_p0=1.0, p_noise=0.0)
    base.update(kw)
    return SourceParams(**base)


class TestRetrievalEfficiency:
    def test_zero_delay_returns_amplitude(self):
        assert retrieval_efficiency(0.0, DM) == pytest.approx(0.77, abs=1e-15)

    def test_paper_anchor_230us(self):
        assert retrieval_efficiency(0.23e-3, DM) == pytest.approx(0.667, abs=0.005)

    def test_paper_anchor_540us_against_decimal_oracle(self):
        got = retrieval_efficiency(0.54e-3, DM)
        want = float(decay_oracle(0.54e-3, 0.77, 1e-3))
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(0.512, abs=0.005)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            retrieval_efficiency(-1e-6, DM)

    @pytest.mark.parametrize("t, tau0", [(1e-3, 1e-323), (1e197, 1e-203)])
    def test_ratio_past_the_largest_float_reads_zero(self, t, tau0):
        # t / tau0 overflows to inf, whose exp(-inf) is 0: no warning
        model = DecayModel(r0=0.77, tau0=tau0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert retrieval_efficiency(t, model) == 0.0
            assert retrieval_efficiency(0.0, model) == 0.77

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 1e-4, 2e-3])
        vec = retrieval_efficiency(ts, DM)
        assert vec.shape == (3,)
        for t, v in zip(ts, vec):
            assert retrieval_efficiency(float(t), DM) == v

    def test_monotone_and_bounded_random_models(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            m = DecayModel(r0=rng.uniform(0.05, 1.0),
                           tau0=10 ** rng.uniform(-5, 0))
            ts = np.sort(rng.uniform(0, 5 * m.tau0, size=40))
            vals = retrieval_efficiency(ts, m)
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all(vals >= 0.0) and np.all(vals <= m.r0 + 1e-15)


class TestDetectionChain:
    def test_escape_paper_value(self):
        assert escape_efficiency(DetectionChain(0.20, 0.13, 1, 1, 1, 1)) == \
            pytest.approx(0.606, abs=5e-4)

    def test_escape_lossless(self):
        assert escape_efficiency(DetectionChain(0.20, 0.0, 1, 1, 1, 1)) == 1.0

    def test_escape_low_loss_against_decimal_oracle(self):
        got = escape_efficiency(DetectionChain(0.20, 0.005, 1, 1, 1, 1))
        assert got == pytest.approx(float(escape_oracle(0.20, 0.005)), abs=1e-15)
        assert got == pytest.approx(0.9756, abs=1e-4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            DetectionChain(0.0, 0.0, 1, 1, 1, 1)

    def test_total_efficiency_experimental_chain(self):
        chain = DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68)
        assert total_detection_efficiency(chain) == pytest.approx(0.150, abs=0.003)

    def test_total_efficiency_perfect_chain(self):
        assert total_detection_efficiency(
            DetectionChain(0.37, 0.0, 1, 1, 1, 1)) == 1.0

    def test_total_efficiency_improved_chain(self):
        chain = DetectionChain(0.20, 0.005, 0.99, 0.98, 0.99, 0.95)
        assert total_detection_efficiency(chain) == pytest.approx(0.90, abs=0.01)

    def test_frequency_conversion_factor(self):
        with_fc = DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68, eta_fc=0.33)
        without = DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68)
        assert total_detection_efficiency(with_fc) == pytest.approx(
            0.33 * total_detection_efficiency(without), rel=1e-12)


class TestCoincidenceProbabilities:
    def test_ideal_aligned_angles(self):
        p = coincidence_probabilities(ideal_source(), DecayModel(1.0, 1.0),
                                      0.0, 1.0, MeasurementSettings(0, 0))
        assert p.p13 == pytest.approx(0.5, abs=1e-15)
        assert p.p24 == pytest.approx(0.5, abs=1e-15)
        assert p.p14 == pytest.approx(0.0, abs=1e-15)
        assert p.p23 == pytest.approx(0.0, abs=1e-15)

    def test_ideal_45_degrees_frozen_oracle_value(self):
        # The density-matrix oracle gives 1/4 per outcome: with the stored
        # excitation always retrieved and detected the four outcomes are
        # exhaustive, so they sum to 1 (as in the aligned-angle case above).
        w = joint_projection_oracle(1.0, 0.0, 45.0)
        assert w == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-14)
        p = coincidence_probabilities(ideal_source(), DecayModel(1.0, 1.0),
                                      0.0, 1.0, MeasurementSettings(0, 45))
        assert tuple(p) == pytest.approx((0.25,) * 4, abs=1e-14)

    def test_fully_mixed_state_isotropic(self):
        sp = ideal_source(werner_p0=0.0)
        for th in ((0, 0), (13, 77), (45, 22.5)):
            p = coincidence_probabilities(sp, DecayModel(1.0, 1.0), 0.0, 1.0,
                                          MeasurementSettings(*th))
            assert tuple(p) == pytest.approx((0.25,) * 4, abs=1e-14)
            assert joint_projection_oracle(0.0, *th) == pytest.approx(
                (0.25,) * 4, abs=1e-14)

    def test_matches_density_matrix_oracle_on_1000_random_triples(self):
        rng = np.random.default_rng(202)
        dm = DecayModel(1.0, 1.0)
        for _ in range(1000):
            p = rng.uniform(0, 1)
            ths = rng.uniform(-180, 180)
            thas = rng.uniform(-180, 180)
            sp = ideal_source(werner_p0=p)
            got = coincidence_probabilities(sp, dm, 0.0, 1.0,
                                            MeasurementSettings(ths, thas))
            want = joint_projection_oracle(p, ths, thas)
            assert tuple(got) == pytest.approx(want, abs=1e-12)

    def test_phase_rotation_matches_oracle(self):
        rng = np.random.default_rng(303)
        dm = DecayModel(1.0, 1.0)
        for _ in range(200):
            p = rng.uniform(0, 1)
            gamma = rng.uniform(0, 2 * np.pi)
            ths, thas = rng.uniform(-90, 90, size=2)
            sp = ideal_source(werner_p0=p, phase_write=gamma)
            got = coincidence_probabilities(sp, dm, 0.0, 1.0,
                                            MeasurementSettings(ths, thas))
            want = joint_projection_oracle(p, ths, thas, gamma)
            assert tuple(got) == pytest.approx(want, abs=1e-12)

    def test_outputs_bounded_and_e_within_visibility(self):
        rng = np.random.default_rng(404)
        for _ in range(300):
            sp = SourceParams(chi=rng.uniform(0, 0.5),
                              werner_p0=rng.uniform(0, 1),
                              vis_tau_gauss=10 ** rng.uniform(-4, 0),
                              vis_tau_exp=10 ** rng.uniform(-4, 0),
                              p_noise=rng.uniform(0, 0.5))
            dm = DecayModel(rng.uniform(0.1, 1.0), 10 ** rng.uniform(-4, -2))
            t = rng.uniform(0, 5e-3)
            eta = rng.uniform(0.01, 1.0)
            set_ = MeasurementSettings(rng.uniform(0, 180), rng.uniform(0, 180))
            p = coincidence_probabilities(sp, dm, t, eta, set_)
            assert all(0.0 <= v <= 1.0 for v in p)
            assert p.total <= retrieval_efficiency(t, dm) * eta + sp.p_noise + 1e-12
            e = expected_correlation(sp, dm, t, eta, set_)
            assert abs(e) <= visibility(sp, t) + 1e-12

    def test_angle_periodicity_180_degrees(self):
        rng = np.random.default_rng(505)
        sp = ideal_source(werner_p0=0.7, p_noise=1e-3)
        for _ in range(100):
            ths, thas = rng.uniform(0, 360, size=2)
            a = coincidence_probabilities(sp, DM, 1e-4, 0.3,
                                          MeasurementSettings(ths, thas))
            b = coincidence_probabilities(sp, DM, 1e-4, 0.3,
                                          MeasurementSettings(ths + 180, thas))
            c = coincidence_probabilities(sp, DM, 1e-4, 0.3,
                                          MeasurementSettings(ths, thas + 180))
            assert tuple(a) == pytest.approx(tuple(b), abs=1e-12)
            assert tuple(a) == pytest.approx(tuple(c), abs=1e-12)


class TestCorrelationAndBell:
    def test_perfect_correlation(self):
        assert correlation_E(CoincidenceCounts(10, 0, 0, 10, 10, 10, 100)) == 1.0

    def test_perfect_anticorrelation(self):
        assert correlation_E(CoincidenceCounts(0, 10, 10, 0, 10, 10, 100)) == -1.0

    def test_arithmetic_oracle_value(self):
        counts = CoincidenceCounts(853, 147, 147, 853, 1000, 1000, 4000)
        assert correlation_E(counts) == pytest.approx(0.706, abs=1e-12)

    def test_all_zero_coincidences_raises(self):
        with pytest.raises(InsufficientStatisticsError):
            correlation_E(CoincidenceCounts(0, 0, 0, 0, 5, 5, 100))

    def test_ideal_state_saturates_tsirelson(self):
        s = expected_bell(ideal_source(), DecayModel(1.0, 1.0), 0.0, 1.0)
        assert s == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_werner_0884_bell_value(self):
        sp = ideal_source(werner_p0=0.884)
        s = expected_bell(sp, DecayModel(1.0, 1.0), 0.0, 1.0)
        assert s == pytest.approx(TSIRELSON_BOUND * 0.884, abs=1e-12)
        assert s == pytest.approx(2.5, abs=0.001)

    def test_arrays_of_times_match_scalar_calls(self):
        sp = SourceParams(chi=0.02, werner_p0=0.9, vis_tau_gauss=2e-3,
                          vis_tau_exp=6e-3, p_noise=1e-3, phase_read=0.3)
        ts = [0.0, 1e-4, 1.15e-3, 2.6e-3, 1e-2]
        setting = MeasurementSettings(10.0, 30.0)
        assert visibility(sp, np.array(ts)).tolist() == [
            visibility(sp, t) for t in ts]
        assert expected_correlation(sp, DM, np.array(ts), 0.15,
                                    setting).tolist() == [
            expected_correlation(sp, DM, t, 0.15, setting) for t in ts]
        assert expected_bell(sp, DM, np.array(ts), 0.15).tolist() == [
            expected_bell(sp, DM, t, 0.15) for t in ts]

    def test_zero_probability_names_the_storage_time(self):
        # no retrieval and no background: no coincidence at any time
        with pytest.raises(InsufficientStatisticsError,
                           match="storage time 0.001 s: model assigns zero"):
            expected_bell(ideal_source(), DecayModel(0.0, 1e-3),
                          np.array([1e-3, 2e-3]), 0.5)

    def test_zero_correlations(self):
        assert bell_parameter(0, 0, 0, 0) == 0.0

    def test_out_of_range_correlation_rejected(self):
        with pytest.raises(ValueError):
            bell_parameter(1.5, 0, 0, 0)

    def test_tsirelson_bound_over_random_models(self):
        rng = np.random.default_rng(606)
        for _ in range(300):
            sp = SourceParams(chi=0.02, werner_p0=rng.uniform(0, 1),
                              vis_tau_gauss=10 ** rng.uniform(-4, 0),
                              vis_tau_exp=10 ** rng.uniform(-4, 0),
                              p_noise=rng.uniform(0, 0.1),
                              phase_write=rng.uniform(0, 2 * np.pi))
            dm = DecayModel(rng.uniform(0.1, 1.0), 10 ** rng.uniform(-4, -2))
            s = expected_bell(sp, dm, rng.uniform(0, 3e-3), rng.uniform(0.05, 1))
            assert s <= TSIRELSON_BOUND + 1e-9


class TestFidelity:
    def test_pure_bell_state(self):
        assert fidelity_from_bell(TSIRELSON_BOUND) == pytest.approx(1.0, abs=1e-12)

    def test_paper_value(self):
        assert fidelity_from_bell(1.15) == pytest.approx(0.555, abs=0.005)

    def test_werner_relation_frozen_value(self):
        assert fidelity_from_bell(2.5) == pytest.approx(0.9129126073623882,
                                                        abs=1e-12)

    def test_above_tsirelson_rejected(self):
        with pytest.raises(ValueError):
            fidelity_from_bell(2.9)

    def test_round_trip_identity_on_fidelity_range(self):
        for f in np.linspace(0.25, 1.0, 101):
            p = (4.0 * f - 1.0) / 3.0
            s = TSIRELSON_BOUND * p
            assert fidelity_from_bell(s) == pytest.approx(f, abs=1e-12)


class TestIntrinsicRetrieval:
    def test_saturation_case(self):
        counts = CoincidenceCounts(75, 0, 0, 75, 500, 500, 10000)
        est = estimate_intrinsic_retrieval(counts, 0.15)
        assert est.qubit.value == pytest.approx(1.0, abs=1e-12)
        assert est.left.value == pytest.approx(1.0, abs=1e-12)
        assert est.right.value == pytest.approx(1.0, abs=1e-12)

    def test_arithmetic_oracle_077(self):
        counts = CoincidenceCounts(58, 0, 0, 58, 500, 500, 10000)
        est = estimate_intrinsic_retrieval(counts, 0.15)
        want = 58 / (0.15 * 500)
        assert est.left.value == pytest.approx(want, rel=1e-12)
        assert est.qubit.value == pytest.approx(0.773, abs=5e-4)

    def test_zero_coincidences_finite_errors(self):
        counts = CoincidenceCounts(0, 0, 0, 0, 500, 500, 10000)
        est = estimate_intrinsic_retrieval(counts, 0.15)
        assert est.qubit.value == 0.0
        assert 0.0 < est.qubit.error < math.inf
        assert 0.0 < est.left.error < math.inf

    def test_zero_singles_raises(self):
        with pytest.raises(InsufficientStatisticsError):
            estimate_intrinsic_retrieval(
                CoincidenceCounts(0, 0, 0, 0, 0, 0, 10), 0.15)

    @pytest.mark.parametrize("eta_td", [0.0, -0.5, 2.0, math.nan])
    def test_eta_td_outside_unit_interval_raises(self, eta_td):
        with pytest.raises(ValueError, match="eta_td"):
            estimate_intrinsic_retrieval(
                CoincidenceCounts(50, 5, 4, 60, 200, 210, 5000), eta_td)

    def test_scale_invariance_errors_shrink_sqrt_k(self):
        rng = np.random.default_rng(707)
        for _ in range(50):
            s1, s2 = rng.integers(50, 5000, size=2)
            c13 = int(rng.integers(1, s1 // 2))
            c24 = int(rng.integers(1, s2 // 2))
            counts = CoincidenceCounts(c13, 0, 0, c24, int(s1), int(s2),
                                       int(s1 + s2))
            k = int(rng.integers(2, 50))
            a = estimate_intrinsic_retrieval(counts, 0.15)
            b = estimate_intrinsic_retrieval(counts.scaled(k), 0.15)
            for x, y in ((a.qubit, b.qubit), (a.left, b.left), (a.right, b.right)):
                assert y.value == pytest.approx(x.value, rel=1e-12)
                assert y.error == pytest.approx(x.error / math.sqrt(k), rel=1e-9)


class TestCavity:
    def test_paper_fsr(self):
        assert cavity_fsr(CavityParams(6.0)) == pytest.approx(49.97e6, rel=1e-3)

    def test_half_length(self):
        assert cavity_fsr(CavityParams(3.0)) == pytest.approx(99.93e6, rel=1e-3)

    def test_inverse_proportionality(self):
        assert cavity_fsr(CavityParams(12.0)) == pytest.approx(
            cavity_fsr(CavityParams(6.0)) / 2.0, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, -1e-9])
    @pytest.mark.parametrize("decay", [
        lambda t: retrieval_efficiency(t, DM),
        lambda t: visibility(ideal_source(), t)],
        ids=["retrieval_efficiency", "visibility"])
    def test_time_not_finite_and_nonnegative_rejected(self, decay, t):
        # both decay curves check their storage times alike, as scalars
        # and inside arrays
        for arg in (t, np.array([0.0, t])):
            with pytest.raises(ValueError, match="finite and >= 0"):
                decay(arg)

    def test_phases_reduced_modulo_2pi(self):
        sp = SourceParams(chi=0.01, phase_write=5 * math.pi)
        assert sp.phase_write == pytest.approx(math.pi, abs=1e-12)

    def test_chi_bounds(self):
        with pytest.raises(ValueError):
            SourceParams(chi=1.0)
        with pytest.raises(ValueError):
            SourceParams(chi=-0.1)
        SourceParams(chi=0.0)  # source off is legal

    def test_counts_invariants(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(6, 5, 0, 0, 10, 0, 100)  # c13+c14 > s1
        with pytest.raises(ValueError):
            CoincidenceCounts(0, 0, 0, 0, 60, 50, 100)  # s1+s2 > n_trials

    def test_werner_projection_sums_to_one(self):
        rng = np.random.default_rng(808)
        for _ in range(100):
            w = werner_joint_projections(rng.uniform(0, 1),
                                         MeasurementSettings(
                                             rng.uniform(0, 360),
                                             rng.uniform(0, 360)),
                                         rng.uniform(0, 2 * np.pi))
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_settings_are_the_chsh_set(self):
        assert [(s.theta_s, s.theta_as) for s in CANONICAL_SETTINGS] == \
            [(0.0, 22.5), (0.0, 67.5), (45.0, 22.5), (45.0, 67.5)]
