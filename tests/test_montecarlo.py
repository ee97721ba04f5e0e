import concurrent.futures
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlczsim import _kernels, montecarlo
from dlczsim.errors import InsufficientStatisticsError
from dlczsim.model import (
    CANONICAL_SETTINGS,
    CoincidenceCounts,
    DecayModel,
    MeasurementSettings,
    SourceParams,
    bell_parameter,
    coincidence_probabilities,
    correlation_E,
    estimate_intrinsic_retrieval,
    expected_bell,
    expected_correlation,
    readout_law,
)
from dlczsim.montecarlo import (
    SeedSpec,
    SequenceConfig,
    bell_sweep,
    bootstrap_errors,
    retrieval_sweep,
    run_trials,
)
from oracles import (
    counts_from_rows,
    trial_records_oracle,
    write_record_dump_reference,
)

DM = DecayModel(0.77, 1e-3)
CFG = SequenceConfig()


def calibrated_source(chi=0.02):
    return SourceParams(chi=chi, werner_p0=0.887, vis_tau_gauss=2.29e-3,
                        vis_tau_exp=6.6e-3, p_noise=1e-4)


class TestSequenceConfig:
    def test_default_slot_arithmetic(self):
        assert CFG.trials_per_run == 4000
        assert CFG.cycle_duration == pytest.approx(50e-3)
        assert CFG.herald_skip_slots == 0

    def test_skip_slots_for_long_storage(self):
        assert CFG.with_storage_time(2.6e-3).herald_skip_slots == 1300
        assert CFG.with_storage_time(1.15e-3).herald_skip_slots == 575
        assert CFG.with_storage_time(1.9e-6).herald_skip_slots == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceConfig(trial_period=100e-9)  # shorter than write pulse
        with pytest.raises(ValueError):
            SequenceConfig(run_duration=-1.0)

    def test_slot_count_past_the_largest_float_is_refused(self):
        # each duration is finite, but the run holds over 1e308 slots
        with pytest.raises(ValueError, match="run_duration"):
            SequenceConfig(run_duration=1e300, write_pulse=1e-309,
                           trial_period=1e-309)

    def test_slots_per_run_are_bounded(self):
        top = montecarlo.MAX_SLOTS_PER_RUN
        assert SequenceConfig(run_duration=top * 2e-6).trials_per_run == top
        with pytest.raises(ValueError, match=f"run_duration must hold 1 to "
                                             f"{top} trial_periods"):
            SequenceConfig(run_duration=(top + 1) * 2e-6)

    @pytest.mark.parametrize("storage_time", [9e-3, 1e305])
    def test_skip_slots_stop_at_the_end_of_the_run(self, storage_time):
        # past the run, and past the largest float in slots at 1e305 s
        assert CFG.with_storage_time(storage_time).herald_skip_slots == 4000


class TestRunTrials:
    def test_one_second_is_80000_trials(self):
        res = run_trials(CFG, calibrated_source(), DM, 0.15, 0.15,
                         MeasurementSettings(0, 0), 20, SeedSpec(11))
        assert res.n_trials == 80000

    def test_chi_zero_means_no_heralds(self):
        sp = SourceParams(chi=0.0)
        res = run_trials(CFG, sp, DM, 0.15, 0.15, MeasurementSettings(0, 0),
                         5, SeedSpec(3))
        c = res.counts
        assert (c.s1, c.s2, c.coincidences) == (0, 0, 0)
        assert res.n_trials == 20000

    def test_determinism_same_seed(self):
        a = run_trials(CFG, calibrated_source(), DM, 0.15, 0.15,
                       MeasurementSettings(0, 22.5), 30, SeedSpec(99))
        b = run_trials(CFG, calibrated_source(), DM, 0.15, 0.15,
                       MeasurementSettings(0, 22.5), 30, SeedSpec(99))
        assert a.counts == b.counts

    def test_worker_count_invariance(self):
        kw = dict(cfg=CFG, sp=calibrated_source(0.05), dm=DM, write_eta=0.3,
                  read_eta=0.3, settings=MeasurementSettings(45, 22.5),
                  n_cycles=37, seed=SeedSpec(1234))
        results = [run_trials(n_workers=w, **kw).counts for w in (1, 2, 5, 16)]
        assert all(r == results[0] for r in results[1:])

    def test_herald_accounting_identity(self):
        # s1+s2 equals heralded trials; R_qu is the herald-weighted mean of
        # R_L and R_R on every dataset
        res = run_trials(CFG, calibrated_source(0.1), DM, 0.5, 0.5,
                         MeasurementSettings(0, 0), 20, SeedSpec(5))
        c = res.counts
        assert c.s1 + c.s2 <= res.n_trials
        est = estimate_intrinsic_retrieval(c, 0.5)
        weighted = (c.s1 * est.left.value + c.s2 * est.right.value) / (c.s1 + c.s2)
        assert est.qubit.value == pytest.approx(weighted, rel=1e-12)

    def test_long_storage_blocks_write_slots(self):
        cfg = CFG.with_storage_time(2.6e-3)
        res = run_trials(cfg, calibrated_source(0.1), DM, 0.5, 0.5,
                         MeasurementSettings(0, 0), 10, SeedSpec(8))
        heralds = res.counts.s1 + res.counts.s2
        assert heralds > 0
        assert res.n_blocked_slots > 0
        assert res.n_trials + res.n_blocked_slots == 10 * 4000
        # every blocked window is at most the skip length per herald
        assert res.n_blocked_slots <= heralds * cfg.herald_skip_slots

    def test_rejects_unphysical_inputs_before_running(self):
        with pytest.raises(ValueError):
            run_trials(CFG, calibrated_source(), DM, 1.5, 0.15,
                       MeasurementSettings(0, 0), 1, SeedSpec(0))
        with pytest.raises(ValueError):
            run_trials(CFG, calibrated_source(), DM, 0.15, 0.15,
                       MeasurementSettings(0, 0), 0, SeedSpec(0))

    @pytest.mark.parametrize("n_cycles", [2 ** 63 // 4000 + 1, 2 ** 80])
    def test_slots_past_int64_are_refused_before_running(self, n_cycles,
                                                         monkeypatch):
        # the sampler counts a run's slots in int64: 2**63 // 4000 cycles
        # of 4000 slots are the most it can count
        def refuse(*args, **kwargs):
            raise AssertionError("a run past int64 started")

        monkeypatch.setattr(_kernels, "count_runs", refuse)
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            run_trials(CFG, calibrated_source(), DM, 0.15, 0.15,
                       MeasurementSettings(0, 0), n_cycles, SeedSpec(0))
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            bell_sweep([0.0], CFG, calibrated_source(), DM, 0.15, 0.15,
                       n_cycles, SeedSpec(0))


class TestEstimatorConsistency:
    def test_retrieval_estimator_tracks_decay_curve(self):
        # ideal polarization: the qubit estimator measures R(t) directly
        sp = SourceParams(chi=0.3, werner_p0=1.0, p_noise=0.0)
        for t, seed in ((0.0, 21), (0.23e-3, 22), (0.54e-3, 23)):
            res = run_trials(CFG.with_storage_time(t), sp, DM, 1.0, 0.5,
                             MeasurementSettings(0, 0), 500, SeedSpec(seed))
            est = estimate_intrinsic_retrieval(res.counts, 0.5)
            want = float(np.asarray(
                coincidence_probabilities(sp, DM, t, 0.5,
                                          MeasurementSettings(0, 0)).total)) / 0.5
            assert abs(est.qubit.value - want) < 3 * est.qubit.error

    def test_correlation_matches_analytic_3_sigma(self):
        sp = calibrated_source(0.4)
        setting = MeasurementSettings(45, 22.5)
        res = run_trials(CFG, sp, DM, 1.0, 0.6, setting, 600, SeedSpec(31))
        e_mc = correlation_E(res.counts)
        e_an = expected_correlation(sp, DM, CFG.storage_time, 0.6, setting)
        err = bootstrap_errors(res.counts, 400, SeedSpec(32)).e
        assert abs(e_mc - e_an) < 3 * err

    def test_bell_matches_analytic_3_sigma(self):
        sp = calibrated_source(0.4)
        counts = []
        for j, setting in enumerate(CANONICAL_SETTINGS):
            res = run_trials(CFG, sp, DM, 1.0, 0.6, setting, 400,
                             SeedSpec(40).child(j))
            counts.append(res.counts)
        s_mc = bell_parameter(*[correlation_E(c) for c in counts])
        s_an = expected_bell(sp, DM, CFG.storage_time, 0.6)
        err = bootstrap_errors(counts, 400, SeedSpec(41)).s_bell
        assert abs(s_mc - s_an) < 3 * err


class TestBootstrap:
    def test_errors_shrink_with_counts(self):
        base = CoincidenceCounts(900, 90, 110, 880, 2000, 2000, 100000)
        small = bootstrap_errors(base, 600, SeedSpec(7), eta_td=0.15)
        big = bootstrap_errors(base.scaled(100), 600, SeedSpec(7), eta_td=0.15)
        for a, b in ((small.e, big.e), (small.r_qu, big.r_qu),
                     (small.r_l, big.r_l)):
            assert b == pytest.approx(a / 10.0, rel=0.2)

    def test_bell_error_scale_matches_paper_order(self):
        # counts of the magnitude behind S = 2.5 +/- 0.02: the resampled
        # sigma must come out the same order as 0.02
        e_target = 2.5 / (2 * math.sqrt(2))
        counts = []
        for _ in range(4):
            n = 6000
            same = int(round(n * (1 + e_target) / 4))
            cross = int(round(n * (1 - e_target) / 4))
            counts.append(CoincidenceCounts(same, cross, cross, same,
                                            n, n, 10 * n))
        err = bootstrap_errors(counts, 800, SeedSpec(13)).s_bell
        assert 0.005 < err < 0.08

    def test_degenerate_single_zero_count_is_fine(self):
        counts = CoincidenceCounts(0, 500, 480, 510, 2000, 2000, 100000)
        err = bootstrap_errors(counts, 300, SeedSpec(3))
        assert np.isfinite(err.e) and err.e > 0

    def test_all_zero_counts_exhausts_redraws(self):
        counts = CoincidenceCounts(0, 0, 0, 0, 10, 10, 100)
        with pytest.raises(InsufficientStatisticsError):
            bootstrap_errors(counts, 100, SeedSpec(3))

    def test_deterministic_under_seed(self):
        counts = CoincidenceCounts(50, 5, 4, 60, 200, 210, 5000)
        a = bootstrap_errors(counts, 300, SeedSpec(77), eta_td=0.2)
        b = bootstrap_errors(counts, 300, SeedSpec(77), eta_td=0.2)
        assert a == b

    @pytest.mark.parametrize("eta_td", [0.0, -0.5, 2.0, math.nan])
    def test_eta_td_outside_unit_interval_is_refused(self, eta_td):
        counts = CoincidenceCounts(50, 5, 4, 60, 200, 210, 5000)
        with pytest.raises(ValueError, match="eta_td"):
            bootstrap_errors(counts, 100, SeedSpec(5), eta_td=eta_td)

    def test_eta_td_is_refused_for_four_settings(self):
        counts = [CoincidenceCounts(50, 5, 4, 60, 200, 210, 5000)] * 4
        with pytest.raises(ValueError, match="eta_td"):
            bootstrap_errors(counts, 100, SeedSpec(5), eta_td=0.2)

    def test_singles_are_drawn_without_eta_td(self):
        # a single set resamples its singles either way, so with singles
        # too large for a redraw eta_td leaves the E error as it is
        counts = CoincidenceCounts(50, 5, 4, 60, 2000, 2100, 50000)
        plain = bootstrap_errors(counts, 300, SeedSpec(9))
        assert plain.r_qu is None
        assert bootstrap_errors(counts, 300, SeedSpec(9), eta_td=0.5).e == \
            plain.e

    def test_resample_count_floor(self):
        with pytest.raises(ValueError):
            bootstrap_errors(CoincidenceCounts(5, 5, 5, 5, 20, 20, 100), 50,
                             SeedSpec(1))


class TestSweep:
    # ideal polarization so the retrieval estimator measures R(t)
    IDEAL = SourceParams(chi=0.3, werner_p0=1.0, p_noise=0.0)

    def test_rows_track_decay_and_bell(self):
        ests = retrieval_sweep([0.0, 0.23e-3, 0.54e-3], CFG, self.IDEAL, DM,
                               1.0, 0.5, 400, SeedSpec(50))
        for est, want in zip(ests, (0.77, 0.671, 0.512)):
            assert abs(est.qubit.value - want) < 4 * est.qubit.error
        # with p = 1 the Bell parameter sits at the Tsirelson bound
        (s,) = bell_sweep([0.0], CFG, self.IDEAL, DM, 1.0, 0.5, 400,
                          SeedSpec(50), n_resamples=200)
        assert s.value == pytest.approx(2 * math.sqrt(2),
                                        abs=4 * s.error + 0.05)

    @pytest.mark.parametrize("sweep", [retrieval_sweep, bell_sweep])
    def test_dropping_a_point_keeps_the_others(self, sweep):
        ts = [0.0, 0.1e-3, 0.3e-3]
        args = (CFG, calibrated_source(0.3), DM, 1.0, 0.5, 30, SeedSpec(52))
        assert sweep(ts[:2], *args) == sweep(ts, *args)[:2]

    @pytest.mark.parametrize("sweep", [retrieval_sweep, bell_sweep])
    def test_point_without_counts_names_its_storage_time(self, sweep):
        with pytest.raises(InsufficientStatisticsError, match="0.00054 s"):
            sweep([0.54e-3], CFG, SourceParams(chi=0.0), DM, 0.15, 0.15, 2,
                  SeedSpec(0))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t, chi", [
        (0.0, 0.3),     # no blocking: the full path
        (24e-6, 0.5),   # 12 blocked slots at p_herald 0.49
        (0.6e-3, 0.003)])  # 300 blocked slots: the scan
    def test_bell_point_is_its_four_runs(self, t, chi, workers):
        # a point's runs count as one-run kernel calls on the same seeds:
        # the four settings of a Bell point, sampled in one call, and each
        # point of the retrieval sweep
        sp = calibrated_source(chi)
        cfg = CFG.with_storage_time(t)
        n_cycles = 60

        def kernel_counts(seed, setting):
            (row,) = _kernels.count_runs(
                [seed.master_seed], 0, n_cycles, cfg.trials_per_run,
                sp.chi * 0.98, [readout_law(sp, DM, t, 0.5, setting).a],
                sp.p_noise, cfg.herald_skip_slots)
            return CoincidenceCounts(*row[:7].tolist())

        (s,) = bell_sweep([t], CFG, sp, DM, 0.98, 0.5, n_cycles,
                          SeedSpec(53), n_resamples=100, n_workers=workers)
        counts = [kernel_counts(SeedSpec(53).child(0, j), setting)
                  for j, setting in enumerate(CANONICAL_SETTINGS)]
        errs = bootstrap_errors(counts, 100, SeedSpec(53).child(0, 9))
        assert s.value == bell_parameter(*map(correlation_E, counts))
        assert s.error == errs.s_bell

        ests = retrieval_sweep([t, t], CFG, sp, DM, 0.98, 0.5, n_cycles,
                               SeedSpec(53), n_workers=workers)
        assert ests == [estimate_intrinsic_retrieval(
            kernel_counts(SeedSpec(53).child(i), MeasurementSettings(0, 0)),
            0.5) for i in range(2)]
        assert ests[0] != ests[1]

    def test_empty_grid_rejected(self):
        for sweep in (retrieval_sweep, bell_sweep):
            with pytest.raises(ValueError):
                sweep([], CFG, calibrated_source(), DM, 0.15, 0.15, 10,
                      SeedSpec(0))


def _dumped(**kw):
    """A run's result and the bytes of its dump, written to memory."""
    buf = io.BytesIO()
    return run_trials(dump=buf, **kw), buf.getvalue()


RECORDED = dict(cfg=CFG, sp=calibrated_source(0.1), dm=DM, write_eta=0.5,
                read_eta=0.5, settings=MeasurementSettings(0, 0))
# background readouts and blocked slots, so D2, D4 and background = 1 rows
# all appear
BUSY = dict(cfg=CFG.with_storage_time(40e-6),
            sp=SourceParams(chi=0.1, werner_p0=0.887, p_noise=0.05), dm=DM,
            write_eta=0.5, read_eta=0.5,
            settings=MeasurementSettings(45, 22.5))


class TestRecords:
    def test_dump_round_trip(self, tmp_path):
        path = tmp_path / "dump.csv"
        with open(path, "wb") as fh:
            res = run_trials(n_cycles=3, seed=SeedSpec(60), dump=fh,
                             **RECORDED)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,trial,herald,readout,background,t_ns"
        assert len(lines) == 1 + res.n_trials
        # timestamps strictly increasing within the dump
        t = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
        assert all(b > a for a, b in zip(t, t[1:]))
        # counts recomputed from the dump equal the kernel counts
        c13 = sum(1 for l in lines[1:] if ",D1,D3," in l)
        c24 = sum(1 for l in lines[1:] if ",D2,D4," in l)
        assert c13 == res.counts.c13 and c24 == res.counts.c24

    def test_recorded_run_counts_like_unrecorded(self):
        # blocking and background must agree too
        kw = dict(n_cycles=4, seed=SeedSpec(63), **BUSY)
        a = run_trials(**kw)
        b, _ = _dumped(**kw)
        assert a == b
        assert b.n_blocked_slots > 0 and b.n_background_readouts > 0
        assert min(b.counts.c14, b.counts.c23) > 0

    def test_dumped_run_samples_in_the_calling_thread(self, monkeypatch):
        kw = dict(n_cycles=4, seed=SeedSpec(61), **RECORDED)
        one = _dumped(**kw)

        def refuse(*args, **kwargs):
            raise AssertionError("a dumped run started worker threads")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            refuse)
        assert _dumped(n_workers=3, **kw) == one

    def test_click_record_objects(self):
        res, dump = _dumped(n_cycles=1, seed=SeedSpec(62), **RECORDED)
        rows = [l.split(b",") for l in dump.splitlines()[1:]]
        assert len(rows) == res.n_trials
        assert sum(r[2] != b"" for r in rows) == res.counts.s1 + res.counts.s2
        assert all(r[2] != b"" for r in rows if r[3] != b"")


# --- record dump against the f-string reference ---------------------------

# 0, every width crossing 9 -> 10 ... 10**18 - 1 -> 10**18, and 2**62
WIDTH_CROSSINGS = ([0] + [v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k)]
                   + [2 ** 62])


def _reference_bytes(cols):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "dump.csv")
        write_record_dump_reference(cols, path)
        with open(path, "rb") as fh:
            return fh.read()


def _columns(cyc, slot, her, read, bg, t_ns):
    return (np.asarray(cyc, dtype=np.int64), np.asarray(slot, dtype=np.int64),
            np.asarray(her, dtype=np.uint8), np.asarray(read, dtype=np.uint8),
            np.asarray(bg, dtype=bool), np.asarray(t_ns, dtype=np.int64))


def _written(cols):
    buf = io.BytesIO()
    buf.write(montecarlo.DUMP_HEADER)
    montecarlo.write_record_dump(buf, *cols)
    return buf.getvalue()


def _oracle_columns(n_cycles, seed, cfg, sp, dm, write_eta, read_eta,
                    settings):
    """Record columns of a run from the scalar oracle, t_ns in integers."""
    law = readout_law(sp, dm, cfg.storage_time, read_eta, settings).a
    rows = trial_records_oracle(seed, 0, n_cycles, cfg.trials_per_run,
                                sp.chi * write_eta, *law, sp.p_noise,
                                cfg.herald_skip_slots)
    cycle_ns = round(cfg.cycle_duration * 1e9)
    prep_ns = round(cfg.prep_duration * 1e9)
    period_ns = round(cfg.trial_period * 1e9)
    t_ns = [c * cycle_ns + prep_ns + s * period_ns for c, s, *_ in rows]
    return _columns(*zip(*rows), t_ns), rows


record_rows = st.lists(st.tuples(
    *[st.one_of(st.integers(0, 2 ** 62), st.sampled_from(WIDTH_CROSSINGS))
      for _ in range(2)],
    st.integers(0, 2), st.sampled_from([0, 3, 4]), st.booleans(),
    st.one_of(st.integers(0, 2 ** 62), st.sampled_from(WIDTH_CROSSINGS))),
    max_size=30)


class TestRecordDump:
    @settings(max_examples=150, deadline=None)
    @given(record_rows, st.integers(1, 7))
    def test_blocks_match_reference(self, rows, block_rows):
        cols = _columns(*(zip(*rows) if rows else [()] * 6))
        with mock.patch.object(montecarlo, "DUMP_ROWS", block_rows):
            got = _written(cols)
        assert got == _reference_bytes(cols)

    def test_width_crossings_in_one_block(self):
        # each column runs through every digit width, rotated against the
        # others, so one block mixes every width in every field; every
        # herald/readout pair appears
        n = len(WIDTH_CROSSINGS)
        vals = np.array(WIDTH_CROSSINGS)
        i = np.arange(n)
        cols = _columns(vals, np.roll(vals, 7), i % 3,
                        np.array([0, 3, 4])[i // 3 % 3], i % 2 == 1,
                        np.roll(vals, 20))
        got = _written(cols)
        assert got == _reference_bytes(cols)
        assert got.count(b"\n") == n + 1

    def test_full_blocks_mix_widths_and_codes(self):
        # two and a half blocks at the real DUMP_ROWS: every field runs
        # through every width crossing, zeros among them, at its own pace,
        # so each block mixes the widths of all three fields, and every
        # middle code (herald * 5 + readout) * 2 + background appears
        n = 5 * montecarlo.DUMP_ROWS // 2
        vals = np.array(WIDTH_CROSSINGS)
        k = vals.size
        i = np.arange(n)
        code = i % 30
        cols = _columns(vals[i % k], vals[i // k % k], code // 10,
                        code // 2 % 5, code % 2, vals[(7 * i + i // 29) % k])
        got = _written(cols)
        assert got == _reference_bytes(cols)
        assert got.count(b"\n") == n + 1

    def test_recorded_run_matches_reference(self):
        kw = dict(n_cycles=4, seed=SeedSpec(63), **BUSY)
        res, got = _dumped(**kw)
        assert res.n_blocked_slots > 0
        cols, _ = _oracle_columns(kw.pop("n_cycles"),
                                  kw.pop("seed").master_seed, **kw)
        assert got == _reference_bytes(cols)
        lines = got.splitlines()[1:]
        assert any(b",D2," in l for l in lines)
        assert any(b",D4," in l for l in lines)
        assert any(l.split(b",")[4] == b"1" for l in lines)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n_cycles=st.integers(1, 5),
           n_slots=st.integers(1, 40), skip_slots=st.integers(0, 12),
           chunk_slots=st.integers(1, 120), block_rows=st.integers(1, 7))
    def test_streamed_dump_matches_reference_across_batches(
            self, seed, n_cycles, n_slots, skip_slots, chunk_slots,
            block_rows):
        # batches of a few cycles and blocks of a few rows, so blocks end
        # inside batches and batches inside blocks' worth of rows
        kw = dict(BUSY, cfg=SequenceConfig(run_duration=n_slots * 2e-6,
                                           storage_time=skip_slots * 2e-6),
                  sp=SourceParams(chi=0.6, werner_p0=0.887, p_noise=0.3))
        # a herald blocks at most the rest of its run
        assert (kw["cfg"].trials_per_run, kw["cfg"].herald_skip_slots) \
            == (n_slots, min(skip_slots, n_slots))
        with mock.patch.object(_kernels, "CHUNK_SLOTS", chunk_slots), \
                mock.patch.object(montecarlo, "DUMP_ROWS", block_rows):
            res, got = _dumped(n_cycles=n_cycles, seed=SeedSpec(seed), **kw)
        cols, rows = _oracle_columns(n_cycles, seed, **kw)
        assert got == _reference_bytes(cols)
        c = res.counts
        assert (c.c13, c.c14, c.c23, c.c24, c.s1, c.s2, res.n_trials,
                res.n_background_readouts) == counts_from_rows(rows)
