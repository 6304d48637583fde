import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bornsim import disk, rod, sphere, stats, streams

from bornsim.geometry import UnitVector, identity_frame, random_frame, unit_vector
from bornsim.outcomes import OutcomeDistribution
from bornsim.rod import QUANTUM, rod_analytic
from bornsim.geometry import canonicalize
from bornsim.models import MODELS
from bornsim.stats import (
    CHI2_CRITICAL,
    EmpiricalDistribution,
    RunConfig,
    chi_square_gof,
    run_trials,
    wald_interval,
)
from bornsim.streams import TrialStream, mix64, trial_state, trial_uniforms

SQ2 = 1.0 / math.sqrt(2.0)
EX = unit_vector(1.0, 0.0, 0.0)
P_BENCH = unit_vector(SQ2, 0.5, 0.5)


class TestStreams:
    def test_scalar_and_vector_draws_are_bitwise_identical(self):
        for master in (0, 1, 12345, 2**63 + 11, -7):
            vec = trial_uniforms(master, start=0, stop=200, ndraws=4)
            oracle = streams._numpy_uniforms(master, start=0, stop=200, ndraws=4)
            assert np.array_equal(vec.view(np.uint64), oracle.view(np.uint64))
            for t in range(200):
                stream = TrialStream(master, t)
                for k in range(4):
                    assert stream.random() == vec[k, t]

    @pytest.mark.parametrize("master, start, n, ndraws", [
        (2**64 - 1, 2**32 + 5, 1000, 3),               # trial index above 2**32
        (0, 0, streams._BLOCK - 1, 2),                 # one sub-block, short
        (2**64 - 1, 1, streams._BLOCK, 2),             # exactly one sub-block
        (101, 2**33, streams._BLOCK + 1, 1),           # one trial into a second
        (2**64 - 1, 2**64 - 3, 3, 2),                  # (t + 1) * GOLDEN wraps
        (2**64 - 1, 2**64 - 5, 9, 2),                  # start wraps within the fill
        # the second block's base (start + _BLOCK + 1) * GOLDEN wraps to 0
        (2**64 - 1, 2**64 - streams._BLOCK - 1, streams._BLOCK + 5, 2),
        *((12345, 4090, 4100, k) for k in range(5)),   # 0-4 draws, across a C block
    ])
    def test_blocked_fill_matches_the_scalar_stream_bitwise(self, master, start, n, ndraws):
        # trial_uniforms (native where it loads), its numpy fallback, and the scalar stream
        vec = trial_uniforms(master, start, start + n, ndraws)
        oracle = streams._numpy_uniforms(master, start, start + n, ndraws)
        ref = np.empty((ndraws, n))
        for i in range(n):
            stream = TrialStream(master, start + i)
            for k in range(ndraws):
                ref[k, i] = stream.random()
        assert vec.shape == oracle.shape == ref.shape
        assert np.array_equal(vec.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(oracle.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("ndraws", [0, 1, 2, 3, 4])
    def test_empty_range_has_no_columns(self, ndraws):
        assert trial_uniforms(2**64 - 1, 7, 7, ndraws).shape == (ndraws, 0)
        assert streams._numpy_uniforms(2**64 - 1, 7, 7, ndraws).shape == (ndraws, 0)

    def test_draws_are_uniform_enough(self):
        u = trial_uniforms(99, 0, 200_000, 2)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.002
        assert abs(np.corrcoef(u[0], u[1])[0, 1]) < 0.01

    def test_distinct_trials_get_distinct_states(self):
        states = {trial_state(42, t) for t in range(10_000)}
        assert len(states) == 10_000

    def test_mix64_avalanche_on_single_bit(self):
        a = mix64(0)
        b = mix64(1)
        assert bin(a ^ b).count("1") > 16


class TestRunTrials:
    def test_zero_trials_rejected(self):
        cfg = RunConfig("rod", P_BENCH, identity_frame(), trials=0, master_seed=1)
        with pytest.raises(ValueError, match="trials"):
            run_trials(cfg)

    def test_single_trial(self):
        cfg = RunConfig("sphere2d", P_BENCH, EX, trials=1, master_seed=1)
        emp, records = run_trials(cfg)
        assert emp.total == 1
        assert sum(emp.counts) == 1
        assert len(records) == 1

    def test_worker_count_does_not_change_counts(self):
        base = RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                         trials=600_000, master_seed=99, workers=1)
        par = RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                        trials=600_000, master_seed=99, workers=8)
        emp1, rec1 = run_trials(base)
        emp8, rec8 = run_trials(par)
        assert emp1 == emp8
        assert rec1 == rec8

    def test_identical_config_is_reproducible(self):
        cfg = RunConfig("ks", P_BENCH, EX, trials=50_000, master_seed=5)
        assert run_trials(cfg)[0] == run_trials(cfg)[0]

    def test_counts_match_five_sigma_binomial_band(self):
        # benchmark state against (0.5, 0.25, 0.25) at one million trials
        cfg = RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                        trials=1_000_000, master_seed=2)
        emp, _ = run_trials(cfg)
        for count, p in zip(emp.counts, (0.5, 0.25, 0.25)):
            assert abs(count - p * 1_000_000) < 2200

    # the two-outcome models measure perpendicular to the state: p = (1/2, 1/2)
    @pytest.mark.parametrize("model, measurement", [
        ("sphere2d", unit_vector(0.0, SQ2, -SQ2)),
        ("ks", unit_vector(0.0, SQ2, -SQ2)),
        ("rod", identity_frame()),
    ])
    def test_records_replay_their_trials(self, model, measurement):
        cfg = RunConfig(model, P_BENCH, measurement, "quantum", trials=50, master_seed=7)
        _, records = run_trials(cfg)
        assert [r.index for r in records] == list(range(10))
        # counts are per trial index, so trial t is the one a (t+1)-trial run
        # counts on top of a t-trial run
        before = (0,) * len(MODELS[model].labels)
        for r in records:
            emp, _ = run_trials(replace(cfg, trials=r.index + 1))
            added = [a - b for a, b in zip(emp.counts, before)]
            assert added == [int(label == r.outcome) for label in emp.labels]
            before = emp.counts
        assert len(run_trials(replace(cfg, trials=3))[1]) == 3

    def test_model_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_trials(RunConfig("coin", P_BENCH, EX, trials=1, master_seed=1))
        with pytest.raises(ValueError, match="Frame"):
            run_trials(RunConfig("rod", P_BENCH, EX, trials=1, master_seed=1))
        with pytest.raises(ValueError, match="UnitVector measurement"):
            run_trials(
                RunConfig("ks", P_BENCH, identity_frame(), trials=1, master_seed=1)
            )
        with pytest.raises(ValueError, match="weight"):
            run_trials(
                RunConfig("rod", P_BENCH, identity_frame(), "cubic",
                          trials=1, master_seed=1)
            )

    def test_zero_workers_rejected(self):
        cfg = RunConfig("rod", P_BENCH, identity_frame(), trials=1, master_seed=1, workers=0)
        with pytest.raises(ValueError, match=r"^workers must be >= 1$"):
            run_trials(cfg)

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("trials", True), ("trials", np.float64(3.0)),
        ("workers", 1.5), ("workers", "2"), ("master_seed", 1.5), ("master_seed", False),
    ])
    def test_non_integer_counts_and_seed_rejected_by_name(self, field, value):
        cfg = replace(RunConfig("rod", P_BENCH, identity_frame(), trials=1, master_seed=1),
                      **{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            run_trials(cfg)
        # numpy integers are integers
        emp, _ = run_trials(replace(cfg, **{field: np.int64(2)}))
        assert emp.total == (2 if field == "trials" else 1)

    @pytest.mark.parametrize("model, name", [
        ("rod", "state"), ("sphere2d", "state"), ("ks", "state"),
        ("sphere2d", "direction"), ("ks", "direction"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_or_direction_rejected_by_name(self, model, name, bad):
        # NaN fails every compare of a count step, so all trials would land
        # in one outcome if it were let through
        good = identity_frame() if model == "rod" else EX
        vectors = {"state": P_BENCH, "direction": good, name: UnitVector(bad, 0.0, 0.0)}
        cfg = RunConfig(model, vectors["state"], vectors["direction"], trials=1000,
                        master_seed=1)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got UnitVector\("):
            run_trials(cfg)

    def test_state_that_is_not_a_unit_vector_rejected(self):
        cfg = RunConfig("rod", canonicalize(P_BENCH.array), identity_frame(), trials=1,
                        master_seed=1)
        with pytest.raises(ValueError, match=r"^state must be a UnitVector$"):
            run_trials(cfg)


    def test_thread_pool_is_bounded_by_chunks_and_cores(self, monkeypatch):
        pools = []

        class SerialPool:
            """Records the requested pool size and maps without threads."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
        three_chunks = RunConfig("sphere2d", P_BENCH, EX, trials=2 * stats._CHUNK + 5,
                                 master_seed=5)
        serial, _ = run_trials(three_chunks)
        for workers in (10_000, 2):
            emp, _ = run_trials(replace(three_chunks, workers=workers))
            assert emp.counts == serial.counts
        assert pools == [3, 2]
        run_trials(replace(three_chunks, trials=100, workers=8))
        monkeypatch.setattr(stats.os, "cpu_count", lambda: None)
        emp, _ = run_trials(replace(three_chunks, workers=8))
        assert emp.counts == serial.counts
        assert pools == [3, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch, workers):
        class Stop(Exception):
            pass

        starts = []

        def first_chunk_stops(master_seed, start, stop, ndraws):
            starts.append(start)
            raise Stop

        monkeypatch.setattr(stats, "trial_uniforms", first_chunk_stops)
        cfg = RunConfig("rod", P_BENCH, identity_frame(), trials=2**34,
                        master_seed=3, workers=workers)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                run_trials(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert 0 < len(starts) <= workers
        assert set(starts) <= {k * stats._CHUNK for k in range(workers)}

    @pytest.mark.parametrize("model, measurement", [
        ("sphere2d", unit_vector(0.0, SQ2, -SQ2)),
        ("ks", unit_vector(0.0, SQ2, -SQ2)),
        ("rod", identity_frame()),
    ])
    def test_kernels_return_outcome_counts(self, model, measurement):
        m = MODELS[model]
        kernel = m.kernel(P_BENCH, measurement, "quantum")
        u = trial_uniforms(4, 0, 1000, m.draws)
        counts = kernel(u)
        assert counts.dtype == np.int64 and counts.shape == (len(m.labels),)
        singles = np.array([kernel(u[:, i : i + 1]) for i in range(1000)])
        assert np.all(np.sort(singles, axis=1) == [0] * (len(m.labels) - 1) + [1])
        assert np.array_equal(counts, singles.sum(axis=0))

    @pytest.mark.parametrize("step", [
        lambda u: sphere.outcome_indices(0.1, u),
        lambda u: disk.up_indices(disk.basis_dots(P_BENCH.array, EX.array), u, u),
        lambda u: rod.outcomes_from_uniforms(
            rod.thresholds(canonicalize(P_BENCH), identity_frame(), QUANTUM), u, u),
    ], ids=["sphere", "disk", "rod"])
    def test_count_steps_reject_draws_that_are_not_1d(self, step, path):
        # a count step takes the number of trials from the first axis, so a
        # (2, 3) block would count 6 trials out of 2 and return a negative count
        for u in (np.full((2, 3), 0.9), np.full((1, 1), 0.9), np.float64(0.9), 0.9):
            with pytest.raises(ValueError, match="1-d"):
                step(u)
        assert step(np.full(3, 0.9)).sum() == 3

    # one trial either side of the first block edge, then a run that crosses
    # a chunk edge and ends in a partial block
    @pytest.mark.parametrize("n", [streams._BLOCK - 1, streams._BLOCK, streams._BLOCK + 1,
                                   stats._CHUNK + streams._BLOCK + 1])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model", ["sphere2d", "ks", "rod"])
    def test_block_walk_counts_as_one_whole_array_kernel_call(self, model, workers, n):
        if model == "rod":
            measurement = random_frame(np.random.default_rng(n))
            weight = rod.UNIFORM_VARIANT.tag
        else:
            measurement, weight = unit_vector(0.0, SQ2, -SQ2), QUANTUM.tag
        m = MODELS[model]
        want = m.kernel(P_BENCH, measurement, weight)(trial_uniforms(n, 0, n, m.draws))
        cfg = RunConfig(model, P_BENCH, measurement, weight, trials=n, master_seed=n,
                        workers=workers)
        assert list(run_trials(cfg)[0].counts) == want.tolist()

    @pytest.mark.parametrize("model, measurement, module, constant", [
        ("rod", identity_frame(), rod, "direction_cosines"),
        ("ks", unit_vector(0.0, SQ2, -SQ2), disk, "tangent_basis"),
    ])
    def test_run_constants_are_computed_once_per_run(
        self, monkeypatch, model, measurement, module, constant
    ):
        # four chunks on two workers and ten record replays share one
        # evaluation of the machine's run constants
        calls = []
        original = getattr(module, constant)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, constant, counted)
        cfg = RunConfig(model, P_BENCH, measurement, trials=3 * stats._CHUNK + 7,
                        master_seed=11, workers=2)
        emp, records = run_trials(cfg)
        assert emp.total == cfg.trials and len(records) == stats._RECORDS
        assert len(calls) == 1


class TestChiSquare:
    def test_exact_match_scores_zero(self):
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (500, 250, 250), 1000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (0.5, 0.25, 0.25))
        report = chi_square_gof(emp, expected)
        assert report.statistic == 0.0
        assert report.dof == 2
        assert report.passed

    def test_worked_example_near_boundary(self):
        # freqs (0.251, 0.375, 0.374) vs (0.25, 0.375, 0.375) at N = 1e6:
        # statistic = 1e6 * (0.001^2/0.25 + 0.001^2/0.375) = 20/3
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (251_000, 375_000, 374_000), 1_000_000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (0.25, 0.375, 0.375))
        report = chi_square_gof(emp, expected, alpha=0.01)
        assert report.statistic == pytest.approx(20.0 / 3.0, abs=1e-9)
        assert report.critical == 9.210
        assert report.passed

    def test_impossible_outcome_fails_hard(self):
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (999, 1, 0), 1000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (1.0, 0.0, 0.0))
        report = chi_square_gof(emp, expected)
        assert not report.passed
        assert report.statistic == math.inf
        assert "o2" in report.note

    def test_eigenstate_all_mass_on_certain_outcome_passes(self):
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (1000, 0, 0), 1000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (1.0, 0.0, 0.0))
        report = chi_square_gof(emp, expected)
        assert report.passed
        assert report.dof == 0
        assert report.statistic == 0.0

    def test_dof_counts_positive_probability_outcomes(self):
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (480, 520, 0), 1000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (0.5, 0.5, 0.0))
        report = chi_square_gof(emp, expected)
        assert report.dof == 1
        assert report.critical == 6.635

    def test_tabulated_alpha_only(self):
        emp = EmpiricalDistribution(("a", "b"), (5, 5), 10)
        expected = OutcomeDistribution(("a", "b"), (0.5, 0.5))
        with pytest.raises(ValueError, match="tabulated"):
            chi_square_gof(emp, expected, alpha=0.2)
        assert chi_square_gof(emp, expected, alpha=0.05).critical == CHI2_CRITICAL[(1, 0.05)]

    def test_label_mismatch_rejected(self):
        emp = EmpiricalDistribution(("a", "b"), (5, 5), 10)
        expected = OutcomeDistribution(("x", "y"), (0.5, 0.5))
        with pytest.raises(ValueError, match="labels"):
            chi_square_gof(emp, expected)

    def test_unnormalized_expected_rejected(self):
        emp = EmpiricalDistribution(("a", "b"), (5, 5), 10)
        expected = OutcomeDistribution(("a", "b"), (0.5, 0.4))
        with pytest.raises(ValueError, match="sum"):
            chi_square_gof(emp, expected)

    def test_confidence_intervals_cover_frequencies(self):
        emp = EmpiricalDistribution(("o1", "o2", "o3"), (520, 250, 230), 1000)
        expected = OutcomeDistribution(("o1", "o2", "o3"), (0.5, 0.25, 0.25))
        report = chi_square_gof(emp, expected)
        for (lo, hi), f in zip(report.intervals, emp.frequencies):
            assert lo <= f <= hi
            assert hi - lo == pytest.approx(
                2 * 2.576 * math.sqrt(f * (1 - f) / 1000), abs=1e-12
            )
        assert report.intervals == tuple(wald_interval(f, 1000) for f in emp.frequencies)

    def test_wald_interval_is_clamped_to_the_unit_interval(self):
        assert wald_interval(0.0, 10) == (0.0, 0.0)
        assert wald_interval(1.0, 10) == (1.0, 1.0)
        lo, hi = wald_interval(0.01, 10)
        assert lo == 0.0 and 0.01 < hi < 1.0

    def test_calibration_rejection_rate_near_alpha(self):
        # a correctly matched model/expected pair is rejected at alpha = 0.01
        # in 1% +- 0.8% of 1000 independent seeded runs
        expected, _ = rod_analytic(canonicalize(P_BENCH.array), identity_frame(), QUANTUM)
        rejections = 0
        for k in range(1000):
            emp, _ = run_trials(
                RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                          trials=10_000, master_seed=300_000 + k),
            )
            if not chi_square_gof(emp, expected, alpha=0.01).passed:
                rejections += 1
        assert 2 <= rejections <= 18

    def test_power_variant_vs_born_is_rejected(self):
        from bornsim.quantum import born_probabilities, state_vector

        emp, _ = run_trials(
            RunConfig("rod", P_BENCH, identity_frame(), "uniform-variant",
                      trials=1_000_000, master_seed=8),
        )
        born = born_probabilities(state_vector(P_BENCH.array), identity_frame())
        report = chi_square_gof(emp, born, alpha=0.01)
        assert not report.passed
        assert report.statistic > 1000.0


class TestEmpiricalDistribution:
    def test_validates_totals(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(("a", "b"), (1, 1), 3)
        with pytest.raises(ValueError):
            EmpiricalDistribution(("a", "b"), (-1, 4), 3)

    def test_non_finite_probabilities_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                OutcomeDistribution(("a", "b"), (bad, 0.5))
