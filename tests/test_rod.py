import math

import numpy as np
import pytest

from bornsim.geometry import canonicalize, identity_frame, random_frame, random_unit_vector
from bornsim.quantum import born_probabilities, state_vector
from bornsim.rod import (
    BreakPath,
    BreakWeight,
    LABELS,
    QUANTUM,
    UNIFORM_VARIANT,
    RodMeasurement,
    RodState,
    outcomes_from_uniforms,
    rod_analytic,
    rod_sample,
    stage1_distribution,
    stage2_distribution,
)
from bornsim.stats import RunConfig, chi_square_gof, run_trials
from bornsim.streams import TrialStream, trial_uniforms

from oracles import rod_tree_oracle, quantum_weight, variant_weight

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
P_BENCH = canonicalize((SQ2, 0.5, 0.5))
IDENT = RodMeasurement(identity_frame())

# frozen from the independent tree oracle (see oracles.rod_tree_oracle)
VARIANT_STAGE1 = (0.289897948556636, 0.355051025721682, 0.355051025721682)
VARIANT_DIST = (0.415968151066566, 0.292015924466717, 0.292015924466717)
VARIANT_O3_GAP = 0.042015924466717


class TestStage1:
    def test_eigenstate_splits_evenly_over_other_axes(self):
        s1 = stage1_distribution(RodState(canonicalize((1, 0, 0))), IDENT, QUANTUM)
        assert np.allclose(s1, [0.0, 0.5, 0.5], atol=1e-15)
        assert s1[0] == 0.0

    def test_quantum_weights_normalize_by_two(self):
        s1 = stage1_distribution(RodState(P_BENCH), IDENT, QUANTUM)
        assert np.allclose(s1, [0.25, 0.375, 0.375], atol=1e-12)

    def test_uniform_variant_stage1(self):
        s1 = stage1_distribution(RodState(P_BENCH), IDENT, UNIFORM_VARIANT)
        assert np.allclose(s1, VARIANT_STAGE1, atol=1e-12)
        # direct recomputation, independent of the library path
        sines = np.sqrt(1.0 - np.array([SQ2, 0.5, 0.5]) ** 2)
        assert np.allclose(s1, sines / sines.sum(), atol=1e-12)

    def test_all_zero_weights_guarded(self):
        dead = BreakWeight("dead", lambda t: 0.0 * np.asarray(t))
        with pytest.raises(ValueError, match="degenerate frame/state"):
            stage1_distribution(RodState(P_BENCH), IDENT, dead)


class TestStage2:
    def test_in_plane_eigenstate_breaks_other_tie(self):
        p_prime = canonicalize((0.0, 1.0, 0.0))
        s2 = stage2_distribution(p_prime, IDENT, (1, 2), QUANTUM)
        assert np.allclose(s2, [0.0, 1.0], atol=1e-15)

    def test_symmetric_in_plane_state(self):
        p_prime = canonicalize((0.0, SQ2, SQ2))
        for w in (QUANTUM, UNIFORM_VARIANT):
            s2 = stage2_distribution(p_prime, IDENT, (1, 2), w)
            assert np.allclose(s2, [0.5, 0.5], atol=1e-12)

    def test_both_zero_weights_guarded(self):
        dead = BreakWeight("dead", lambda t: 0.0 * np.asarray(t))
        with pytest.raises(ValueError, match="degenerate projection"):
            stage2_distribution(canonicalize((0.0, 1.0, 0.0)), IDENT, (1, 2), dead)


class TestAnalytic:
    def test_quantum_benchmark_distribution_and_paths(self):
        dist, paths = rod_analytic(RodState(P_BENCH), IDENT, QUANTUM)
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25], atol=1e-12)
        # every break order contributes half the outcome probability
        cos2 = np.array([0.5, 0.25, 0.25])
        for path, prob in paths.items():
            assert prob == pytest.approx(0.5 * cos2[path.outcome], abs=1e-12)
        both_to_o3 = [pr for path, pr in paths.items() if path.outcome == 2]
        assert both_to_o3 == pytest.approx([0.125, 0.125], abs=1e-12)

    def test_eigenstate_any_weight(self):
        p = RodState(canonicalize((1, 0, 0)))
        for w in (QUANTUM, UNIFORM_VARIANT):
            dist, paths = rod_analytic(p, IDENT, w)
            assert dist.probs == (1.0, 0.0, 0.0)
            assert len(paths) == 6

    def test_uniform_variant_benchmark(self):
        dist, _ = rod_analytic(RodState(P_BENCH), IDENT, UNIFORM_VARIANT)
        assert np.allclose(dist.probs, VARIANT_DIST, atol=1e-12)
        oracle_probs, _ = rod_tree_oracle(P_BENCH.array, np.eye(3), variant_weight)
        assert np.allclose(dist.probs, oracle_probs, atol=1e-12)

    def test_variant_deviates_from_born_on_o3(self):
        dist, _ = rod_analytic(RodState(P_BENCH), IDENT, UNIFORM_VARIANT)
        gap = abs(dist.probs[2] - 0.25)
        assert gap == pytest.approx(VARIANT_O3_GAP, abs=1e-12)
        assert gap > 0.02

    def test_matches_independent_tree_oracle_on_random_inputs(self):
        gen = np.random.default_rng(8)
        for _ in range(50):
            ray = canonicalize(random_unit_vector(gen).array)
            frame = random_frame(gen)
            for w, fn in ((QUANTUM, quantum_weight), (UNIFORM_VARIANT, variant_weight)):
                dist, paths = rod_analytic(RodState(ray), RodMeasurement(frame), w)
                oracle_probs, oracle_paths = rod_tree_oracle(ray.array, frame.matrix, fn)
                assert np.allclose(dist.probs, oracle_probs, atol=1e-12)
                for path, prob in paths.items():
                    key = (path.first_broken, path.second_broken)
                    assert prob == pytest.approx(oracle_paths[key], abs=1e-12)

    def test_born_agreement_and_path_identity(self):
        # quantum weight: distribution equals the state-vector rule exactly,
        # and each break order carries half the outcome probability
        gen = np.random.default_rng(1234)
        for _ in range(100):
            v = random_unit_vector(gen)
            frame = random_frame(gen)
            ray = canonicalize(v.array)
            dist, paths = rod_analytic(RodState(ray), RodMeasurement(frame), QUANTUM)
            born = born_probabilities(state_vector(ray.rep.array), frame)
            assert np.allclose(dist.probs, born.probs, atol=1e-12)
            for path, prob in paths.items():
                assert abs(prob - 0.5 * born.probs[path.outcome]) < 1e-12

    def test_normalization_for_any_weight(self):
        gen = np.random.default_rng(99)
        for w in (QUANTUM, UNIFORM_VARIANT):
            for _ in range(200):
                ray = canonicalize(random_unit_vector(gen).array)
                dist, paths = rod_analytic(RodState(ray), RodMeasurement(random_frame(gen)), w)
                assert abs(sum(dist.probs) - 1.0) < 1e-12
                assert abs(sum(paths.values()) - 1.0) < 1e-12


class TestWeights:
    def test_vanish_at_zero_and_nondecreasing(self):
        thetas = np.linspace(0.0, math.pi / 2, 2001)
        for w in (QUANTUM, UNIFORM_VARIANT):
            vals = np.asarray(w.fn(thetas), dtype=float)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all(vals >= 0.0)


class TestSampler:
    def test_eigenstate_collapse_is_deterministic(self):
        p = RodState(canonicalize((0, 1, 0)))
        for trial in range(200):
            label, new_state, path = rod_sample(p, IDENT, QUANTUM, TrialStream(3, trial))
            assert label == "o2"
            assert new_state.p == IDENT.e.axes[1]
            assert path.outcome == 1

    def test_symmetric_state_frequencies(self):
        state = canonicalize((SQ3, SQ3, SQ3))
        emp, _ = run_trials(
            RunConfig("rod", state.rep, identity_frame(), "quantum",
                      trials=1_000_000, master_seed=61),
            record_sample=0,
        )
        for f in emp.frequencies:
            assert abs(f - 1.0 / 3.0) < 0.002

    def test_benchmark_frequencies(self):
        emp, _ = run_trials(
            RunConfig("rod", P_BENCH.rep, identity_frame(), "quantum",
                      trials=1_000_000, master_seed=62),
            record_sample=0,
        )
        for f, p in zip(emp.frequencies, (0.5, 0.25, 0.25)):
            assert abs(f - p) < 0.002

    def test_repeatability_exact(self):
        gen = np.random.default_rng(17)
        for chain in range(10_000):
            state = RodState(canonicalize(random_unit_vector(gen).array))
            e = RodMeasurement(random_frame(gen))
            first, collapsed, _ = rod_sample(state, e, QUANTUM, gen)
            second, _, _ = rod_sample(collapsed, e, QUANTUM, gen)
            assert first == second

    def test_sampler_matches_analytic_on_random_configs(self):
        # chi-square at alpha = 0.01 for 20 random (state, frame, weight)
        gen = np.random.default_rng(515)
        weights = [QUANTUM, UNIFORM_VARIANT]
        n = 1_000_000
        passed = 0
        for k in range(20):
            ray = canonicalize(random_unit_vector(gen).array)
            frame = random_frame(gen)
            w = weights[k % 2]
            expected, _ = rod_analytic(RodState(ray), RodMeasurement(frame), w)
            emp, _ = run_trials(
                RunConfig("rod", ray.rep, frame, w.tag, trials=n, master_seed=8200 + k),
                record_sample=0,
            )
            passed += chi_square_gof(emp, expected, alpha=0.01).passed
        assert passed >= 19

    def test_scalar_and_vector_paths_agree_bitwise(self):
        u = trial_uniforms(master_seed=40, start=0, stop=5_000, ndraws=2)
        for ray, frame, w in (
            (P_BENCH, identity_frame(), QUANTUM),
            (canonicalize((0.2, 0.9, np.sqrt(1 - 0.04 - 0.81))), identity_frame(), UNIFORM_VARIANT),
        ):
            batch, bf, bs = outcomes_from_uniforms(ray, frame, w, u[0], u[1])
            for i in range(0, 5_000, 7):
                o, f, s = outcomes_from_uniforms(
                    ray, frame, w, u[0][i : i + 1], u[1][i : i + 1]
                )
                assert (int(o[0]), int(f[0]), int(s[0])) == (
                    int(batch[i]), int(bf[i]), int(bs[i])
                )

    def test_boundary_uniforms_never_select_zero_weight(self):
        # eigenstate: stage-1 weight of axis 1 is zero; u1 = 0 must not pick it
        ray = canonicalize((1, 0, 0))
        s1 = stage1_distribution(RodState(ray), IDENT, QUANTUM)
        edges = np.array([0.0, s1[1], s1[1] + s1[2], 1.0 - 2**-53])
        outcome, first, second = outcomes_from_uniforms(
            ray, identity_frame(), QUANTUM, edges, np.array([0.0, 0.5, 1.0 - 2**-53, 0.25])
        )
        assert np.all(outcome == 0)
        assert np.all(first != 0)
        assert np.all(second != 0)

    def test_tie_on_boundary_goes_to_lowest_index(self):
        s1 = stage1_distribution(RodState(P_BENCH), IDENT, QUANTUM)
        # u exactly on the first cumulative edge selects category 0
        _, first, _ = outcomes_from_uniforms(
            P_BENCH, identity_frame(), QUANTUM, np.array([s1[0]]), np.array([0.5])
        )
        assert int(first[0]) == 0


class TestBreakPath:
    def test_outcome_is_remaining_axis(self):
        assert BreakPath(0, 2).outcome == 1
        assert BreakPath(2, 1).outcome == 0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            BreakPath(0, 0)
        with pytest.raises(ValueError):
            BreakPath(0, 3)
