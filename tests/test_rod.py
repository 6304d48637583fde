import itertools
import math

import numpy as np
import pytest

from bornsim import native
from bornsim.geometry import (
    Frame,
    Ray,
    UnitVector,
    canonicalize,
    direction_cosines,
    identity_frame,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    rotate_frame_about_axis,
)
from bornsim.quantum import born_probabilities, state_vector
from bornsim.rod import (
    BreakWeight,
    LABELS,
    QUANTUM,
    UNIFORM_VARIANT,
    WEIGHTS,
    _OUTCOMES,
    _PATHS,
    _cosines_from_ray,
    _tree,
    fold_paths,
    outcomes_from_uniforms,
    rod_analytic,
    rod_sample,
    thresholds,
)
from bornsim.stats import RunConfig, chi_square_gof, run_trials
from bornsim.streams import TrialStream, trial_uniforms

from oracles import gemv_fma_chain, rod_tree_oracle, quantum_weight, variant_weight

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
P_BENCH = canonicalize((SQ2, 0.5, 0.5))
IDENT = identity_frame()

# frozen from the independent tree oracle (see oracles.rod_tree_oracle)
VARIANT_STAGE1 = (0.289897948556636, 0.355051025721682, 0.355051025721682)
VARIANT_DIST = (0.415968151066566, 0.292015924466717, 0.292015924466717)
VARIANT_O3_GAP = 0.042015924466717


SYMMETRIC = canonicalize((SQ3, SQ3, SQ3))


def _single_paths(p, e, w, u1, u2):
    """Each trial's ``_PATHS`` index, from the one nonzero count of a 1-trial call."""
    th = thresholds(p, e, w)
    paths = []
    for i in range(len(u1)):
        counts = outcomes_from_uniforms(th, u1[i : i + 1], u2[i : i + 1])
        (nonzero,) = np.flatnonzero(counts)
        assert counts[nonzero] == 1
        paths.append(nonzero)
    return np.array(paths, dtype=np.int64)


def _rule_users(p, w):
    """Each public route through the rod rule, on ray ``p`` in the identity frame."""
    u = np.array([0.5])
    return (lambda: rod_analytic(p, IDENT, w),
            lambda: outcomes_from_uniforms(thresholds(p, IDENT, w), u, u))


class TestStage1:
    def test_eigenstate_splits_evenly_over_other_axes(self):
        s1, s2 = _tree(canonicalize((1, 0, 0)), IDENT, QUANTUM)[0]
        assert np.allclose(s1, [0.0, 0.5, 0.5], atol=1e-15)
        assert s1[0] == 0.0
        # no stage 2 follows a first break of zero weight: its pair is +0.0
        assert [x.hex() for x in s2[0]] == ["0x0.0p+0", "0x0.0p+0"]
        assert s2[1] == s2[2] == (0.0, 1.0)

    def test_quantum_weights_normalize_by_two(self):
        s1, _ = _tree(P_BENCH, IDENT, QUANTUM)[0]
        assert np.allclose(s1, [0.25, 0.375, 0.375], atol=1e-12)

    def test_uniform_variant_stage1(self):
        s1, _ = _tree(P_BENCH, IDENT, UNIFORM_VARIANT)[0]
        assert np.allclose(s1, VARIANT_STAGE1, atol=1e-12)
        # direct recomputation, independent of the library path
        sines = np.sqrt(1.0 - np.array([SQ2, 0.5, 0.5]) ** 2)
        assert np.allclose(s1, sines / sines.sum(), atol=1e-12)

    def test_all_zero_weights_guarded(self):
        dead = BreakWeight("dead", lambda t: 0.0 * np.asarray(t))
        # negative at the benchmark's stage-1 angle pi/4, positive at pi/3
        negative = BreakWeight("negative", lambda t: np.asarray(t) - 0.9)
        for w, error in ((dead, "degenerate frame/state"),
                         (negative, "^negative stage-1 weight$")):
            for call in (lambda: _tree(P_BENCH, IDENT, w), *_rule_users(P_BENCH, w)):
                with pytest.raises(ValueError, match=error):
                    call()

    def test_nan_weights_rejected(self):
        # NaN fails every comparison: a `total <= 0.0` guard lets it through
        nan = BreakWeight("nan", lambda t: np.full(np.shape(t), np.nan))
        for call in (lambda: _tree(P_BENCH, IDENT, nan), *_rule_users(P_BENCH, nan)):
            with pytest.raises(ValueError, match="^degenerate frame/state"):
                call()


class TestStage2:
    def test_in_plane_eigenstate_breaks_other_tie(self):
        # after tie 0 breaks, (0.6, 0.8, 0) swings onto axis 1, whose tie
        # then carries no weight
        p = canonicalize((0.6, 0.8, 0.0))
        for w in (QUANTUM, UNIFORM_VARIANT):
            _, s2 = _tree(p, IDENT, w)[0]
            assert np.allclose(s2[0], [0.0, 1.0], atol=1e-15)

    def test_symmetric_in_plane_state(self):
        # after tie 0 breaks, the benchmark state swings onto (0, 1, 1) / sqrt 2
        for w in (QUANTUM, UNIFORM_VARIANT):
            _, s2 = _tree(P_BENCH, IDENT, w)[0]
            assert np.allclose(s2[0], [0.5, 0.5], atol=1e-12)

    def test_both_zero_weights_guarded(self):
        # zero below 0.9: every stage-1 angle of the symmetric state (0.955)
        # weighs 1, and both in-plane angles after any first break (pi/4) 0
        step = BreakWeight("step", lambda t: np.where(np.asarray(t) < 0.9, 0.0, 1.0))
        # the benchmark's stage-1 angles (pi/4, pi/3, pi/3) weigh > 0, but
        # after tie 1 breaks first the in-plane angle 0.615 weighs < 0
        negative = BreakWeight("negative", lambda t: np.asarray(t) - 0.7)
        for p, w, error in ((SYMMETRIC, step, "degenerate projection"),
                            (P_BENCH, negative, "^negative stage-2 weight$")):
            for call in (lambda: _tree(p, IDENT, w), *_rule_users(p, w)):
                with pytest.raises(ValueError, match=error):
                    call()

    def test_nan_weights_rejected(self):
        # the symmetric state's stage-1 angles (0.955) weigh 1, and its
        # in-plane angles (pi/4) NaN, which no `total <= 0.0` guard catches
        nan = BreakWeight("nan", lambda t: np.where(np.asarray(t) < 0.9, np.nan, 1.0))
        for call in (lambda: _tree(SYMMETRIC, IDENT, nan), *_rule_users(SYMMETRIC, nan)):
            with pytest.raises(ValueError, match="^degenerate projection"):
                call()

    def test_ray_on_an_axis_with_zero_cross_dots_splits_evenly(self):
        # the ray's own cosine rounds below 1, so its axis keeps a stage-1
        # weight, yet both dots with the retained axes are exactly 0: no
        # direction in their plane, and hypot(0, 0) = 0 is no divisor
        near = 1.0 - 2.0**-53
        cj, ck = _cosines_from_ray((0.0, 0.0, near), 0, 1)
        assert cj == ck == pytest.approx(SQ2, abs=1e-15)
        ray = canonicalize((0.0, 0.0, near))
        assert direction_cosines(ray, IDENT) == (0.0, 0.0, near)
        for w in (QUANTUM, UNIFORM_VARIANT):
            s1, s2 = _tree(ray, IDENT, w)[0]
            assert s1[2] > 0.0
            assert s2[2] == (0.5, 0.5)
            dist, paths = rod_analytic(ray, IDENT, w)
            # paths 4 and 5 break tie 2 first
            assert paths[4] == paths[5] == s1[2] / 2
            assert dist.probs[0] == dist.probs[1] == s1[2] / 2
            assert sum(dist.probs) == pytest.approx(1.0, abs=1e-15)
            *_, r2 = thresholds(ray, IDENT, w)
            assert r2 == 0.5


class TestAnalytic:
    def test_quantum_benchmark_distribution_and_paths(self):
        dist, paths = rod_analytic(P_BENCH, IDENT, QUANTUM)
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25], atol=1e-12)
        # every break order contributes half the outcome probability
        cos2 = np.array([0.5, 0.25, 0.25])
        for k, prob in zip(_OUTCOMES, paths):
            assert prob == pytest.approx(0.5 * cos2[k], abs=1e-12)
        both_to_o3 = [pr for k, pr in zip(_OUTCOMES, paths) if k == 2]
        assert both_to_o3 == pytest.approx([0.125, 0.125], abs=1e-12)

    def test_eigenstate_any_weight(self):
        p = canonicalize((1, 0, 0))
        # a weight may give the angle 0 a weight of -0.0: the eigenstate's
        # own tie in stage 1, and axis 0 again in stage 2 after tie 1 or 2
        # breaks first. -0.0 times a probability is -0.0, yet all six paths
        # must be +0.0
        signed = BreakWeight("signed-zero", lambda t: np.where(np.asarray(t) == 0.0, -0.0,
                                                               np.sin(t) ** 2))
        assert math.copysign(1.0, float(signed.fn(np.arccos(1.0)))) == -1.0
        for w in (QUANTUM, UNIFORM_VARIANT, signed):
            dist, paths = rod_analytic(p, IDENT, w)
            assert dist.probs == (1.0, 0.0, 0.0)
            assert len(paths) == 6
            for path, prob in zip(_PATHS, paths):
                assert math.copysign(1.0, prob) == 1.0, (w.tag, path)
            assert thresholds(p, IDENT, w)[2] == -1.0

    def test_uniform_variant_benchmark(self):
        dist, _ = rod_analytic(P_BENCH, IDENT, UNIFORM_VARIANT)
        assert np.allclose(dist.probs, VARIANT_DIST, atol=1e-12)
        oracle_probs, _ = rod_tree_oracle(P_BENCH.array, np.eye(3), variant_weight)
        assert np.allclose(dist.probs, oracle_probs, atol=1e-12)

    def test_variant_deviates_from_born_on_o3(self):
        dist, _ = rod_analytic(P_BENCH, IDENT, UNIFORM_VARIANT)
        gap = abs(dist.probs[2] - 0.25)
        assert gap == pytest.approx(VARIANT_O3_GAP, abs=1e-12)
        assert gap > 0.02

    def test_matches_independent_tree_oracle_on_random_inputs(self):
        gen = np.random.default_rng(8)
        for _ in range(50):
            ray = canonicalize(random_unit_vector(gen).array)
            frame = random_frame(gen)
            for w, fn in ((QUANTUM, quantum_weight), (UNIFORM_VARIANT, variant_weight)):
                dist, paths = rod_analytic(ray, frame, w)
                oracle_probs, oracle_paths = rod_tree_oracle(ray.array, frame.matrix, fn)
                assert np.allclose(dist.probs, oracle_probs, atol=1e-12)
                for path, prob in zip(_PATHS, paths):
                    assert prob == pytest.approx(oracle_paths[path], abs=1e-12)

    def test_born_agreement_and_path_identity(self):
        # quantum weight: distribution equals the state-vector rule exactly,
        # and each break order carries half the outcome probability
        gen = np.random.default_rng(1234)
        for _ in range(100):
            v = random_unit_vector(gen)
            frame = random_frame(gen)
            ray = canonicalize(v.array)
            dist, paths = rod_analytic(ray, frame, QUANTUM)
            born = born_probabilities(state_vector(ray.rep.array), frame)
            assert np.allclose(dist.probs, born.probs, atol=1e-12)
            for k, prob in zip(_OUTCOMES, paths):
                assert abs(prob - 0.5 * born.probs[k]) < 1e-12

    def test_normalization_for_any_weight(self):
        gen = np.random.default_rng(99)
        for w in (QUANTUM, UNIFORM_VARIANT):
            for _ in range(200):
                ray = canonicalize(random_unit_vector(gen).array)
                dist, paths = rod_analytic(ray, random_frame(gen), w)
                assert abs(sum(dist.probs) - 1.0) < 1e-12
                assert abs(sum(paths) - 1.0) < 1e-12


def _kcbs_sum(w):
    """The KCBS sum (Klyachko, Can, Binicioglu and Shumovsky, PRL 101,
    020403, 2008) of the state (0, 0, 1): P(axis 0) summed over five
    contexts. Rays v_j lie at cos^2 = 1/sqrt(5) to the pole and azimuth
    4 pi j / 5, so v_j is orthogonal to v_{j+1}; context j is the frame
    (v_j, v_{j+1}, v_j x v_{j+1}). A non-contextual assignment keeps the sum
    at most 2 (two of five pairwise exclusive rays); quantum theory reaches
    sqrt(5)."""
    ct = 5.0**-0.25
    st = math.sqrt(1.0 - ct * ct)
    v = [np.array((st * math.cos(4 * math.pi * j / 5), st * math.sin(4 * math.pi * j / 5), ct))
         for j in range(5)]
    pole = canonicalize((0.0, 0.0, 1.0))
    return sum(rod_analytic(pole, orthonormal_frame(a, b, np.cross(a, b)), w)[0].probs[0]
               for a, b in zip(v, v[1:] + v[:1]))


class TestKCBS:
    def test_quantum_rod_reaches_the_quantum_bound(self):
        total = _kcbs_sum(QUANTUM)
        assert total == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert total > 2.0

    def test_uniform_variant_stays_below_the_quantum_bound(self):
        assert _kcbs_sum(UNIFORM_VARIANT) < math.sqrt(5.0)


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
        p = canonicalize((0, 1, 0))
        for trial in range(200):
            label, new_state, path = rod_sample(p, IDENT, QUANTUM, TrialStream(3, trial))
            assert label == "o2"
            assert new_state == IDENT.axes[1]
            assert set(path) == {0, 2}

    def test_symmetric_state_frequencies(self):
        emp, _ = run_trials(
            RunConfig("rod", SYMMETRIC.rep, identity_frame(), "quantum",
                      trials=1_000_000, master_seed=61),
        )
        for f in emp.frequencies:
            assert abs(f - 1.0 / 3.0) < 0.002

    def test_benchmark_frequencies(self):
        emp, _ = run_trials(
            RunConfig("rod", P_BENCH.rep, identity_frame(), "quantum",
                      trials=1_000_000, master_seed=62),
        )
        for f, p in zip(emp.frequencies, (0.5, 0.25, 0.25)):
            assert abs(f - p) < 0.002

    def test_repeatability_exact(self):
        gen = np.random.default_rng(17)
        for chain in range(10_000):
            state = canonicalize(random_unit_vector(gen).array)
            e = random_frame(gen)
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
            expected, _ = rod_analytic(ray, frame, w)
            emp, _ = run_trials(
                RunConfig("rod", ray.rep, frame, w.tag, trials=n, master_seed=8200 + k),
            )
            passed += chi_square_gof(emp, expected, alpha=0.01).passed
        assert passed >= 19

    def test_scalar_and_vector_paths_agree_bitwise(self, path):
        # a batch counts what its 1-trial calls count, and every 7th trial
        # takes the same path three ways: the scalar sampler on its own
        # stream, a 1-trial call, and the step in a growing batch's counts
        u = trial_uniforms(master_seed=40, start=0, stop=5_000, ndraws=2)
        for ray, frame, w in (
            (P_BENCH, identity_frame(), QUANTUM),
            (canonicalize((0.2, 0.9, np.sqrt(1 - 0.04 - 0.81))), identity_frame(), UNIFORM_VARIANT),
        ):
            th = thresholds(ray, frame, w)
            singles = _single_paths(ray, frame, w, u[0], u[1])
            batch = outcomes_from_uniforms(th, u[0], u[1])
            assert np.array_equal(batch, np.bincount(singles, minlength=6))
            for i in range(0, 5_000, 7):
                before, after = (outcomes_from_uniforms(th, u[0][:m], u[1][:m])
                                 for m in (i, i + 1))
                step = after - before
                assert np.flatnonzero(step).tolist() == [singles[i]]
                assert step.sum() == 1
                _, _, path = rod_sample(ray, frame, w, TrialStream(40, i))
                assert path == _PATHS[singles[i]]

    def test_boundary_uniforms_never_select_zero_weight(self):
        # eigenstate: stage-1 weight of axis 1 is zero; u1 = 0 must not pick it
        ray = canonicalize((1, 0, 0))
        s1, _ = _tree(ray, IDENT, QUANTUM)[0]
        edges = np.array([0.0, s1[1], s1[1] + s1[2], 1.0 - 2**-53])
        u2 = np.array([0.0, 0.5, 1.0 - 2**-53, 0.25])
        singles = _single_paths(ray, identity_frame(), QUANTUM, edges, u2)
        for i in singles:
            assert _OUTCOMES[i] == 0
            assert 0 not in _PATHS[i]
        counts = outcomes_from_uniforms(thresholds(ray, identity_frame(), QUANTUM), edges, u2)
        assert np.array_equal(counts, np.bincount(singles, minlength=6))

    def test_tie_on_boundary_goes_to_lowest_index(self):
        s1, _ = _tree(P_BENCH, IDENT, QUANTUM)[0]
        # u exactly on the first cumulative edge selects category 0
        (single,) = _single_paths(
            P_BENCH, identity_frame(), QUANTUM, np.array([s1[0]]), np.array([0.5])
        )
        assert _PATHS[single][0] == 0


_RETAINED = ((1, 2), (0, 2), (0, 1))


def _reference_constants(p, e, w):
    """Stage-1 cumulative sums and per-first-break stage-2 constants, as the
    nested-np.where kernel computed them: stage 1 from the ray's own
    cosines (the SkylakeX gemv's fma chain), stage 2 from the rod's stage
    tree."""
    c = np.minimum(np.abs(gemv_fma_chain(e.matrix.tolist(), p.array.tolist())), 1.0)
    w1 = np.asarray(w.fn(np.arccos(c)), dtype=float)
    s1 = w1 / float(w1.sum())
    elig = w1 > 0.0
    prob_j = np.zeros(3)
    elig_j = np.zeros(3, dtype=bool)
    elig_k = np.zeros(3, dtype=bool)
    for i, (pj, pk) in enumerate(_tree(p, e, w)[0][1]):
        prob_j[i] = pj
        elig_j[i] = pj > 0.0
        elig_k[i] = pk > 0.0
    return (s1[0], s1[0] + s1[1]), elig, prob_j, elig_j, elig_k


def _reference_outcomes(p, e, w, u1, u2):
    """The kernel before it was table-driven: nested np.where over each trial."""
    (cum0, cum1), elig, prob_j, elig_j, elig_k = _reference_constants(p, e, w)
    cand0 = elig[0] & (u1 <= cum0)
    cand1 = elig[1] & (u1 <= cum1)
    fallback = 1 if elig[1] else 0
    first = np.where(cand0, 0, np.where(cand1, 1, np.where(elig[2], 2, fallback)))
    retained = np.array(_RETAINED)
    jj = retained[first, 0]
    kk = retained[first, 1]
    pick_j = elig_j[first] & ((u2 <= prob_j[first]) | ~elig_k[first])
    second = np.where(pick_j, jj, kk)
    return 3 - first - second, first, second


def _edge_uniforms(p, e, w, gen):
    """0, 1 - 2**-53, every threshold of the kernel and its two float
    neighbours, and a few random uniforms."""
    cums, elig, prob_j, _, _ = _reference_constants(p, e, w)
    edges = [*cums, *(prob_j[i] for i in range(3) if elig[i])]
    u = {0.0, 1.0 - 2**-53}
    for x in edges:
        u.update((np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)))
    u.update(gen.random(8))
    return np.array(sorted(v for v in u if 0.0 <= v < 1.0))


# frame coordinates of the test states: eigenstates, in-plane states (a zero
# stage-2 weight after one first break), symmetric and benchmark states
_COEFFS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
           (0, 0.6, 0.8), (0.28, 0, 0.96), (1, 1, 1), (SQ2, 0.5, 0.5)]


def _kernel_cases(gen):
    """(ray, frame, weight) cases: the test states in the identity frame and
    four random ones, with four random rays each, under both weights, and
    one rounded weight whose stage-1 sum falls short of 1."""
    cases = []
    for frame in [identity_frame()] + [random_frame(gen) for _ in range(4)]:
        for a in _COEFFS + [tuple(random_unit_vector(gen).array) for _ in range(4)]:
            v = np.array(a, dtype=float) @ frame.matrix
            ray = canonicalize(v / np.linalg.norm(v))
            cases += [(ray, frame, QUANTUM), (ray, frame, UNIFORM_VARIANT)]
    # A weight that vanishes on axis 3 and whose other two stage-1
    # probabilities round to a sum below 1 - 2**-53: u1 = 1 - 2**-53 passes
    # both thresholds and must fall back to an eligible tie.
    ray = canonicalize((0.6, 0.0, 0.8))
    angles = np.arccos([0.8, 0.6, 0.0])
    rounded = BreakWeight("rounded", lambda t: np.interp(t, angles, [0.0, 0.07, 0.08]))
    (_, cum1), elig, *_ = _reference_constants(ray, identity_frame(), rounded)
    assert not elig[2] and cum1 < 1.0 - 2**-53
    cases.append((ray, identity_frame(), rounded))
    return cases


def test_table_driven_kernel_matches_the_nested_where_reference(path):
    gen = np.random.default_rng(2208)
    cases = _kernel_cases(gen)
    # every stage-1 eligibility pattern is covered; (True, False, True) is
    # the one that needs t1 = t0 rather than -1
    patterns = {tuple(map(bool, _reference_constants(*case)[1])) for case in cases}
    assert patterns >= {(True,) * 3, (False, True, True), (True, False, True),
                        (True, True, False)}

    # (outcome, first, second) of each path, one column per path
    table = np.array([_OUTCOMES, *zip(*_PATHS)])
    for ray, frame, w in cases:
        u = _edge_uniforms(ray, frame, w, gen)
        u1, u2 = (x.ravel() for x in np.meshgrid(u, u))
        singles = _single_paths(ray, frame, w, u1, u2)
        want = _reference_outcomes(ray, frame, w, u1, u2)
        for g, r, name in zip(table[:, singles], want, ("outcome", "first", "second")):
            assert np.array_equal(g, r), (name, ray, frame, w.tag)
        # the grid's six counts: path (first, second) is 2 * first, plus 1
        # when second is the higher of the two retained axes
        outcome, first, second = want
        counts = outcomes_from_uniforms(thresholds(ray, frame, w), u1, u2)
        assert counts.dtype == np.int64
        want_paths = 2 * first + (second > outcome)
        assert np.array_equal(counts, np.bincount(want_paths, minlength=6)), (ray, w.tag)


def test_counts_equal_the_sum_of_one_trial_calls(path):
    u = trial_uniforms(master_seed=41, start=0, stop=65_537, ndraws=2)
    frame = random_frame(np.random.default_rng(41))
    w = UNIFORM_VARIANT
    th = thresholds(P_BENCH, frame, w)
    singles = _single_paths(P_BENCH, frame, w, u[0], u[1])
    for n in (0, 1, 65_535, 65_536, 65_537):
        counts = outcomes_from_uniforms(th, u[0][:n], u[1][:n])
        assert counts.dtype == np.int64 and counts.shape == (6,)
        assert np.array_equal(counts, np.bincount(singles[:n], minlength=6)), n


def test_c_and_numpy_count_steps_agree_on_edge_inputs(monkeypatch):
    # rod_count makes the numpy body's compares: on the threshold grids, on
    # NaN, -0.0, 1.0 and values outside [0, 1] in either row, on strided
    # views and on no trials, both paths count the same six paths. Each row
    # and column of a grid is its own call, so a disagreement names its draw.
    if native.LIBRARY.load() is None:
        pytest.skip("the C library did not load: no C compiler")

    def numpy_counts(th, u1, u2):
        with monkeypatch.context() as m:
            m.setattr(native.LIBRARY, "load", lambda: None)
            return outcomes_from_uniforms(th, u1, u2)

    gen = np.random.default_rng(2303)
    cases = _kernel_cases(gen)
    ths = [thresholds(*case) for case in cases]
    # tie 0 ineligible (t0 = -1), tie 1 ineligible (t1 = t0 >= 0), tie 2
    # ineligible (t1 = 2.0), and an ineligible stage-2 pick (r_s = -1.0)
    assert {th[0] == -1.0 for th in ths} == {True, False}
    assert any(th[1] == th[0] != -1.0 for th in ths)
    assert any(th[1] == 2.0 for th in ths)
    assert any(-1.0 in th[2:] for th in ths)
    special = [np.nan, -0.0, 1.0, -0.25, 1.5, 2.0, -np.inf, np.inf]
    for case, th in zip(cases, ths):
        u = np.concatenate([_edge_uniforms(*case, gen), special])
        grid = np.stack(np.meshgrid(u, u))  # grid[0] varies u1 along a row, grid[1] u2
        calls = [*zip(grid[0], grid[1]), *zip(grid[0].T, grid[1].T)]
        flat = grid.reshape(2, -1)
        calls += [flat, flat[:, ::3], flat[:, :0]]
        for u1, u2 in calls:
            got = outcomes_from_uniforms(th, u1, u2)
            assert np.array_equal(got, numpy_counts(th, u1, u2)), (case[2].tag, th, u1, u2)
        assert outcomes_from_uniforms(th, *flat[:, :0]).tolist() == [0] * 6


def test_path_counts_match_the_paper_path_identity():
    # Monte Carlo: every path count within 5 sigma of N times its exact
    # probability; for the quantum weight, both paths that end on axis k
    # carry cos^2(theta_k) / 2 (the paper's route to the Born rule)
    n = 1 << 20
    u = trial_uniforms(master_seed=20261018, start=0, stop=n, ndraws=2)
    gen = np.random.default_rng(1018)
    for frame in [IDENT] + [random_frame(gen) for _ in range(3)]:
        cos2 = (frame.matrix @ P_BENCH.array) ** 2
        for w in (QUANTUM, UNIFORM_VARIANT):
            counts = outcomes_from_uniforms(thresholds(P_BENCH, frame, w), u[0], u[1])
            _, path_probs = rod_analytic(P_BENCH, frame, w)
            probs = np.array(path_probs)
            assert counts.sum() == n
            sigma = np.sqrt(n * probs * (1.0 - probs))
            assert np.all(np.abs(counts - n * probs) <= 5.0 * sigma), (w.tag, counts)
            by_outcome = [0, 0, 0]
            for c, k in zip(counts, _OUTCOMES):
                by_outcome[k] += c
            assert np.array_equal(fold_paths(counts), by_outcome)
            if w is QUANTUM:
                for k, prob in zip(_OUTCOMES, probs):
                    assert abs(prob - cos2[k] / 2.0) < 1e-12


def test_fold_paths_is_the_one_hot_matmul():
    # outcome k sums the two paths that leave axis k standing: the product
    # with the one-hot path-to-outcome matrix, on random, zero and huge counts
    one_hot = np.eye(3, dtype=np.int64)[list(_OUTCOMES)]
    gen = np.random.default_rng(36)
    cases = [np.zeros(6, dtype=np.int64), np.arange(6, dtype=np.int64),
             *gen.integers(0, 1 << 20, size=(50, 6)), *gen.integers(0, 1 << 40, size=(50, 6)),
             *((1 << 62) - gen.integers(0, 1 << 20, size=(50, 6)))]
    for counts in cases:
        got = fold_paths(counts)
        assert got.dtype == np.int64 and got.shape == (3,)
        assert got.tolist() == (counts @ one_hot).tolist()


def test_draws_of_different_lengths_are_rejected():
    th = thresholds(P_BENCH, IDENT, QUANTUM)
    u = np.full(5, 0.5)
    for u1, u2 in ((u, u[:1]), (u[:1], u), (u, np.full(7, 0.5))):
        with pytest.raises(ValueError, match="u1 and u2"):
            outcomes_from_uniforms(th, u1, u2)


def test_paths_are_the_six_ordered_pairs_of_distinct_axes():
    # each (first, second) broken pair once, and each path's outcome the
    # axis it leaves standing
    assert len(_PATHS) == len(_OUTCOMES) == 6
    assert sorted(_PATHS) == sorted(itertools.permutations(range(3), 2))
    for (first, second), k in zip(_PATHS, _OUTCOMES):
        assert {first, second, k} == {0, 1, 2}


def _mask_paths(th, u1, u2):
    """Each trial's ``_PATHS`` index from the numpy count step's compares:
    tie 0 breaks first if u1 <= t0, tie 2 if u1 > t1, else tie 1; then
    retained axis 0 of first break s if u2 <= r_s, else retained axis 1."""
    t0, t1, *r = th
    first = np.where(u1 <= t0, 0, np.where(u1 > t1, 2, 1))
    return 2 * first + (u2 > np.array(r)[first])


@pytest.mark.parametrize("angle", [math.pi / 7, math.pi / 4, 1.2],
                         ids=["pi-over-7", "pi-over-4", "1.2"])
def test_outcomes_are_contextual_where_quantum_probabilities_are_not(angle):
    # Kochen and Specker (1967): no non-contextual assignment of single
    # outcomes exists in dimension 3. Two frames share axis 0, and the
    # quantum rod gives it one probability in both; yet on the same draws
    # the verdict "the rod falls on axis 0" differs on over 10 % of trials
    p = canonicalize((0.7071067811865476, 0.5, 0.5))
    u1, u2 = trial_uniforms(7, 0, 2**16, 2)
    frames = (IDENT, rotate_frame_about_axis(IDENT, 0, angle))
    assert frames[1].axes[0] == IDENT.axes[0]
    probs, on_axis_0 = [], []
    for e in frames:
        th = thresholds(p, e, QUANTUM)
        paths = _mask_paths(th, u1, u2)
        # the per-trial oracle counts what the count step counts
        assert np.array_equal(np.bincount(paths, minlength=6),
                              outcomes_from_uniforms(th, u1, u2))
        on_axis_0.append(np.array(_OUTCOMES)[paths] == 0)
        probs.append(rod_analytic(p, e, QUANTUM)[0].probs[0])
    assert abs(probs[0] - probs[1]) <= 1e-12
    assert np.count_nonzero(on_axis_0[0] != on_axis_0[1]) >= 0.10 * len(u1)


def _tree_bits(entry):
    """Every float of a ``_tree`` entry, the stages and the table, as
    ``float.hex`` strings, so that 0.0 and -0.0 and the last bit all count."""
    (s1, s2), (dist, path_probs) = entry
    assert dist.labels == LABELS
    return ([x.hex() for x in s1], [[x.hex() for x in pair] for pair in s2],
            [x.hex() for x in dist.probs], [x.hex() for x in path_probs])


def _fresh_bits(p, e, w):
    _tree.cache_clear()
    return _tree_bits(_tree(p, e, w))


def _signed_zero_twins():
    """(ray, frame) pairs, each with a twin equal to it but for the sign of
    zero components: the ray's, the frame's, or both. The two share one
    memo key (0.0 == -0.0)."""
    near = 1.0 - 2.0**-53

    def flipped(xyz):
        return [-v if v == 0.0 else v for v in xyz]

    def frame(rows):
        return Frame(tuple(tuple(row) for row in rows))

    for e in (IDENT, rotate_frame_about_axis(IDENT, 2, 0.7)):
        rows = e.matrix.tolist()
        f = frame([flipped(row) for row in rows])
        for xyz in ((0.6, 0.8, 0.0), (0.0, 0.6, 0.8), (1.0, 0.0, 0.0), (0.0, 0.0, near)):
            p, q = Ray(UnitVector(*xyz)), Ray(UnitVector(*flipped(xyz)))
            yield (p, frame(rows)), (q, f)
            yield (p, frame(rows)), (p, f)
            yield (p, frame(rows)), (q, frame(rows))


def _input_bits(p, e):
    return [v.hex() for v in (p.rep.x, p.rep.y, p.rep.z, *e.matrix.ravel().tolist())]


class TestTreeMemo:
    """``_tree`` keeps one entry, the whole table, keyed by the value of
    (ray, frame, weight)."""

    def test_a_hit_is_the_fresh_tree_bit_for_bit(self):
        gen = np.random.default_rng(26)
        pairs = [(canonicalize(random_unit_vector(gen).array), random_frame(gen))
                 for _ in range(100)]
        for w in WEIGHTS.values():
            for ray, frame in pairs:
                fresh = _fresh_bits(ray, frame, w)
                hits = _tree.cache_info().hits
                assert _tree_bits(_tree(ray, frame, w)) == fresh
                assert _tree.cache_info().hits == hits + 1
            for (ray, frame), (twin, twin_frame) in _signed_zero_twins():
                assert (ray, frame) == (twin, twin_frame)
                assert _input_bits(ray, frame) != _input_bits(twin, twin_frame)
                fresh = _fresh_bits(twin, twin_frame, w)
                _tree.cache_clear()
                _tree(ray, frame, w)
                hits = _tree.cache_info().hits
                assert _tree_bits(_tree(twin, twin_frame, w)) == fresh
                assert _tree.cache_info().hits == hits + 1

    def test_a_change_of_ray_frame_or_weight_gives_the_fresh_tree(self):
        base = (P_BENCH, IDENT, QUANTUM)
        for changed in ((canonicalize((0.6, 0.8, 0.0)), IDENT, QUANTUM),
                        (P_BENCH, random_frame(np.random.default_rng(3)), QUANTUM),
                        (P_BENCH, IDENT, UNIFORM_VARIANT)):
            fresh = _fresh_bits(*changed)
            table, constants = rod_analytic(*changed), thresholds(*changed)
            # the base tree is kept, and the changed input must not read it
            assert _fresh_bits(*base) != fresh
            assert _tree_bits(_tree(*changed)) == fresh
            _tree(*base)
            assert rod_analytic(*changed) == table
            _tree(*base)
            assert thresholds(*changed) == constants

    def test_a_hit_of_rod_analytic_returns_the_kept_table(self):
        # a hit builds nothing: rod_analytic hands out the kept table itself,
        # whose floats are those of a fresh call (see the test above)
        gen = np.random.default_rng(35)
        for w in WEIGHTS.values():
            for _ in range(20):
                ray, frame = canonicalize(random_unit_vector(gen).array), random_frame(gen)
                table = rod_analytic(ray, frame, w)
                assert rod_analytic(ray, frame, w) is table
                assert _tree(ray, frame, w)[1] is table

    def test_thresholds_after_rod_analytic_on_one_triple_is_a_hit(self):
        for p in (P_BENCH, SYMMETRIC, canonicalize((1, 0, 0)), canonicalize((0.6, 0.8, 0.0))):
            for w in WEIGHTS.values():
                _tree.cache_clear()
                rod_analytic(p, IDENT, w)
                info = _tree.cache_info()
                constants = thresholds(p, IDENT, w)
                assert _tree.cache_info().hits == info.hits + 1
                assert _tree.cache_info().misses == info.misses
                _tree.cache_clear()
                assert thresholds(p, IDENT, w) == constants

    def test_a_rejected_input_raises_on_every_call(self):
        dead = BreakWeight("dead", lambda t: 0.0 * np.asarray(t))
        for _ in range(3):
            with pytest.raises(ValueError, match="degenerate frame/state"):
                _tree(P_BENCH, IDENT, dead)
        assert _tree.cache_info().currsize == 0
        # nor does it take the place of the kept table
        table = rod_analytic(P_BENCH, IDENT, QUANTUM)
        for call in (rod_analytic, thresholds, _tree) * 2:
            with pytest.raises(ValueError, match="degenerate frame/state"):
                call(P_BENCH, IDENT, dead)
        hits = _tree.cache_info().hits
        assert rod_analytic(P_BENCH, IDENT, QUANTUM) is table
        assert _tree.cache_info().hits == hits + 1
