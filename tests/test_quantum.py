import math

import numpy as np
import pytest
from scipy import optimize

from bornsim.geometry import (
    canonicalize,
    direction_cosines,
    identity_frame,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    rotate_frame_about_axis,
)
from bornsim.quantum import (
    FrameAdditivityReport,
    born_probabilities,
    frame_additivity_check,
    gleason_measure,
    state_vector,
)
from bornsim.rod import BreakWeight, QUANTUM, UNIFORM_VARIANT, marginal_measure, rod_analytic

from conftest import numpy_dot_is_the_chain, random_ray_frame_pairs
from oracles import dot_fma_chain

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
PSI_BENCH = state_vector((SQ2, 0.5, 0.5))


class TestBorn:
    def test_eigenstate(self):
        d = born_probabilities(state_vector((1, 0, 0)), identity_frame())
        assert d.probs == (1.0, 0.0, 0.0)

    def test_symmetric(self):
        d = born_probabilities(state_vector((SQ3, SQ3, SQ3)), identity_frame())
        assert np.allclose(d.probs, [1 / 3] * 3, atol=1e-15)

    def test_benchmark(self):
        d = born_probabilities(PSI_BENCH, identity_frame())
        assert np.allclose(d.probs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="3 components"):
            state_vector((1, 0))

    def test_equals_squared_direction_cosines(self, rng):
        for _ in range(500):
            v = random_unit_vector(rng)
            frame = random_frame(rng)
            ray = canonicalize(v.array)
            d = born_probabilities(state_vector(v.array), frame)
            c = direction_cosines(ray, frame)
            assert np.allclose(d.probs, np.array(c) ** 2, atol=1e-12)

    def test_normalized(self, rng):
        for _ in range(500):
            d = born_probabilities(
                state_vector(random_unit_vector(rng).array), random_frame(rng)
            )
            assert abs(sum(d.probs) - 1.0) < 1e-12

    def test_equals_the_gleason_measure_bitwise(self):
        # the Born rule is the Gleason measure of each axis, to the last bit
        for v, frame in random_ray_frame_pairs(seed=1957, n=2000):
            psi = state_vector(v.array)
            measure = gleason_measure(psi)
            probs = born_probabilities(psi, frame).probs
            assert probs == tuple(measure(frame, i) for i in range(3))


class TestStateVector:
    def test_normalizes_input(self):
        psi = state_vector((3.0, 4.0, 0.0))
        assert (psi.x, psi.y, psi.z) == (0.6, 0.8, 0.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            state_vector((0.0, 0.0, 0.0))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            state_vector((1.0,))
        with pytest.raises(ValueError):
            state_vector((1.0, 0.0, 0.0, 0.0))

    def test_equals_division_by_the_chain_norm_on_every_kernel(self, rng):
        for scale in (1e-5, 1.0, 1e5, 1e100):
            for _ in range(500):
                v = scale * rng.standard_normal(3)
                want = v / math.sqrt(dot_fma_chain(v.tolist(), v.tolist()))
                assert state_vector(v).array.tolist() == want.tolist()

    @numpy_dot_is_the_chain
    def test_equals_plain_division_by_the_norm(self, rng):
        # the overflow-safe normalization gives the same bits as v / |v|
        for scale in (1e-5, 1.0, 1e5, 1e100):
            for _ in range(500):
                v = scale * rng.standard_normal(3)
                assert state_vector(v).array.tolist() == (v / np.linalg.norm(v)).tolist()


class TestGleasonMeasure:
    def test_own_ray(self):
        m = gleason_measure(PSI_BENCH)
        f = orthonormal_frame(PSI_BENCH.array, (0, 1, 0), (0, 0, 1))
        assert m(f, 0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_ray(self):
        m = gleason_measure(state_vector((1, 0, 0)))
        f = identity_frame()
        assert m(f, 1) == 0.0

    def test_axis_value(self):
        m = gleason_measure(PSI_BENCH)
        f = identity_frame()
        assert m(f, 1) == pytest.approx(0.25, abs=1e-12)

    def test_frame_independent_on_shared_axis_pairs(self, rng):
        # the value on a ray does not depend on the frame it sits in
        m = gleason_measure(PSI_BENCH)
        for _ in range(1000):
            f = random_frame(rng)
            axis = int(rng.integers(0, 3))
            g = rotate_frame_about_axis(f, axis, float(rng.uniform(0.1, 1.4)))
            assert g.axes[axis] == f.axes[axis]
            assert m(f, axis) == m(g, axis)

    def test_equals_the_exact_fma_replica_on_every_kernel(self):
        # <psi, x> is the fma chain in term order 0, 1, 2, whatever the BLAS
        # kernel; the pinned state's products are too exact to show that
        for v, frame in random_ray_frame_pairs(seed=1957, n=2000):
            measure, psi = gleason_measure(v), (v.x, v.y, v.z)
            for axis, row in enumerate(frame.matrix.tolist()):
                a = dot_fma_chain(row, psi)
                # a * a, as the measure squares it: libm's pow (a ** 2) may round otherwise
                assert measure(frame, axis) == min(a * a, 1.0)


class TestFrameAdditivity:
    def test_gleason_sums_to_one(self, rng):
        frames = [random_frame(rng) for _ in range(1000)]
        g = gleason_measure(PSI_BENCH)
        report = frame_additivity_check(g, frames)
        assert isinstance(report, FrameAdditivityReport)
        assert report.frames_checked == 1000
        assert report.max_deviation < 1e-12
        assert report.additive

    def test_quantum_rod_marginal_is_additive_and_equals_born(self, rng):
        frames = [random_frame(rng) for _ in range(200)]
        measure = marginal_measure(canonicalize(PSI_BENCH.array), QUANTUM)
        report = frame_additivity_check(measure, frames)
        assert report.max_deviation < 1e-12
        g = gleason_measure(PSI_BENCH)
        for f in frames[:50]:
            for axis in range(3):
                assert measure(f, axis) == pytest.approx(g(f, axis), abs=1e-12)

    def test_variant_marginal_sums_to_one_but_is_frame_dependent(self, rng):
        # still a probability distribution per frame...
        frames = [random_frame(rng) for _ in range(200)]
        measure = marginal_measure(canonicalize(PSI_BENCH.array), UNIFORM_VARIANT)
        report = frame_additivity_check(measure, frames)
        assert report.max_deviation < 1e-12
        # ...but the same ray gets different values in two frames sharing it:
        # identity frame vs the same frame rotated pi/4 about axis 0
        f1 = identity_frame()
        f2 = rotate_frame_about_axis(f1, 0, math.pi / 4)
        assert f2.axes[0] == f1.axes[0]
        v1 = measure(f1, 0)
        v2 = measure(f2, 0)
        assert abs(v1 - v2) > 0.01
        # frozen from the tree oracle: 0.415968... vs exactly 0.5
        assert v1 == pytest.approx(0.415968151066566, abs=1e-12)
        assert v2 == pytest.approx(0.5, abs=1e-12)


def _mixed(lam):
    """w = (1 - lam) sin^2 + lam sin: the quantum weight at lam = 0, the
    uniform variant at lam = 1."""
    return BreakWeight(f"mixed-{lam}", lambda t: (1.0 - lam) * np.sin(t) ** 2 + lam * np.sin(t))


def _power(k):
    return BreakWeight(f"sin^{k}", lambda t: np.sin(t) ** k)


def test_of_the_weight_families_only_sin_squared_gives_a_frame_function():
    # Gleason (1957): a frame function in dimension 3 is a quadratic form in
    # the ray, so it cannot depend on the frame around it. Of the rod's
    # weights scanned, only sin^2 gives a marginal that takes one value on
    # a ray in every frame; the spread grows the further a weight is from it
    gen = np.random.default_rng(1957)
    cases = []
    for _ in range(200):
        ray = canonicalize(random_unit_vector(gen).array)
        e = random_frame(gen)
        axis = int(gen.integers(3))
        cases.append((ray, e, rotate_frame_about_axis(e, axis, float(gen.uniform(0.1, 1.4))),
                      axis))

    def spread(w):
        """The largest |P_e(axis) - P_rot(e)(axis)| over the cases."""
        return max(abs(rod_analytic(ray, e, w)[0].probs[axis]
                       - rod_analytic(ray, g, w)[0].probs[axis])
                   for ray, e, g, axis in cases)

    mixed = [spread(_mixed(lam)) for lam in (0.0, 0.05, 0.25, 0.5, 1.0)]
    squared = spread(_power(2))
    below = [squared, *(spread(_power(k)) for k in (1.5, 1, 0.5))]
    above = [squared, *(spread(_power(k)) for k in (2.5, 3, 4))]
    for family in (mixed, below, above):
        assert family[0] <= 1e-12, family
        assert family[1] > 1e-3, family
        assert all(a < b for a, b in zip(family[1:], family[2:])), family


def _fit_targets(weight, n_frames=50, seed=424242):
    """Variant (or quantum) marginals over random frames, as (rays, values)."""
    gen = np.random.default_rng(seed)
    measure = marginal_measure(canonicalize(PSI_BENCH.array), weight)
    rays, targets = [], []
    for _ in range(n_frames):
        f = random_frame(gen)
        for axis, ax in enumerate(f.axes):
            rays.append(ax.rep.array)
            targets.append(measure(f, axis))
    return np.array(rays), np.array(targets)


def _best_pure_state_residual(rays, targets, starts=40, seed=7):
    gen = np.random.default_rng(seed)

    def residual(psi):
        psi = psi / np.linalg.norm(psi)
        return float(np.sum(((rays @ psi) ** 2 - targets) ** 2))

    best = math.inf
    for _ in range(starts):
        res = optimize.minimize(
            residual,
            gen.standard_normal(3),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000},
        )
        best = min(best, float(res.fun))
    return best


class TestVariantIsNotAStateVectorMeasure:
    def test_least_squares_fit_leaves_large_residual(self):
        rays, targets = _fit_targets(UNIFORM_VARIANT)
        # lower bound: even the best symmetric quadratic form cannot fit
        design = np.column_stack(
            [
                rays[:, 0] ** 2, rays[:, 1] ** 2, rays[:, 2] ** 2,
                2 * rays[:, 0] * rays[:, 1],
                2 * rays[:, 0] * rays[:, 2],
                2 * rays[:, 1] * rays[:, 2],
            ]
        )
        _, res, *_ = np.linalg.lstsq(design, targets, rcond=None)
        assert float(res[0]) > 1e-3
        # and the constrained pure-state fit is no better
        assert _best_pure_state_residual(rays, targets) > 1e-3

    def test_control_quantum_marginals_are_fit_exactly(self):
        rays, targets = _fit_targets(QUANTUM)
        assert _best_pure_state_residual(rays, targets, starts=20) < 1e-12
