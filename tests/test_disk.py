import math

import numpy as np
import pytest

from bornsim import disk
from bornsim.disk import (
    DiskState,
    LABELS,
    basis_dots,
    disk_analytic,
    disk_measure,
    hidden_from_uniforms,
    initial_state,
    sample_hidden,
    up_indices,
)
from bornsim.geometry import random_unit_vector, tangent_basis, unit_vector, vector_angle
from bornsim.stats import RunConfig, run_trials
from bornsim.streams import trial_uniforms

from oracles import binomial_bound, disk_mean_cos_oracle, disk_up_oracle

EZ = unit_vector(0.0, 0.0, 1.0)


def direction_at(theta: float) -> unit_vector:
    return unit_vector(math.sin(theta), 0.0, math.cos(theta))


class TestHiddenSampling:
    def test_support_is_open_upper_hemisphere(self):
        u = trial_uniforms(master_seed=31, start=0, stop=100_000, ndraws=2)
        pts = hidden_from_uniforms(EZ.array, u[0], u[1])
        assert np.all(pts @ EZ.array > 0.0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_mean_cosine_matches_density_integral(self):
        # quadrature oracle: integral of cos * density over the half sphere
        oracle = disk_mean_cos_oracle()
        assert abs(oracle - 2.0 / 3.0) < 1e-9
        u = trial_uniforms(master_seed=32, start=0, stop=1_000_000, ndraws=2)
        pts = hidden_from_uniforms(EZ.array, u[0], u[1])
        mean_cos = float(np.mean(pts @ EZ.array))
        assert abs(mean_cos - oracle) < 0.002

    def test_small_cap_mass_is_disk_area_fraction(self):
        # P(angle < pi/4) equals the disk-area fraction sin^2(pi/4) = 1/2
        u = trial_uniforms(master_seed=33, start=0, stop=1_000_000, ndraws=2)
        pts = hidden_from_uniforms(EZ.array, u[0], u[1])
        frac = float(np.mean(pts @ EZ.array > math.cos(math.pi / 4)))
        assert abs(frac - 0.5) < 0.002

    def test_scalar_sampler_matches_vector_path(self):
        class TwoDraws:
            def __init__(self, a, b):
                self.vals = [a, b]

            def random(self):
                return self.vals.pop(0)

        t = sample_hidden(EZ, TwoDraws(0.3, 0.8))
        ref = hidden_from_uniforms(EZ.array, 0.3, 0.8)[0]
        assert (t.x, t.y, t.z) == (ref[0], ref[1], ref[2])

    def test_state_guard_rejects_lower_hemisphere_hidden(self):
        with pytest.raises(ValueError):
            DiskState(EZ, unit_vector(0.0, 0.0, -1.0))


class TestMeasurement:
    def test_same_direction_always_up(self, rng):
        for _ in range(5_000):
            s = initial_state(EZ, rng)
            label, _ = disk_measure(s, EZ, rng)
            assert label == "up"

    def test_opposite_direction_never_up(self, rng):
        for _ in range(5_000):
            s = initial_state(EZ, rng)
            label, _ = disk_measure(s, -EZ, rng)
            assert label == "down"

    def test_orthogonal_direction_is_even(self):
        q = unit_vector(1.0, 0.0, 0.0)
        emp, _ = run_trials(RunConfig("ks", EZ, q, trials=1_000_000, master_seed=77))
        oracle = disk_up_oracle(math.pi / 2)
        assert abs(oracle - 0.5) < 1e-9
        assert abs(emp.frequencies[0] - 0.5) < 0.002

    def test_collapse_and_fresh_hidden_state(self, rng):
        s = initial_state(EZ, rng)
        q = unit_vector(1.0, 0.0, 0.0)
        label, new = disk_measure(s, q, rng)
        assert new.p in (q, -q)
        assert new.t.dot(new.p) > 0.0
        assert (new.p == q) == (label == "up")

    def test_kernel_outcomes_match_record_semantics(self):
        # each trial's step in a growing batch's counts is its 1-trial call's
        # counts, and both follow the per-trial decision
        dots = basis_dots(EZ.array, direction_at(1.1).array)
        u = trial_uniforms(master_seed=5, start=0, stop=2_000, ndraws=2)
        singles = np.array([up_indices(dots, u[0][i : i + 1], u[1][i : i + 1]) for i in range(2_000)])
        prefixes = np.array([up_indices(dots, u[0][:m], u[1][:m]) for m in range(2_001)])
        assert np.array_equal(np.diff(prefixes, axis=0), singles)
        assert np.array_equal(singles[:, 1], disk._down(dots, u[0], u[1]))
        assert np.all(singles.sum(axis=1) == 1)


    def test_kernel_and_scalar_path_agree_on_outcomes(self):
        # the scalar path materializes t before taking t.q, so the two t.q
        # values may differ in the last bits; the outcomes must not, away
        # from the equator tie
        class Draws:
            def __init__(self, *values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(13):
            p, q = random_unit_vector(rng), random_unit_vector(rng)
            u1, u2 = rng.random(800), rng.random(800)
            dots = basis_dots(p.array, q.array)
            kernel = disk._down(dots, u1, u2)
            assert np.array_equal(up_indices(dots, u1, u2), [800 - kernel.sum(), kernel.sum()])
            tq = hidden_from_uniforms(p.array, u1, u2) @ q.array
            for i in np.flatnonzero(np.abs(tq) > 1e-12):
                s = initial_state(p, Draws(u1[i], u2[i]))
                label, _ = disk_measure(s, q, Draws(0.5, 0.5))
                assert LABELS.index(label) == kernel[i]
                compared += 1
        assert compared >= 10_000


class TestBornAgreement:
    def test_fifty_random_pairs_at_one_million(self):
        # up-frequency within 5 sigma of cos^2(theta/2); closed form is
        # cross-checked against the density-integration oracle per pair
        gen = np.random.default_rng(271828)
        n = 1_000_000
        for k in range(50):
            p = random_unit_vector(gen)
            q = random_unit_vector(gen)
            theta = vector_angle(p, q)
            born = math.cos(theta / 2.0) ** 2
            assert abs(disk_up_oracle(theta) - born) < 1e-6
            emp, _ = run_trials(
                RunConfig("ks", p, q, trials=n, master_seed=9100 + k),
            )
            assert abs(emp.frequencies[0] - born) <= binomial_bound(born, n)

    def test_analytic_distribution(self):
        d = disk_analytic(direction_at(math.pi / 3), EZ)
        assert d.labels == LABELS
        assert d.probs[0] == pytest.approx(math.cos(math.pi / 6) ** 2, abs=1e-12)
        assert d.probs[0] + d.probs[1] == 1.0

    def test_repeatability_over_chains(self, rng):
        q = direction_at(0.9)
        for chain in range(10_000):
            s = initial_state(random_unit_vector(rng), rng)
            first, collapsed = disk_measure(s, q, rng)
            second, _ = disk_measure(collapsed, q, rng)
            assert first == second


def _reference_up_indices(p, q, u1, u2):
    """The kernel before it filtered: one float64 pass over every trial."""
    a, b = tangent_basis(p)
    aq = float(a @ q)
    bq = float(b @ q)
    pq = float(p @ q)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    st = np.sqrt(u1)
    ct = np.sqrt(1.0 - u1)
    phi = 2.0 * math.pi * u2
    tq = st * (np.cos(phi) * aq + np.sin(phi) * bq) + ct * pq
    return (tq <= 0.0).astype(np.int64)


def _float32_pass_only(p, q, u1, u2):
    """What the kernel would decide with its float64 pass left out."""
    a, b = tangent_basis(p)
    tq = disk._t_dot_q(u1, u2, float(a @ q), float(b @ q), float(p @ q), np.float32)
    return (tq <= 0.0).astype(np.int64)


def _crossing_uniforms(p, q, u1, grid=64, ulps=3):
    """u2 values at the float64 neighbours of every zero crossing of t.q at
    each u1: sign changes on a grid, narrowed by bisection on the reference
    kernel to two adjacent floats, then ``ulps`` more floats on either side."""
    u1 = np.repeat(u1, grid)
    u2 = np.tile(np.arange(grid) / grid, len(u1) // grid)
    down = _reference_up_indices(p, q, u1, u2)
    flips = np.flatnonzero((down[:-1] != down[1:]) & (u1[:-1] == u1[1:]))
    x, lo, hi = u1[flips], u2[flips], u2[flips + 1]
    lo_down = down[flips]
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not open_.any():
            break
        same = _reference_up_indices(p, q, x, mid) == lo_down
        lo = np.where(open_ & same, mid, lo)
        hi = np.where(open_ & ~same, mid, hi)
    assert np.array_equal(np.nextafter(lo, 1.0), hi)
    u1s, u2s = [x, x], [lo, hi]
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        u1s += [x, x]
        u2s += [lo, hi]
    return np.concatenate(u1s), np.concatenate(u2s)


def _decision_cases(gen):
    """(p, q) pairs: random, p = q, p = -q, and p perpendicular to q (exactly
    on the axes, and to rounding for random p)."""
    cases = [(random_unit_vector(gen).array, random_unit_vector(gen).array) for _ in range(12)]
    for _ in range(3):
        p = random_unit_vector(gen).array
        perp = np.cross(p, random_unit_vector(gen).array)
        cases += [(p, p), (p, -p), (p, perp / np.linalg.norm(perp))]
    ez, ex = EZ.array, np.array([1.0, 0.0, 0.0])
    cases += [(ez, ez), (ez, -ez), (ez, ex), (ex, ez)]
    return cases


def test_filtered_kernel_decides_as_the_one_pass_reference():
    gen = np.random.default_rng(1997)
    float32_wrong = 0
    for p, q in _decision_cases(gen):
        edge = np.array([0.0, 1.0 - 2**-53])
        u1c, u2c = _crossing_uniforms(p, q, np.concatenate([edge, gen.random(30)]))
        u1 = np.concatenate([u1c, np.repeat(edge, 200), gen.random(2_000)])
        u2 = np.concatenate([u2c, gen.random(400), gen.random(2_000)])
        want = _reference_up_indices(p, q, u1, u2)
        dots = basis_dots(p, q)
        assert np.array_equal(disk._down(dots, u1, u2), want), (p, q)
        counts = up_indices(dots, u1, u2)
        assert counts.dtype == np.int64
        assert counts.tolist() == [len(want) - want.sum(), want.sum()], (p, q)
        float32_wrong += int(np.sum(_float32_pass_only(p, q, u1, u2) != want))
    # the crossings are close enough to the equator that float32 trig alone
    # gets some of them wrong, so the float64 pass is what this test checks
    assert float32_wrong > 0


@pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537])
def test_filtered_kernel_matches_the_reference_on_planted_crossings(n):
    gen = np.random.default_rng(n)
    p, q = random_unit_vector(gen).array, random_unit_vector(gen).array
    u1c, u2c = _crossing_uniforms(p, q, gen.random(200))
    # crossings on the first and last 50 trials and on about 65 others,
    # random trials between
    k = np.arange(n)
    pick = gen.integers(0, len(u1c), n)
    planted = (k < 50) | (k >= n - 50) | (gen.random(n) < 1e-3)
    u1 = np.where(planted, u1c[pick], gen.random(n))
    u2 = np.where(planted, u2c[pick], gen.random(n))
    want = _reference_up_indices(p, q, u1, u2)
    dots = basis_dots(p, q)
    counts = up_indices(dots, u1, u2)
    assert counts.dtype == np.int64
    assert counts.tolist() == [n - want.sum(), want.sum()]
    # every planted trial, through the kernel: its step in the counts of a
    # growing prefix
    at = np.flatnonzero(planted)
    prefix = {m: up_indices(dots, u1[:m], u2[:m]) for m in {*at, *(at + 1)}}
    for i in at:
        assert prefix[i + 1].tolist() == [prefix[i][0] + 1 - want[i], prefix[i][1] + want[i]], i


def test_draws_of_different_lengths_are_rejected():
    dots = basis_dots(EZ.array, direction_at(1.0).array)
    u = np.full(5, 0.5)
    for u1, u2 in ((u, u[:1]), (u[:1], u), (u, np.full(7, 0.5))):
        with pytest.raises(ValueError, match="u1 and u2"):
            up_indices(dots, u1, u2)


def test_float32_trig_stays_inside_the_kernel_margin():
    """The float32 pass is safe while cos and sin of the azimuth rounded to
    float32 stay within 2**-20 of float64 cos and sin of the azimuth (see
    ``disk._down``). A platform whose float32 trig breaks this fails
    here instead of moving counts."""
    gen = np.random.default_rng(20)
    two_pi = 2.0 * math.pi
    # float32 values of k pi/2 and 8 float32 neighbours on either side
    below = above = (np.arange(5) * (math.pi / 2)).astype(np.float32)
    near_quarters = [below]
    for _ in range(8):
        below = np.nextafter(below, np.float32(-1))
        above = np.nextafter(above, np.float32(8))
        near_quarters += [below, above]
    phi = np.concatenate([
        two_pi * gen.random(1_000_000),
        np.concatenate(near_quarters).astype(float),
        [np.nextafter(two_pi, 0.0), two_pi * (1.0 - 2**-53)],
    ])
    phi = phi[(phi >= 0.0) & (phi < two_pi)]
    phi32 = phi.astype(np.float32)
    for f in (np.cos, np.sin):
        err = np.abs(f(phi32).astype(float) - f(phi))
        assert float(err.max()) <= 2.0**-20, f.__name__
