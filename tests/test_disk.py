import math

import numpy as np
import pytest

from bornsim.disk import (
    DiskState,
    LABELS,
    disk_analytic,
    disk_measure,
    hidden_from_uniforms,
    initial_state,
    sample_hidden,
    up_indices,
)
from bornsim.geometry import random_unit_vector, unit_vector, vector_angle
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
        # vectorized kernel and singleton calls agree bitwise
        p, q = EZ.array, direction_at(1.1).array
        u = trial_uniforms(master_seed=5, start=0, stop=2_000, ndraws=2)
        batch = up_indices(p, q, u[0], u[1])
        singles = [int(up_indices(p, q, u[0][i : i + 1], u[1][i : i + 1])[0]) for i in range(2_000)]
        assert np.array_equal(batch, np.array(singles))


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
            kernel = up_indices(p.array, q.array, u1, u2)
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
