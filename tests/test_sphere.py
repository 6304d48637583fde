import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from bornsim.geometry import UnitVector, random_unit_vector, unit_vector
from bornsim.sphere import (
    LABELS,
    outcome_indices,
    sphere_analytic,
    sphere_sample,
)
from bornsim.stats import RunConfig, chi_square_gof, run_trials
from bornsim.streams import TrialStream

from oracles import binomial_bound

EX = unit_vector(1.0, 0.0, 0.0)


def state_at(theta: float) -> UnitVector:
    return unit_vector(math.cos(theta), math.sin(theta), 0.0)


class TestAnalytic:
    def test_eigenstate(self):
        d = sphere_analytic(EX, EX)
        assert d.probs == (1.0, 0.0)

    def test_orthogonal(self):
        d = sphere_analytic(EX, unit_vector(0.0, 1.0, 0.0))
        assert d.probs == (0.5, 0.5)

    def test_sixty_degrees(self):
        # closed form at cos(theta) = 1/2: ((1+c)/2, (1-c)/2) = (0.75, 0.25)
        d = sphere_analytic(EX, unit_vector(0.5, math.sqrt(3.0) / 2.0, 0.0))
        assert d.probs[0] == pytest.approx(0.75, abs=1e-15)
        assert d.probs[1] == pytest.approx(0.25, abs=1e-15)

    def test_probabilities_sum_exactly_to_one(self, rng):
        for _ in range(5000):
            u = random_unit_vector(rng)
            v = random_unit_vector(rng)
            p1, p2 = sphere_analytic(u, v).probs
            assert p1 + p2 == 1.0
            assert 0.0 <= p1 <= 1.0


class TestSampler:
    def test_break_at_far_end_gives_o1(self):
        # u1 = 0 -> b = -1, below any particle with c > -1
        idx = outcome_indices(c=-0.999, u1=np.array([0.0]))
        assert int(idx[0]) == 0

    def test_eigenstate_always_o1(self):
        idx = outcome_indices(c=1.0, u1=np.random.default_rng(0).random(10_000))
        assert np.all(idx == 0)

    def test_antipode_always_o2(self):
        idx = outcome_indices(c=-1.0, u1=np.random.default_rng(0).random(10_000))
        assert np.all(idx == 1)

    def test_tie_break_goes_to_o2(self):
        b = 2.0 * 0.65 - 1.0
        idx = outcome_indices(c=b, u1=np.array([0.65]))
        assert int(idx[0]) == 1

    def test_sample_returns_collapsed_state_and_hidden(self):
        stream = TrialStream(99, 0)
        label, new_state, b = sphere_sample(EX, state_at(math.pi / 3), stream)
        assert label in LABELS
        assert -1.0 <= b <= 1.0
        expected = EX if label == "o1" else -EX
        assert new_state == expected

    def test_break_point_below_the_particle_gives_o1(self):
        v = state_at(math.pi / 3)
        for trial in range(1000):
            label, _, b = sphere_sample(EX, v, TrialStream(5, trial))
            assert (label == "o1") == (b < EX.dot(v))

    def test_monte_carlo_matches_closed_form_at_sixty_degrees(self):
        v = unit_vector(0.5, math.sqrt(3.0) / 2.0, 0.0)
        emp, _ = run_trials(
            RunConfig("sphere2d", v, EX, trials=200_000, master_seed=2024)
        )
        assert abs(emp.frequencies[0] - 0.75) < binomial_bound(0.75, 200_000)


class TestProperties:
    def test_hundred_random_pairs_at_one_million(self):
        # empirical frequency within 5 sigma of the closed form per outcome
        gen = np.random.default_rng(314159)
        n = 1_000_000
        for k in range(100):
            u = random_unit_vector(gen)
            v = random_unit_vector(gen)
            expected = sphere_analytic(u, v)
            emp, _ = run_trials(
                RunConfig("sphere2d", v, u, trials=n, master_seed=7000 + k),
            )
            for f, p in zip(emp.frequencies, expected.probs):
                assert abs(f - p) <= binomial_bound(p, n)

    def test_repeatability_over_chains(self):
        gen = np.random.default_rng(42)
        e = random_unit_vector(gen)
        for chain in range(10_000):
            s = random_unit_vector(gen)
            first, collapsed, _ = sphere_sample(e, s, gen)
            second, _, _ = sphere_sample(e, collapsed, gen)
            assert first == second

    def test_hidden_sampler_equivalent_to_categorical_sampling(self):
        # same distribution as direct categorical draws from the closed form,
        # by one-sample chi-square against the analytic probabilities and a
        # two-sample homogeneity test, both at alpha = 0.01
        n = 1_000_000
        v = unit_vector(0.5, math.sqrt(3.0) / 2.0, 0.0)
        expected = sphere_analytic(EX, v)
        emp, _ = run_trials(RunConfig("sphere2d", v, EX, trials=n, master_seed=555))
        assert chi_square_gof(emp, expected, alpha=0.01).passed

        cat_counts = np.random.default_rng(556).multinomial(n, expected.probs)
        chi2, p_value, *_ = scipy_stats.chi2_contingency(
            np.array([emp.counts, cat_counts])
        )
        assert p_value > 0.01
