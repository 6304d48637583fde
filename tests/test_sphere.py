import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from bornsim import native
from bornsim.geometry import UnitVector, random_unit_vector, unit_vector
from bornsim.sphere import (
    LABELS,
    outcome_indices,
    sphere_analytic,
    sphere_sample,
)
from bornsim.stats import RunConfig, chi_square_gof, run_trials
from bornsim.streams import TrialStream, trial_uniforms

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
        counts = outcome_indices(c=-0.999, u1=np.array([0.0]))
        assert counts.dtype == np.int64 and counts.tolist() == [1, 0]

    def test_eigenstate_always_o1(self):
        counts = outcome_indices(c=1.0, u1=np.random.default_rng(0).random(10_000))
        assert counts.tolist() == [10_000, 0]

    def test_antipode_always_o2(self):
        counts = outcome_indices(c=-1.0, u1=np.random.default_rng(0).random(10_000))
        assert counts.tolist() == [0, 10_000]

    def test_tie_break_goes_to_o2(self):
        b = 2.0 * 0.65 - 1.0
        counts = outcome_indices(c=b, u1=np.array([0.65]))
        assert counts.tolist() == [0, 1]

    @pytest.mark.parametrize("n", [65_535, 65_536, 65_537, (1 << 18) + 1])
    def test_counts_equal_the_one_pass_formula(self, n):
        u1 = trial_uniforms(master_seed=n, start=0, stop=n, ndraws=1)[0]
        # ties (b == c, counted as o2) on the first, the last and six other trials
        ties = [0, n - 1, *np.random.default_rng(n).integers(0, n, 6)]
        for c in [-1.0, -0.3, 0.0, 0.5, 1.0, *(2.0 * u1[k] - 1.0 for k in ties)]:
            k = np.count_nonzero(2.0 * u1 - 1.0 >= c)
            assert outcome_indices(c, u1).tolist() == [n - k, k], c

    def test_samples_follow_their_break_point_on_both_paths(self, path):
        v = state_at(math.pi / 3)
        c = EX.dot(v)
        for trial in range(1000):
            label, new_state, b = sphere_sample(EX, v, TrialStream(6, trial))
            assert (label == "o1") == (b < c)
            assert new_state == (EX if label == "o1" else -EX)

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


def _numpy_counts(c, u1):
    """``outcome_indices`` as a process without the C library runs it; a
    draw above 2**1023 overflows 2 * u1 to inf there, as in C, with a warning."""
    with pytest.MonkeyPatch.context() as m, np.errstate(over="ignore"):
        m.setattr(native.LIBRARY, "load", lambda: None)
        return outcome_indices(c, u1)


def _agree(c, u1):
    got = outcome_indices(c, u1)
    want = _numpy_counts(c, u1)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist(), (c, u1)
    return got.tolist()


def _skip_without_library():
    if native.LIBRARY.load() is None:
        pytest.skip("the C library did not load: no C compiler")


@settings(max_examples=200, deadline=None)
@given(
    u1=st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.floats(), max_size=40),
    c=st.floats(-1.0, 1.0) | st.floats(),
    tie=st.integers(0, 39),
)
def test_c_and_numpy_count_steps_agree_on_hypothesis_draws(u1, c, tie):
    # sphere_count makes the numpy body's compare, NaN and inf draws included;
    # the tie draw's own break point is tried as c too
    _skip_without_library()
    if u1:
        _agree(2.0 * u1[tie % len(u1)] - 1.0, np.array(u1))
    _agree(c, np.array(u1, dtype=float))


def test_c_and_numpy_count_steps_agree_on_edge_inputs():
    _skip_without_library()
    special = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, -0.25, 1.5,
                        np.nextafter(1.0, 0.0), 5e-324])
    for c in [-1.0, 1.0, np.nan, 0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 0.25]:
        if math.isfinite(c) and abs(c) <= 1.0:
            # a draw exactly at (c + 1) / 2 breaks at c: the tie goes to o2
            tie = (c + 1.0) / 2.0
            assert 2.0 * tie - 1.0 == c
            assert _agree(c, np.array([tie])) == [0, 1]
        for x in special:
            _agree(c, np.array([x]))
        _agree(c, special)
        assert _agree(c, special[:0]) == [0, 0]
    # a NaN draw or a NaN c fails the compare: o1
    assert _agree(0.0, np.array([np.nan])) == [1, 0]
    assert _agree(np.nan, np.array([0.0, 0.5, 1.0])) == [3, 0]
    assert _agree(-np.inf, np.array([np.inf, -np.inf])) == [0, 2]
    # draw 0 of a (2, n) block, contiguous and strided
    block = trial_uniforms(master_seed=33, start=0, stop=1001, ndraws=2)
    strided = np.asfortranarray(block)[0]
    assert not strided.flags.c_contiguous and not block[0, ::3].flags.c_contiguous
    for c in (-0.4, 0.1, 2.0 * block[0, 500] - 1.0):
        k = np.count_nonzero(2.0 * block[0] - 1.0 >= c)
        assert _agree(c, block[0]) == _agree(c, strided) == [1001 - k, k]
        _agree(c, block[0, ::3])
