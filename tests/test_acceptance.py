"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; Monte Carlo criteria use
seeds frozen after a single calibration run.
"""

import math

import numpy as np
import pytest

from bornsim.disk import initial_state, disk_measure
from bornsim.geometry import (
    canonicalize,
    direction_cosines,
    identity_frame,
    random_frame,
    random_unit_vector,
    rotate_frame_about_axis,
    unit_vector,
    vector_angle,
)
from bornsim.quantum import (
    born_probabilities,
    frame_additivity_check,
    gleason_measure,
    state_vector,
)
from bornsim.rod import (
    QUANTUM,
    UNIFORM_VARIANT,
    _OUTCOMES,
    marginal_measure,
    rod_analytic,
    rod_sample,
)
from bornsim.sphere import sphere_analytic, sphere_sample
from bornsim.stats import RunConfig, chi_square_gof, run_trials

from oracles import disk_up_oracle, rod_tree_oracle, variant_weight

SQ2 = 1.0 / math.sqrt(2.0)
P_BENCH = unit_vector(SQ2, 0.5, 0.5)


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def _seeded_pairs(seed: int, n: int):
    gen = np.random.default_rng(seed)
    return [(canonicalize(random_unit_vector(gen).array), random_frame(gen)) for _ in range(n)]


def test_criterion_01_born_reproduction_exact():
    worst = 0.0
    for ray, frame in _seeded_pairs(101, 100):
        dist, _ = rod_analytic(ray, frame, QUANTUM)
        cos = np.array(direction_cosines(ray, frame))
        worst = max(worst, float(np.max(np.abs(np.array(dist.probs) - cos**2))))
        born = born_probabilities(state_vector(ray.rep.array), frame)
        worst = max(worst, float(np.max(np.abs(np.array(dist.probs) - born.array))))
    assert worst < 1e-12
    _pass(1, f"rod quantum == cos^2 on 100 random pairs (worst dev {worst:.2e})")


def test_criterion_02_path_identity_exact():
    worst = 0.0
    for ray, frame in _seeded_pairs(102, 100):
        dist, paths = rod_analytic(ray, frame, QUANTUM)
        cos = np.array(direction_cosines(ray, frame))
        for k, prob in zip(_OUTCOMES, paths):
            worst = max(worst, abs(prob - 0.5 * cos[k] ** 2))
    assert worst < 1e-12
    _pass(2, f"all 6 paths == cos^2/2 on 100 random pairs (worst dev {worst:.2e})")


def test_criterion_03_angle_identities_bulk():
    gen = np.random.default_rng(103)
    worst_cos = worst_sin = 0.0
    for _ in range(100_000):
        ray = canonicalize(random_unit_vector(gen).array)
        frame = random_frame(gen)
        c2 = np.array(direction_cosines(ray, frame)) ** 2
        worst_cos = max(worst_cos, abs(float(c2.sum()) - 1.0))
        worst_sin = max(worst_sin, abs(float((1.0 - c2).sum()) - 2.0))
    assert worst_cos < 1e-12
    assert worst_sin < 1e-12
    _pass(3, f"sum cos^2 = 1, sum sin^2 = 2 on 1e5 pairs "
             f"(worst devs {worst_cos:.2e}, {worst_sin:.2e})")


def test_criterion_04_monte_carlo_agreement():
    # seeds frozen after one calibration run; expected pass rate 99% per test
    gen = np.random.default_rng(104)
    n = 1_000_000
    passed = 0
    for k in range(20):
        ray = canonicalize(random_unit_vector(gen).array)
        frame = random_frame(gen)
        expected, _ = rod_analytic(ray, frame, QUANTUM)
        emp, _ = run_trials(
            RunConfig("rod", ray.rep, frame, "quantum", trials=n, master_seed=910_000 + k),
        )
        passed += chi_square_gof(emp, expected, alpha=0.01).passed
    assert passed >= 18
    _pass(4, f"rod quantum chi-square alpha=0.01 passed {passed}/20 runs at N=1e6")


def test_criterion_05_sphere_frequencies():
    # states at exactly representable cosines 1, 1/2, 0, -1/2, -1
    states = {
        "0": unit_vector(1.0, 0.0, 0.0),
        "pi/3": unit_vector(0.5, math.sqrt(3.0) / 2.0, 0.0),
        "pi/2": unit_vector(0.0, 1.0, 0.0),
        "2pi/3": unit_vector(-0.5, math.sqrt(3.0) / 2.0, 0.0),
        "pi": unit_vector(-1.0, 0.0, 0.0),
    }
    u = unit_vector(1.0, 0.0, 0.0)
    worst = 0.0
    for k, (name, v) in enumerate(states.items()):
        expected = sphere_analytic(u, v).probs[0]
        emp, _ = run_trials(
            RunConfig("sphere2d", v, u, trials=1_000_000, master_seed=500_100 + k),
        )
        dev = abs(float(emp.frequencies[0]) - expected)
        worst = max(worst, dev)
        assert dev < 0.002, f"theta={name}: dev {dev}"
    _pass(5, f"sphere o1 frequency within 0.002 at five angles (worst dev {worst:.2e})")


def test_criterion_06_disk_frequencies_with_integration_oracle():
    gen = np.random.default_rng(106)
    n = 1_000_000
    worst_mc = worst_oracle = 0.0
    for k in range(20):
        p = random_unit_vector(gen)
        q = random_unit_vector(gen)
        theta = vector_angle(p, q)
        closed = math.cos(theta / 2.0) ** 2
        worst_oracle = max(worst_oracle, abs(disk_up_oracle(theta) - closed))
        emp, _ = run_trials(RunConfig("ks", p, q, trials=n, master_seed=600_100 + k))
        worst_mc = max(worst_mc, abs(float(emp.frequencies[0]) - closed))
    assert worst_oracle < 1e-6
    assert worst_mc < 0.002
    _pass(6, f"disk up-frequency within 0.002 on 20 pairs (worst {worst_mc:.2e}); "
             f"density-integration oracle within {worst_oracle:.2e} of closed form")


def test_criterion_07_variant_separation():
    ray = canonicalize(P_BENCH.array)
    dist, _ = rod_analytic(ray, identity_frame(), UNIFORM_VARIANT)
    oracle_probs, _ = rod_tree_oracle(ray.array, np.eye(3), variant_weight)
    assert np.allclose(dist.probs, oracle_probs, atol=1e-12)
    gap = abs(dist.probs[2] - 0.25)
    assert gap == pytest.approx(0.042015924466717, abs=1e-12)
    assert gap > 0.02

    born = born_probabilities(state_vector(ray.rep.array), identity_frame())
    rejections = 0
    min_statistic = math.inf
    for k in range(100):
        emp, _ = run_trials(
            RunConfig("rod", P_BENCH, identity_frame(), "uniform-variant",
                      trials=1_000_000, master_seed=700_100 + k),
        )
        report = chi_square_gof(emp, born, alpha=0.01)
        rejections += not report.passed
        min_statistic = min(min_statistic, report.statistic)
    assert rejections / 100 > 0.99
    assert min_statistic > 100 * 9.210
    _pass(7, f"variant o3 gap {gap:.6f} > 0.02; Born rejected in {rejections}/100 runs "
             f"(min statistic {min_statistic:.0f})")


def test_criterion_08_gleason_form_frame_checks():
    gen = np.random.default_rng(108)
    frames = [random_frame(gen) for _ in range(1000)]
    g = gleason_measure(state_vector(P_BENCH.array))
    report = frame_additivity_check(g, frames)
    assert report.max_deviation < 1e-12

    variant = marginal_measure(canonicalize(P_BENCH.array), UNIFORM_VARIANT)
    f1 = identity_frame()
    f2 = rotate_frame_about_axis(f1, 0, math.pi / 4)
    assert f2.axes[0] == f1.axes[0]
    dependence = abs(variant(f1, 0) - variant(f2, 0))
    assert dependence > 0.01
    _pass(8, f"gleason frame sums within {report.max_deviation:.2e} of 1 over 1000 "
             f"frames; variant frame dependence {dependence:.4f} > 0.01")


def test_criterion_09_reproducibility_across_workers():
    cfg1 = RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                     trials=1_000_000, master_seed=909, workers=1)
    cfg8 = RunConfig("rod", P_BENCH, identity_frame(), "quantum",
                     trials=1_000_000, master_seed=909, workers=8)
    emp1, _ = run_trials(cfg1)
    emp8, _ = run_trials(cfg8)
    emp1_again, _ = run_trials(cfg1)
    assert emp1.counts == emp8.counts
    assert emp1 == emp1_again
    _pass(9, f"counts {emp1.counts} bit-identical for 1 vs 8 workers and across runs")


def test_criterion_10_repeatability_of_collapse():
    gen = np.random.default_rng(110)

    e_sphere = random_unit_vector(gen)
    for _ in range(10_000):
        s = random_unit_vector(gen)
        first, collapsed, _ = sphere_sample(e_sphere, s, gen)
        second, _, _ = sphere_sample(e_sphere, collapsed, gen)
        assert first == second

    q = random_unit_vector(gen)
    for _ in range(10_000):
        s = initial_state(random_unit_vector(gen), gen)
        first, collapsed = disk_measure(s, q, gen)
        second, _ = disk_measure(collapsed, q, gen)
        assert first == second

    e_rod = random_frame(gen)
    for _ in range(10_000):
        s = canonicalize(random_unit_vector(gen).array)
        first, collapsed, _ = rod_sample(s, e_rod, QUANTUM, gen)
        second, _, _ = rod_sample(collapsed, e_rod, QUANTUM, gen)
        assert first == second

    _pass(10, "re-measurement repeated the outcome in 10^4 chains for all three models")
