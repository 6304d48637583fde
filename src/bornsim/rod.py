"""Two-stage rod-breaking model (three outcomes).

The entity is a rod through the origin (a ray p); the apparatus is an
orthonormal triad of rays e = (a1, a2, a3). The tip of the rod is tied to
its orthogonal projection on each axis. The measurement breaks two of the
three ties at random, in two stages, and the rod falls onto the remaining
axis, which names the outcome:

* stage 1: tie i breaks with probability proportional to a weight w(theta_i)
  of the rod/axis angle. The rod swings into the plane of the two surviving
  axes, landing on the normalized projection p' of p into that plane.
* stage 2: of the two surviving ties, j breaks with probability
  proportional to w(theta'_j), the weight of the angle between p' and axis j.

With the quantum weight w(theta) = sin^2(theta) (tie i breaks in proportion
to the shadow its segment casts on the rod) the outcome probabilities are
exactly cos^2(theta_k), the Born rule: the stage-1 weights sum to 2, the
stage-2 weights sum to 1, and each of the two break orders that end on axis
k contributes cos^2(theta_k)/2. With the uniform-variant weight
w(theta) = sin(theta) (ties break uniformly along their length) the
probabilities depend on the intermediate plane and no longer match any
state-vector rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import (
    DegenerateProjectionError,
    Frame,
    Ray,
    direction_cosines,
    project_onto_plane,
)
from .outcomes import OutcomeDistribution

LABELS = ("o1", "o2", "o3")

# retained axis pairs (ascending) for each stage-1 choice
_RETAINED = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class RodState:
    p: Ray


@dataclass(frozen=True)
class RodMeasurement:
    e: Frame


@dataclass(frozen=True)
class BreakWeight:
    """Breaking weight as a function of the tie/rod angle in [0, pi/2].

    The same function weighs the stage-1 and the stage-2 break.
    """

    tag: str
    fn: Callable[[np.ndarray], np.ndarray]


def _sin_squared(theta):
    return np.sin(theta) ** 2


QUANTUM = BreakWeight("quantum", _sin_squared)
UNIFORM_VARIANT = BreakWeight("uniform-variant", np.sin)

WEIGHTS = {w.tag: w for w in (QUANTUM, UNIFORM_VARIANT)}


@dataclass(frozen=True)
class BreakPath:
    """One of the six break orders; outcome is the axis left standing."""

    first_broken: int
    second_broken: int
    outcome: int = field(init=False)

    def __post_init__(self):
        if {self.first_broken, self.second_broken} | {0, 1, 2} != {0, 1, 2} or (
            self.first_broken == self.second_broken
        ):
            raise ValueError("break path needs two distinct axis indices in 0..2")
        object.__setattr__(self, "outcome", 3 - self.first_broken - self.second_broken)


def _angles(p: Ray, e: Frame) -> np.ndarray:
    c = np.array(direction_cosines(p, e))
    return np.arccos(c)


def stage1_distribution(p: RodState, e: RodMeasurement, w: BreakWeight) -> np.ndarray:
    """Probability that each of the three ties breaks first.

    Weights w(theta_i), normalized by their sum (exactly 2 for the quantum
    weight). Raises ValueError if all three weights vanish, which would need
    a state collinear with every axis.
    """
    weights = np.asarray(w.fn(_angles(p.p, e.e)), dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("degenerate frame/state: all stage-1 weights vanish")
    return weights / total


def stage2_distribution(
    p_prime: Ray, e: RodMeasurement, retained: tuple[int, int], w: BreakWeight
) -> np.ndarray:
    """Probability that each retained tie breaks second, given the in-plane ray.

    Weights w(theta'_j) over the two retained axes, normalized (exactly 1
    for the quantum weight, since the two angles are complementary).
    """
    m = e.e.matrix
    pv = p_prime.array
    cos = np.minimum(np.abs(np.array([pv @ m[retained[0]], pv @ m[retained[1]]])), 1.0)
    weights = np.asarray(w.fn(np.arccos(cos)), dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("degenerate projection: both stage-2 weights vanish")
    return weights / total


def _stage2_weights(c, j: int, k: int, w: BreakWeight) -> np.ndarray:
    """Stage-2 weights of axes j and k, from the ray's direction cosines ``c``."""
    norm = math.hypot(c[j], c[k])
    cos = np.array([min(c[j] / norm, 1.0), min(c[k] / norm, 1.0)])
    return np.asarray(w.fn(np.arccos(cos)), dtype=float)


def rod_analytic(
    p: RodState, e: RodMeasurement, w: BreakWeight
) -> tuple[OutcomeDistribution, dict[BreakPath, float]]:
    """Exact outcome distribution and the six break-order path probabilities.

    Outcome k sums the two paths that leave axis k standing. Orders whose
    stage-1 weight is zero carry probability zero (they are never sampled,
    so the degenerate projection behind them is never taken).
    """
    s1 = stage1_distribution(p, e, w)
    probs = np.zeros(3)
    paths: dict[BreakPath, float] = {}
    for first in range(3):
        j, k = _RETAINED[first]
        if s1[first] == 0.0:
            paths[BreakPath(first, j)] = 0.0
            paths[BreakPath(first, k)] = 0.0
            continue
        try:
            p_prime, _ = project_onto_plane(p.p, e.e, first)
        except DegenerateProjectionError:
            # p lies within 1e-12 of axis `first`, whose stage-1 weight is
            # rounding noise; the in-plane cosines still follow from p's own.
            w2 = _stage2_weights(direction_cosines(p.p, e.e), j, k, w)
            s2 = w2 / float(w2.sum())
        else:
            s2 = stage2_distribution(p_prime, e, (j, k), w)
        for second, pr2 in zip((j, k), s2):
            path = BreakPath(first, second)
            pr = float(s1[first] * pr2)
            paths[path] = pr
            probs[path.outcome] += pr
    dist = OutcomeDistribution(LABELS, tuple(float(x) for x in probs))
    return dist, paths


def outcomes_from_uniforms(
    p: Ray, e: Frame, w: BreakWeight, u1: np.ndarray, u2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trial kernel: (outcome, first_broken, second_broken) indices.

    ``u1`` drives the stage-1 choice and ``u2`` the stage-2 choice, both by
    cumulative sums. Ties on a boundary go to the lowest eligible index, and
    zero-weight ties are never selected (so the outcome of an eigenstate is
    deterministic and degenerate projections are unreachable).
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    m = e.matrix
    c = np.minimum(np.abs(m @ p.array), 1.0)
    theta = np.arccos(c)
    w1 = np.asarray(w.fn(theta), dtype=float)
    if np.any(w1 < 0.0):
        raise ValueError("negative stage-1 weight")
    total = float(w1.sum())
    if total <= 0.0:
        raise ValueError("degenerate frame/state: all stage-1 weights vanish")
    s1 = w1 / total
    elig = w1 > 0.0

    cum0 = s1[0]
    cum1 = s1[0] + s1[1]
    cand0 = elig[0] & (u1 <= cum0)
    cand1 = elig[1] & (u1 <= cum1)
    fallback = 1 if elig[1] else 0
    first = np.where(cand0, 0, np.where(cand1, 1, np.where(elig[2], 2, fallback)))

    # per-first stage-2 constants: P(break retained[0] second), eligibility
    prob_j = np.zeros(3)
    elig_j = np.zeros(3, dtype=bool)
    elig_k = np.zeros(3, dtype=bool)
    for i in range(3):
        if not elig[i]:
            continue
        j, k = _RETAINED[i]
        w2 = _stage2_weights(c, j, k, w)
        if np.any(w2 < 0.0):
            raise ValueError("negative stage-2 weight")
        t2 = float(w2.sum())
        if t2 <= 0.0:
            raise ValueError("degenerate projection: both stage-2 weights vanish")
        prob_j[i] = w2[0] / t2
        elig_j[i] = w2[0] > 0.0
        elig_k[i] = w2[1] > 0.0

    retained = np.array(_RETAINED)
    jj = retained[first, 0]
    kk = retained[first, 1]
    pick_j = elig_j[first] & ((u2 <= prob_j[first]) | ~elig_k[first])
    second = np.where(pick_j, jj, kk)
    outcome = 3 - first - second
    return outcome, first, second


def rod_sample(
    p: RodState, e: RodMeasurement, w: BreakWeight, rng
) -> tuple[str, RodState, BreakPath]:
    """One measurement: returns (outcome label, collapsed state, break order).

    The rod stabilizes on the outcome axis, so the new state is that axis's
    ray and an immediate repeat of the same measurement gives the same
    outcome with certainty.
    """
    u1 = rng.random()
    u2 = rng.random()
    outcome, first, second = outcomes_from_uniforms(
        p.p, e.e, w, np.array([u1]), np.array([u2])
    )
    idx = int(outcome[0])
    path = BreakPath(int(first[0]), int(second[0]))
    return LABELS[idx], RodState(e.e.axes[idx]), path


def marginal_measure(p: RodState, w: BreakWeight) -> Callable[[Ray, Frame], float]:
    """Outcome probability of a given axis ray, in the context of its frame.

    For the quantum weight this is a frame-independent function of the ray
    (the Born value); for the uniform variant the same ray generally gets
    different values in different frames.
    """

    def measure(ray: Ray, frame: Frame) -> float:
        dist, _ = rod_analytic(p, RodMeasurement(frame), w)
        for i, ax in enumerate(frame.axes):
            if abs(ax.rep.dot(ray.rep)) > 1.0 - 1e-9:
                return dist.probs[i]
        raise ValueError("ray is not an axis of the frame")

    return measure
