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
    OTHER_AXES,
    DegenerateProjectionError,
    Frame,
    Ray,
    direction_cosines,
    plane_ray,
)
from .outcomes import OutcomeDistribution
from .streams import _BLOCK

LABELS = ("o1", "o2", "o3")


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


# the six break orders, in the order rod_analytic lists them
_PATHS = tuple(
    BreakPath(first, second) for first in range(3) for second in OTHER_AXES[first]
)


def _stage1(c, w: BreakWeight) -> list[float]:
    """Normalized stage-1 weights from the ray's direction cosines ``c``."""
    weights = np.asarray(w.fn(np.arccos(c)), dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("degenerate frame/state: all stage-1 weights vanish")
    w0, w1, w2 = weights.tolist()
    return [w0 / total, w1 / total, w2 / total]


def stage1_distribution(p: Ray, e: Frame, w: BreakWeight) -> np.ndarray:
    """Probability that each of the three ties breaks first.

    Weights w(theta_i), normalized by their sum (exactly 2 for the quantum
    weight). Raises ValueError if all three weights vanish, which would need
    a state collinear with every axis.
    """
    return np.array(_stage1(direction_cosines(p, e), w))


def _in_plane_cosines(pv: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
    """|cos| of the angles between the in-plane ray ``pv`` and the retained axes a, b."""
    return [min(abs(float(pv @ a)), 1.0), min(abs(float(pv @ b)), 1.0)]


def _cosines_from_ray(c, j: int, k: int) -> list[float]:
    """The in-plane cosines of axes j and k, from the ray's direction cosines ``c``."""
    norm = math.hypot(c[j], c[k])
    return [min(c[j] / norm, 1.0), min(c[k] / norm, 1.0)]


def _stage2(wj: float, wk: float) -> tuple[float, float]:
    """Normalized stage-2 weights of the two retained axes."""
    total = wj + wk
    if total <= 0.0:
        raise ValueError("degenerate projection: both stage-2 weights vanish")
    return wj / total, wk / total


def stage2_distribution(
    p_prime: Ray, e: Frame, retained: tuple[int, int], w: BreakWeight
) -> np.ndarray:
    """Probability that each retained tie breaks second, given the in-plane ray.

    Weights w(theta'_j) over the two retained axes, normalized (exactly 1
    for the quantum weight, since the two angles are complementary).
    """
    m = e.matrix
    cos = _in_plane_cosines(p_prime.array, m[retained[0]], m[retained[1]])
    return np.array(_stage2(*np.asarray(w.fn(np.arccos(cos)), dtype=float).tolist()))


def _stage2_weights(c, j: int, k: int, w: BreakWeight) -> np.ndarray:
    """Stage-2 weights of axes j and k, from the ray's direction cosines ``c``."""
    return np.asarray(w.fn(np.arccos(_cosines_from_ray(c, j, k))), dtype=float)


def rod_analytic(
    p: Ray, e: Frame, w: BreakWeight
) -> tuple[OutcomeDistribution, dict[BreakPath, float]]:
    """Exact outcome distribution and the six break-order path probabilities.

    Outcome k sums the two paths that leave axis k standing. Orders whose
    stage-1 weight is zero carry probability zero (they are never sampled,
    so the degenerate projection behind them is never taken).
    """
    c = direction_cosines(p, e)
    s1 = _stage1(c, w)
    m = e.matrix
    axes = (m[0], m[1], m[2])
    pv = p.array
    dots = (float(pv @ axes[0]), float(pv @ axes[1]), float(pv @ axes[2]))
    rows = m.tolist()
    firsts = []
    cosines: list[float] = []
    for first in (0, 1, 2):
        if s1[first] == 0.0:
            continue
        firsts.append(first)
        j, k = OTHER_AXES[first]
        try:
            p_prime, _ = plane_ray(dots[j], dots[k], rows[j], rows[k])
        except DegenerateProjectionError:
            # p lies within 1e-12 of axis `first`, whose stage-1 weight is
            # rounding noise; the in-plane cosines still follow from p's own.
            cosines += _cosines_from_ray(c, j, k)
        else:
            cosines += _in_plane_cosines(p_prime.array, axes[j], axes[k])
    # one ufunc pass weighs the retained pair of every first break
    w2 = np.asarray(w.fn(np.arccos(cosines)), dtype=float).tolist()
    probs = [0.0, 0.0, 0.0]
    path_probs = [0.0] * 6
    for n, first in enumerate(firsts):
        for i, pr2 in enumerate(_stage2(w2[2 * n], w2[2 * n + 1]), start=2 * first):
            pr = s1[first] * pr2
            path_probs[i] = pr
            probs[_PATHS[i].outcome] += pr
    return OutcomeDistribution(LABELS, tuple(probs)), dict(zip(_PATHS, path_probs))


def outcomes_from_uniforms(
    p: Ray, e: Frame, w: BreakWeight, u1: np.ndarray, u2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trial kernel: (outcome, first_broken, second_broken) indices.

    ``u1`` drives the stage-1 choice and ``u2`` the stage-2 choice, both by
    cumulative sums. Ties on a boundary go to the lowest eligible index, and
    zero-weight ties are never selected (so the outcome of an eigenstate is
    deterministic and degenerate projections are unreachable). The sums and
    eligibility rules are folded into scalar thresholds once per call, so a
    trial costs three comparisons and a lookup in a six-path table.
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

    # Stage 1 as two thresholds on u1: break 0 if u1 <= t0, else 1 if
    # u1 <= t1, else the last eligible tie. t0 = -1 when tie 0 is
    # ineligible, and t1 = t0 when tie 1 is, so that slot is never reached
    # (t1 = -1 would send every u1 <= t0 to slot 1).
    t0 = s1[0] if elig[0] else -1.0
    t1 = s1[0] + s1[1] if elig[1] else t0
    last = 2 if elig[2] else (1 if elig[1] else 0)
    firsts = (0, 1, last)

    # Stage 2 per first break i: break retained[i][0] if u2 <= thr[i]
    # (2.0 when it is the only eligible tie, -1 when it is ineligible).
    thr = np.full(3, -1.0)
    for i in range(3):
        if not elig[i]:
            continue
        j, k = OTHER_AXES[i]
        w2 = _stage2_weights(c, j, k, w)
        if np.any(w2 < 0.0):
            raise ValueError("negative stage-2 weight")
        t2 = float(w2.sum())
        if t2 <= 0.0:
            raise ValueError("degenerate projection: both stage-2 weights vanish")
        if w2[0] > 0.0:
            thr[i] = w2[0] / t2 if w2[1] > 0.0 else 2.0

    # A trial's path code is 2 * slot + pick: it breaks firsts[slot] first
    # and, if pick, that tie's retained[0] second. The table maps the six
    # codes to (outcome, first, second).
    table = np.empty((3, 6), dtype=np.intp)
    for code in range(6):
        f = firsts[code // 2]
        second = OTHER_AXES[f][1 - code % 2]
        table[:, code] = (3 - f - second, f, second)
    thr_slot = thr[list(firsts)]

    # sub-blocks keep the temporaries in cache; mode="clip" (codes are
    # always 0..5) lets np.take write into ``out`` without a buffer
    out = np.empty((3, len(u1)), dtype=np.intp)
    for a in range(0, len(u1), _BLOCK):
        b = a + _BLOCK
        slot = np.add(u1[a:b] > t0, u1[a:b] > t1, dtype=np.intp)
        code = 2 * slot
        code += u2[a:b] <= np.take(thr_slot, slot)
        for row in range(3):
            np.take(table[row], code, out=out[row, a:b], mode="clip")
    return out[0], out[1], out[2]


def rod_sample(p: Ray, e: Frame, w: BreakWeight, rng) -> tuple[str, Ray, BreakPath]:
    """One measurement: returns (outcome label, collapsed state, break order).

    The rod stabilizes on the outcome axis, so the new state is that axis's
    ray and an immediate repeat of the same measurement gives the same
    outcome with certainty.
    """
    u1 = rng.random()
    u2 = rng.random()
    outcome, first, second = outcomes_from_uniforms(
        p, e, w, np.array([u1]), np.array([u2])
    )
    idx = int(outcome[0])
    path = BreakPath(int(first[0]), int(second[0]))
    return LABELS[idx], e.axes[idx], path


def marginal_measure(p: Ray, w: BreakWeight) -> Callable[[Ray, Frame], float]:
    """Outcome probability of a given axis ray, in the context of its frame.

    For the quantum weight this is a frame-independent function of the ray
    (the Born value); for the uniform variant the same ray generally gets
    different values in different frames.
    """

    def measure(ray: Ray, frame: Frame) -> float:
        dist, _ = rod_analytic(p, frame, w)
        for i, ax in enumerate(frame.axes):
            if abs(ax.rep.dot(ray.rep)) > 1.0 - 1e-9:
                return dist.probs[i]
        raise ValueError("ray is not an axis of the frame")

    return measure
