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

The stage probabilities are computed in one place, ``_tree``, the rod's
only stage API: ``rod_analytic`` tabulates them, and ``thresholds`` turns
the same floats into the counting kernel's run constants, so the kernel's
thresholds are exactly the table's stage probabilities.

The counting kernel ``outcomes_from_uniforms`` makes the same compares on
either of two paths: in a process where the package's C library
(``native.LIBRARY``) loads, one C loop, ``rod_count`` in ``_native.c``,
counts the six break paths; in a process where it does not, numpy masks
do. The two give the same counts on every input, NaN included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import native
from .geometry import DEGENERATE_EPS, OTHER_AXES, Frame, Ray, direction_cosines
from .outcomes import OutcomeDistribution
from .quantum import LABELS


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
# row i is the one-hot outcome of path i: path counts @ it = outcome counts
_PATH_OUTCOMES = np.eye(3, dtype=np.int64)[[p.outcome for p in _PATHS]]


def _stage1(c, w: BreakWeight) -> list[float]:
    """Normalized stage-1 weights from the ray's direction cosines ``c``."""
    weights = np.asarray(w.fn(np.arccos(c)), dtype=float)
    w0, w1, w2 = weights.tolist()
    if w0 < 0.0 or w1 < 0.0 or w2 < 0.0:
        raise ValueError("negative stage-1 weight")
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("degenerate frame/state: all stage-1 weights vanish")
    return [w0 / total, w1 / total, w2 / total]


def _in_plane_cosines(
    ca: float, cb: float, norm: float, a: np.ndarray, b: np.ndarray, a_xyz, b_xyz
) -> list[float]:
    """|cos| of the angles between the retained axes ``a``, ``b`` (components
    ``a_xyz``, ``b_xyz``) and the ray projected into their plane, from the
    ray's dots ``ca``, ``cb`` with them and the projection's length
    ``norm = hypot(ca, cb)``."""
    (a0, a1, a2), (b0, b1, b2) = a_xyz, b_xyz
    x = (ca * a0 + cb * b0) / norm
    y = (ca * a1 + cb * b1) / norm
    z = (ca * a2 + cb * b2) / norm
    v = np.array((x, y, z))
    n = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its overhead
    pv = np.array((x / n, y / n, z / n))
    return [min(abs(float(pv @ a)), 1.0), min(abs(float(pv @ b)), 1.0)]


def _cosines_from_ray(c, j: int, k: int) -> list[float]:
    """The in-plane cosines of axes j and k, from the ray's direction cosines ``c``."""
    norm = math.hypot(c[j], c[k])
    return [min(c[j] / norm, 1.0), min(c[k] / norm, 1.0)]


def _stage2(wj: float, wk: float) -> tuple[float, float]:
    """Normalized stage-2 weights of the two retained axes."""
    if wj < 0.0 or wk < 0.0:
        raise ValueError("negative stage-2 weight")
    total = wj + wk
    if total <= 0.0:
        raise ValueError("degenerate projection: both stage-2 weights vanish")
    return wj / total, wk / total


def _stage2_pairs(cosines: list[float], w: BreakWeight) -> list[tuple[float, float]]:
    """``_stage2`` of each retained pair, from their in-plane cosines listed
    two per pair; one ufunc pass weighs them all."""
    ws = np.asarray(w.fn(np.arccos(cosines)), dtype=float).tolist()
    return [_stage2(ws[n], ws[n + 1]) for n in range(0, len(ws), 2)]


def _tree(
    p: Ray, e: Frame, w: BreakWeight
) -> tuple[list[float], dict[int, tuple[float, float]]]:
    """The rule's stage probabilities, the one route both ``rod_analytic``
    and ``thresholds`` read: ``_stage1`` of the ray's direction cosines, and
    for each first break i with nonzero weight, ``_stage2`` of the retained
    axes ``OTHER_AXES[i]``, from their |cosines| with the ray projected into
    their plane."""
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
        norm = math.hypot(dots[j], dots[k])
        if norm < DEGENERATE_EPS:
            # p lies within 1e-12 of axis `first`, whose stage-1 weight is
            # rounding noise; the in-plane cosines still follow from p's own.
            cosines += _cosines_from_ray(c, j, k)
        else:
            cosines += _in_plane_cosines(
                dots[j], dots[k], norm, axes[j], axes[k], rows[j], rows[k]
            )
    return s1, dict(zip(firsts, _stage2_pairs(cosines, w)))


def rod_analytic(
    p: Ray, e: Frame, w: BreakWeight
) -> tuple[OutcomeDistribution, dict[BreakPath, float]]:
    """Exact outcome distribution and the six break-order path probabilities.

    Outcome k sums the two paths that leave axis k standing. Orders whose
    stage-1 weight is zero carry probability zero (they are never sampled,
    so the degenerate projection behind them is never taken).
    """
    s1, s2 = _tree(p, e, w)
    probs = [0.0, 0.0, 0.0]
    path_probs = [0.0] * 6
    for first, pair in s2.items():
        for i, pr2 in enumerate(pair, start=2 * first):
            pr = s1[first] * pr2
            path_probs[i] = pr
            probs[_PATHS[i].outcome] += pr
    return OutcomeDistribution(LABELS, tuple(probs)), dict(zip(_PATHS, path_probs))


def thresholds(p: Ray, e: Frame, w: BreakWeight) -> tuple:
    """The counting kernel's run constants ``(t0, t1, r0, r1, r2)``: the
    stage probabilities that ``rod_analytic`` tabulates (``_tree``) as
    thresholds on the uniforms, so each threshold is exactly a stage
    probability of the table (t1 a sum of two). Slot s of u1 breaks tie s
    first. Ties on a boundary go to the lowest eligible index;
    zero-probability ties are never selected, so an eigenstate's outcome is
    deterministic."""
    s1, s2 = _tree(p, e, w)

    # Stage 1 as two thresholds on u1: break 0 if u1 <= t0, else 1 if
    # u1 <= t1, else 2. t0 = -1 when tie 0 is ineligible. t1 = 2.0, which no
    # uniform exceeds, when tie 2 is ineligible, so a sum s1[0] + s1[1] that
    # rounds below 1 cannot reach it; else t1 = t0 when tie 1 is ineligible,
    # so that slot is never reached (t1 = -1 would send every u1 <= t0 to
    # tie 1). t1 >= t0 always, so slots 0 and 2 never overlap.
    t0 = s1[0] if s1[0] != 0.0 else -1.0
    if s1[2] == 0.0:
        t1 = 2.0
    else:
        t1 = s1[0] + s1[1] if s1[1] != 0.0 else t0

    # Stage 2 per first break i: break retained[i][0] if u2 <= r[i], -1 when
    # it is ineligible. A lone eligible tie has pj = wj / (wj + 0.0) = 1.0
    # exactly, which every uniform in [0, 1) is below.
    r = [-1.0, -1.0, -1.0]
    for i, (pj, _) in s2.items():
        r[i] = pj if pj != 0.0 else -1.0
    return t0, t1, *r


def outcomes_from_uniforms(th: tuple, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: how many trials follow each of the six break paths.

    ``th`` is the ``thresholds`` of a ray, frame and weight, computed once
    per run. Returns int64 counts in ``_PATHS`` order, (first, second)
    broken = (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1); outcome k is
    the sum of the two paths that leave axis k standing. Trial i reads
    ``u1[i]`` for its stage-1 choice and ``u2[i]`` for its stage-2 choice;
    a ValueError is raised unless both are 1-d and of one length. No
    per-trial index is written. A single trial's path is the one nonzero
    count of a 1-trial call.

    Where ``native.LIBRARY.load()`` returns None, the trials are counted
    with boolean masks. Otherwise the C loop ``rod_count``, on contiguous
    copies of strided draws, makes the same compares one trial at a time,
    so it returns the same counts, bit for bit.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 1 or u2.ndim != 1:
        raise ValueError(f"u1 and u2 must be 1-d, not of shapes {u1.shape} and {u2.shape}")
    if len(u1) != len(u2):
        raise ValueError(f"u1 and u2 differ in length: {len(u1)} and {len(u2)}")
    lib = native.LIBRARY.load()
    if lib is not None:
        u1, u2 = np.ascontiguousarray(u1), np.ascontiguousarray(u2)
        counts = np.empty(6, dtype=np.int64)
        lib.rod_count(u1.ctypes.data, u2.ctypes.data, len(u1), *th, counts.ctypes.data)
        return counts
    t0, t1, r0, r1, r2 = th

    # n_s trials break tie s first; k_s of them then break retained[s][0]
    # (path 2 * s), the other n_s - k_s retained[s][1] (path 2 * s + 1)
    lo = u1 <= t0
    hi = u1 > t1
    n0 = np.count_nonzero(lo)
    n2 = np.count_nonzero(hi)
    k0 = np.count_nonzero(lo & (u2 <= r0))
    k2 = np.count_nonzero(hi & (u2 <= r2))
    # bool a > b is a and not b: pick in slot 1, neither slot 0 nor 2
    k1 = np.count_nonzero((u2 <= r1) > (lo | hi))
    n1 = len(u1) - n0 - n2
    return np.array((k0, n0 - k0, k1, n1 - k1, k2, n2 - k2), dtype=np.int64)


def fold_paths(counts: np.ndarray) -> np.ndarray:
    """Outcome counts (o1, o2, o3) from the six path counts in ``_PATHS`` order."""
    return counts @ _PATH_OUTCOMES


def rod_sample(p: Ray, e: Frame, w: BreakWeight, rng) -> tuple[str, Ray, BreakPath]:
    """One measurement: returns (outcome label, collapsed state, break order).

    The rod stabilizes on the outcome axis, so the new state is that axis's
    ray and an immediate repeat of the same measurement gives the same
    outcome with certainty.
    """
    u1 = rng.random()
    u2 = rng.random()
    counts = outcomes_from_uniforms(thresholds(p, e, w), np.array([u1]), np.array([u2]))
    path = _PATHS[int(np.flatnonzero(counts)[0])]
    return LABELS[path.outcome], e.axes[path.outcome], path


def marginal_measure(p: Ray, w: BreakWeight) -> Callable[[Frame, int], float]:
    """The rod's outcome probability of a frame's axis, as a frame function.

    For the quantum weight this is a frame-independent function of the
    axis's ray (the Born value); for the uniform variant the same ray
    generally gets different values in different frames.
    """

    def measure(frame: Frame, axis: int) -> float:
        return rod_analytic(p, frame, w)[0].probs[axis]

    return measure
