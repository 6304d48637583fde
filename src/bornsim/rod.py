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
only stage API, from weights that both stages take from ``_weigh``, as two
plain tuples: ``s1``, the stage-1 probabilities, and ``s2``, the stage-2
pairs indexed by the first break (``(0.0, 0.0)`` after one of zero
weight). A break path is an index into ``_PATHS``, the
``(first, second)`` broken axes in the order the count step counts them.
``rod_analytic`` tabulates path i as ``s1[i // 2] * s2[i // 2][i % 2]``,
and ``thresholds`` turns the same floats into the counting kernel's run
constants, so the kernel's thresholds are exactly the table's stage
probabilities. ``_tree`` keeps its last result, keyed by the value of its
(ray, frame, weight), so the tree is computed once per triple however many
callers read it in a row: the three marginals of one frame and its
``--out`` sum in ``framecheck``, or the analytic column and the run
constants of one sweep point. The calls themselves stay, and a counter on
``rod_analytic`` still sees each one: the benchmark pins how many a
framecheck makes.

The counting kernel ``outcomes_from_uniforms`` makes the same compares on
either of two paths: in a process where the package's C library
(``native.LIBRARY``) loads, one C loop, ``rod_count`` in ``_native.c``,
counts the six break paths; in a process where it does not, numpy masks
do. The two give the same counts on every input, NaN included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import native
from .geometry import DEGENERATE_EPS, OTHER_AXES, Frame, Ray, UnitVector, _dot, direction_cosines
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


# the six break orders as (first, second) broken axes, in the order the
# count step counts them and rod_analytic lists them
_PATHS = tuple((first, second) for first in range(3) for second in OTHER_AXES[first])
# the axis path i leaves standing, which names its outcome
_OUTCOMES = tuple(3 - f - s for f, s in _PATHS)
# row i is the one-hot outcome of path i: path counts @ it = outcome counts
_PATH_OUTCOMES = np.eye(3, dtype=np.int64)[list(_OUTCOMES)]


def _weigh(w: BreakWeight, cosines) -> np.ndarray:
    """``w`` of the angles of the |cosines| ``cosines``, in one ufunc pass."""
    return np.asarray(w.fn(np.arccos(cosines)), dtype=float)


def _stage1(weights: np.ndarray) -> tuple[float, float, float]:
    """Normalized stage-1 weights from the three ties' ``weights``."""
    w0, w1, w2 = weights.tolist()
    if w0 < 0.0 or w1 < 0.0 or w2 < 0.0:
        raise ValueError("negative stage-1 weight")
    total = float(weights.sum())
    if not total > 0.0:  # NaN fails too
        raise ValueError("degenerate frame/state: all stage-1 weights vanish")
    # abs makes a -0.0 weight +0.0, so no probability carries a sign
    return abs(w0) / total, abs(w1) / total, abs(w2) / total


# the in-plane cosine of a ray at 45 degrees to both retained axes
_EVEN = math.sqrt(0.5)


def _cosines_from_ray(c, j: int, k: int) -> list[float]:
    """The in-plane cosines of axes j and k, from the ray's direction cosines
    ``c``. A ray with no component along either (both exactly 0) projects
    to no direction in their plane; it gets two equal cosines, so stage 2
    splits evenly between j and k."""
    norm = math.hypot(c[j], c[k])
    if norm == 0.0:
        return [_EVEN, _EVEN]
    return [min(c[j] / norm, 1.0), min(c[k] / norm, 1.0)]


def _stage2(wj: float, wk: float) -> tuple[float, float]:
    """Normalized stage-2 weights of the two retained axes."""
    if wj < 0.0 or wk < 0.0:
        raise ValueError("negative stage-2 weight")
    total = wj + wk
    if not total > 0.0:  # NaN fails too
        raise ValueError("degenerate projection: both stage-2 weights vanish")
    return abs(wj) / total, abs(wk) / total


@functools.lru_cache(maxsize=1)
def _tree(
    p: Ray, e: Frame, w: BreakWeight
) -> tuple[tuple[float, float, float], tuple[tuple[float, float], ...]]:
    """The rule's stage probabilities, the one route both ``rod_analytic``
    and ``thresholds`` read: ``s1``, ``_stage1`` of the weights of the ray's
    direction cosines, and ``s2[i]``, ``_stage2`` of the weights of the
    retained axes ``OTHER_AXES[i]`` at their |cosines| with the ray
    projected into their plane, or ``(0.0, 0.0)`` where first break i has
    zero weight. Each stage is weighed in one ``_weigh`` call.

    The last result is kept (one entry, keyed by value: equal rays, frames
    and weights hit it), so both parts are tuples, which no reader can
    change. A hit returns the floats a fresh call computes, since the tree
    reads its inputs through their values only, and every value it returns
    is an absolute or a ratio of absolutes, the same for 0.0 and -0.0. A
    ValueError is raised again on every call, not kept."""
    c = direction_cosines(p, e)
    s1 = _stage1(_weigh(w, c))
    rows = e.rows
    pv = p.rep.x, p.rep.y, p.rep.z
    dots = [_dot(pv, axis) for axis in rows]
    cosines: list[float] = []  # two per first break of nonzero weight
    for first in (0, 1, 2):
        if s1[first] == 0.0:
            continue
        j, k = OTHER_AXES[first]
        dj, dk = dots[j], dots[k]
        norm = math.hypot(dj, dk)
        if norm < DEGENERATE_EPS:
            # p lies within 1e-12 of axis `first`, whose stage-1 weight is
            # rounding noise; the in-plane cosines still follow from p's own.
            cosines += _cosines_from_ray(c, j, k)
            continue
        # p projected into the plane of axes j and k, made unit, dotted with each
        (a0, a1, a2), (b0, b1, b2) = rows[j], rows[k]
        x = (dj * a0 + dk * b0) / norm
        y = (dj * a1 + dk * b1) / norm
        z = (dj * a2 + dk * b2) / norm
        v = x, y, z
        n = math.sqrt(_dot(v, v))
        q = x / n, y / n, z / n
        cosines += (min(abs(_dot(q, rows[j])), 1.0), min(abs(_dot(q, rows[k])), 1.0))
    ws = _weigh(w, cosines).tolist()
    pairs = zip(ws[::2], ws[1::2])
    return s1, tuple(_stage2(*next(pairs)) if x != 0.0 else (0.0, 0.0) for x in s1)


def rod_analytic(
    p: Ray, e: Frame, w: BreakWeight
) -> tuple[OutcomeDistribution, tuple[float, ...]]:
    """Exact outcome distribution and the six break-order path probabilities,
    in ``_PATHS`` order, the order of the count step's six counts.

    Outcome k sums the two paths that leave axis k standing. Orders whose
    stage-1 weight is zero carry probability +0.0 (they are never sampled,
    so the degenerate projection behind them is never taken).
    """
    s1, s2 = _tree(p, e, w)
    # path 2 * i + n is s1[i] * s2[i][n]; no stage probability is -0.0
    path_probs = tuple(s * pr2 for s, pair in zip(s1, s2) for pr2 in pair)
    probs = [0.0, 0.0, 0.0]
    for k, pr in zip(_OUTCOMES, path_probs):
        probs[k] += pr
    return OutcomeDistribution(LABELS, tuple(probs)), path_probs


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
    return t0, t1, *(pj if pj != 0.0 else -1.0 for pj, _ in s2)


def outcomes_from_uniforms(th: tuple, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: how many trials follow each of the six break paths.

    ``th`` is the ``thresholds`` of a ray, frame and weight, computed once
    per run. Returns int64 counts in ``_PATHS`` order, (first, second)
    broken = (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1); path i ends on
    outcome ``_OUTCOMES[i]``, the axis it leaves standing. Trial i reads
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
        lib.rod_count(u1, u2, counts, *th)
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


def rod_sample(p: Ray, e: Frame, w: BreakWeight, rng) -> tuple[str, Ray, tuple[int, int]]:
    """One measurement: returns (outcome label, collapsed state, break order),
    the break order as its ``(first, second)`` entry of ``_PATHS``.

    The rod stabilizes on the outcome axis, so the new state is that axis's
    ray and an immediate repeat of the same measurement gives the same
    outcome with certainty.
    """
    u1 = rng.random()
    u2 = rng.random()
    counts = outcomes_from_uniforms(thresholds(p, e, w), np.array([u1]), np.array([u2]))
    i = counts.tolist().index(1)
    k = _OUTCOMES[i]
    return LABELS[k], Ray(UnitVector(*e.rows[k])), _PATHS[i]


def marginal_measure(p: Ray, w: BreakWeight) -> Callable[[Frame, int], float]:
    """The rod's outcome probability of a frame's axis, as a frame function.

    For the quantum weight this is a frame-independent function of the
    axis's ray (the Born value); for the uniform variant the same ray
    generally gets different values in different frames.
    """

    def measure(frame: Frame, axis: int) -> float:
        return rod_analytic(p, frame, w)[0].probs[axis]

    return measure
