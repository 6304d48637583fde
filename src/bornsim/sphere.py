"""Elastic-band model on the sphere (two outcomes).

A point particle sits at a unit vector v. Measuring along u stretches an
elastic string across the diameter from -u to u; the particle drops
orthogonally onto it at coordinate c = u.v. The string snaps at a uniformly
distributed point b in [-1, 1]: if the break is below the particle (b < c)
the surviving piece pulls it to u (outcome ``o1``), otherwise to -u
(outcome ``o2``). Averaging over the break point gives

    P(o1) = (1 + cos(theta)) / 2,   P(o2) = (1 - cos(theta)) / 2,

the spin-1/2 probabilities for the angle theta between u and v.
"""

from __future__ import annotations

import numpy as np

from . import native
from .geometry import UnitVector
from .outcomes import OutcomeDistribution, cosine_split

LABELS = ("o1", "o2")


def sphere_analytic(u: UnitVector, v: UnitVector) -> OutcomeDistribution:
    """Exact probabilities ((1+cos)/2, (1-cos)/2) of measuring v along u; sum exactly 1."""
    return cosine_split(LABELS, u.dot(v))


def outcome_indices(c: float, u1: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: int64 counts (o1, o2) of the uniform draws.

    ``c`` = u.v is the run constant. ``u1`` holds draw 0 of each trial; the
    break point is b = 2*u1 - 1 and the outcome is o1 iff b < c, with the
    tie b == c going to o2. A NaN draw or c fails that compare, so it
    counts as o1. A ValueError is raised unless ``u1`` is 1-d.

    Where ``native.LIBRARY.load()`` returns None, numpy counts the draws
    with b >= c. Otherwise the C loop ``sphere_count``, on a contiguous
    copy of strided draws, makes the same compare one draw at a time, so it
    returns the same counts.
    """
    u1 = np.asarray(u1, dtype=float)
    if u1.ndim != 1:
        raise ValueError(f"u1 must be 1-d, not of shape {u1.shape}")
    lib = native.LIBRARY.load()
    if lib is None:
        k = np.count_nonzero(2.0 * u1 - 1.0 >= c)
    else:
        k = lib.sphere_count(np.ascontiguousarray(u1), c)
    return np.array([len(u1) - k, k], dtype=np.int64)


def sphere_sample(u: UnitVector, v: UnitVector, rng) -> tuple[str, UnitVector, float]:
    """One measurement of state v along u: (outcome label, collapsed state, break point).

    The collapsed state is u on o1 and -u on o2; the break point b lies in
    [-1, 1]. ``rng`` needs a ``random()`` method yielding uniforms in [0, 1).
    """
    u1 = rng.random()
    idx = int(outcome_indices(u.dot(v), np.array([u1]))[1])  # o2 count = index
    return LABELS[idx], u if idx == 0 else -u, 2.0 * u1 - 1.0
