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

from dataclasses import dataclass

import numpy as np

from .geometry import UnitVector
from .outcomes import OutcomeDistribution, cosine_split

LABELS = ("o1", "o2")


@dataclass(frozen=True)
class SphereState:
    v: UnitVector


@dataclass(frozen=True)
class SphereMeasurement:
    """Measurement along u: outcome o1 collapses to u, o2 to -u."""

    u: UnitVector


@dataclass(frozen=True)
class ElasticHiddenVariable:
    """Break coordinate along the string, in [-1, 1]."""

    b: float

    def __post_init__(self):
        if not -1.0 <= self.b <= 1.0:
            raise ValueError(f"break coordinate {self.b} outside [-1, 1]")


def sphere_analytic(e: SphereMeasurement, s: SphereState) -> OutcomeDistribution:
    """Exact outcome probabilities ((1+cos)/2, (1-cos)/2); they sum to 1 exactly."""
    return cosine_split(LABELS, e.u.dot(s.v))


def outcome_indices(c: float, u1: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: outcome index per uniform draw.

    ``u1`` holds draw 0 of each trial; the break point is b = 2*u1 - 1 and
    the outcome is o1 (index 0) iff b < c, with the tie b == c going to o2.
    """
    b = 2.0 * np.asarray(u1) - 1.0
    return (b >= c).astype(np.int64)


def sphere_sample(
    e: SphereMeasurement, s: SphereState, rng
) -> tuple[str, SphereState, ElasticHiddenVariable]:
    """One measurement: returns (outcome label, collapsed state, break point).

    ``rng`` needs a ``random()`` method yielding uniforms in [0, 1).
    """
    u1 = rng.random()
    c = e.u.dot(s.v)
    idx = int(outcome_indices(c, np.array([u1]))[0])
    b = 2.0 * u1 - 1.0
    new_v = e.u if idx == 0 else -e.u
    return LABELS[idx], SphereState(new_v), ElasticHiddenVariable(b)
