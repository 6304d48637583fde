"""Disk-shaking model (two outcomes). CLI model id: ``ks``.

The entity carries, besides its state vector p, a hidden point t on the open
half sphere around p. t is produced by shaking a particle on a unit-radius
disk held over the pole p (landing spot uniform in disk area) and projecting
it straight down onto the sphere: a landing radius r maps to polar angle
arcsin(r), so the hidden-state density is (cos theta)/pi on the upper half
sphere and 0 below the equator.

Measuring along q reads off which half sphere the hidden point is in:
``up`` iff t.q > 0 (the equator tie counts as down). The state collapses to
q on up, -q on down, and the hidden point is reshaken at the new pole. The
up probability reproduces cos^2(theta/2) for the angle theta between p and q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import UnitVector, tangent_basis
from .outcomes import OutcomeDistribution, cosine_split

LABELS = ("up", "down")


@dataclass(frozen=True)
class DiskState:
    """State vector p plus hidden point t with t.p > 0."""

    p: UnitVector
    t: UnitVector

    def __post_init__(self):
        if self.t.dot(self.p) <= 0.0:
            raise ValueError("hidden point must lie strictly above the equator of p")


def disk_analytic(q: UnitVector, p: UnitVector) -> OutcomeDistribution:
    """Exact (up, down) probabilities: (cos^2(theta/2), sin^2(theta/2)).

    cos^2(theta/2) = (1 + cos theta)/2, so this is the sphere model's law.
    """
    return cosine_split(LABELS, q.dot(p))


def hidden_from_uniforms(
    p: np.ndarray, u1: np.ndarray, u2: np.ndarray
) -> np.ndarray:
    """Vectorized hidden-point sampler: rows are points on the half sphere of p.

    Disk landing: radius sqrt(u1) (area-uniform), azimuth 2*pi*u2; projected
    down, sin(theta) = sqrt(u1) and cos(theta) = sqrt(1 - u1) > 0.
    """
    a, b = tangent_basis(p)
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2, dtype=float))
    st = np.sqrt(u1)
    ct = np.sqrt(1.0 - u1)
    phi = 2.0 * math.pi * u2
    return (
        (st * np.cos(phi))[:, None] * a
        + (st * np.sin(phi))[:, None] * b
        + ct[:, None] * p
    )


def up_indices(
    p: np.ndarray, q: np.ndarray, u1: np.ndarray, u2: np.ndarray
) -> np.ndarray:
    """Vectorized trial kernel: 0 for up, 1 for down, per (u1, u2) pair.

    Evaluates t.q without materializing t, in the tangent basis of p. The
    scalar path (``sample_hidden`` then ``disk_measure``) materializes t with
    ``hidden_from_uniforms`` first, so its t.q can differ from this one in
    the last bits: the two agree on the outcome of every draw whose |t.q|
    is larger than that rounding, not bitwise on t.q.
    """
    a, b = tangent_basis(p)
    aq = float(a @ q)
    bq = float(b @ q)
    pq = float(p @ q)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    st = np.sqrt(u1)
    ct = np.sqrt(1.0 - u1)
    phi = 2.0 * math.pi * u2
    tq = st * (np.cos(phi) * aq + np.sin(phi) * bq) + ct * pq
    return (tq <= 0.0).astype(np.int64)


def sample_hidden(p: UnitVector, rng) -> UnitVector:
    """Shake the disk over pole p once and project: one hidden point."""
    t = hidden_from_uniforms(p.array, rng.random(), rng.random())[0]
    return UnitVector(float(t[0]), float(t[1]), float(t[2]))


def initial_state(p: UnitVector, rng) -> DiskState:
    return DiskState(p, sample_hidden(p, rng))


def disk_measure(s: DiskState, q: UnitVector, rng) -> tuple[str, DiskState]:
    """Measure along q: hemisphere test on the current hidden point.

    Returns the outcome label and the collapsed state (pole q or -q) with a
    freshly shaken hidden point at the new pole.
    """
    up = s.t.dot(q) > 0.0
    new_p = q if up else -q
    return LABELS[0 if up else 1], initial_state(new_p, rng)
