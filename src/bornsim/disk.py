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

The counting kernel ``up_indices`` needs only the sign of t.q. In a process
where the package's C library (``native.LIBRARY``) loads, it filters
(Shewchuk 1997, adaptive-precision geometric predicates): a C loop with
polynomial trig, in ``_native.c``, decides every trial whose |t.q| is above
``_MARGIN``, and the float64 formula is evaluated again on the few trials
inside it. In a process where the library does not load, the float64
formula decides every trial. Every trial's outcome equals the one-pass
float64 formula's, on either path; see ``up_indices``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .geometry import UnitVector, tangent_basis
from .outcomes import OutcomeDistribution, cosine_split

LABELS = ("up", "down")

# |t.q| above which the C pass decides a trial (see ``up_indices``)
_MARGIN = 2.0**-12


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


def _t_dot_q(u1: np.ndarray, u2: np.ndarray, aq: float, bq: float, pq: float) -> np.ndarray:
    """t.q per (u1, u2) pair, in float64, from the dots of q with p's tangent
    basis (a, b) and with p, without materializing t."""
    st = np.sqrt(u1)
    ct = np.sqrt(1.0 - u1)
    phi = 2.0 * math.pi * u2
    return st * (np.cos(phi) * aq + np.sin(phi) * bq) + ct * pq


def basis_dots(p: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    """Run constants of the counting kernel: q dotted with p's tangent basis and p."""
    a, b = tangent_basis(p)
    return float(a @ q), float(b @ q), float(p @ q)


def up_indices(dots: tuple, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: int64 counts (up, down) of the (u1, u2) pairs.

    ``dots`` is the ``basis_dots`` of the state p and direction q, computed
    once per run. A trial is down exactly where the float64 formula
    ``_t_dot_q(u1, u2, *dots) <= 0`` holds, ties included. A ValueError is
    raised unless ``u1`` and ``u2`` are 1-d and of one length.

    Where ``native.LIBRARY.load()`` returns None, the formula decides every
    trial. Otherwise the C pass, on contiguous copies of strided draws,
    counts the trials with t.q < -``_MARGIN`` as down and returns the
    indices of those with |t.q| <= ``_MARGIN``, every exact tie among them,
    for the formula to decide; every other trial is up. It leaves to the
    formula also a trial whose draws are NaN or outside [0, 1], where its
    quadrant logic does not hold.

    Why the margin is safe: the C pass uses the same float64 st, ct and
    dots as the formula, so it differs from it only in the bracket
    cos(phi) aq + sin(phi) bq, where |aq| + |bq| <= sqrt(2), and in the last
    bits of the float64 products and sums. Its degree-9 and degree-10
    polynomials on the quadrant-reduced azimuth are within 1.8e-9 of
    float64 trig, well inside 2**-20 (``tests/test_disk.py`` guards this).
    So its bracket is less than 2**-19 from the float64 one, and st <= 1: a
    trial with |t.q| > 2**-12 in the C pass has the same sign, and is no
    tie, in float64.

    The scalar path (``sample_hidden`` then ``disk_measure``) materializes t
    first; its t.q can differ in the last bits, so the two agree on the
    outcome of every draw whose |t.q| is larger than that rounding.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 1 or u2.ndim != 1:
        raise ValueError(f"u1 and u2 must be 1-d, not of shapes {u1.shape} and {u2.shape}")
    if len(u1) != len(u2):
        raise ValueError(f"u1 and u2 differ in length: {len(u1)} and {len(u2)}")
    lib = native.LIBRARY.load()
    if lib is None:
        down = int(np.count_nonzero(_t_dot_q(u1, u2, *dots) <= 0.0))
    else:
        u1, u2 = np.ascontiguousarray(u1), np.ascontiguousarray(u2)
        near = np.empty(len(u1), dtype=np.int64)
        below = ctypes.c_int64()
        m = lib.disk_first_pass(u1.ctypes.data, u2.ctypes.data, len(u1), *dots, _MARGIN,
                                near.ctypes.data, ctypes.byref(below))
        down = below.value
        if m:
            near = near[:m]
            down += int(np.count_nonzero(_t_dot_q(u1[near], u2[near], *dots) <= 0.0))
    return np.array([len(u1) - down, down], dtype=np.int64)


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
