"""Small fixed-dimension vector geometry shared by all measurement models.

Unit vectors on the sphere, antipodally identified rays, ordered orthonormal
frames, direction cosines and in-plane projections. Everything is pure:
functions that need randomness take an explicit ``numpy.random.Generator``.

Tolerances used across the package:

* ``1e-12`` for algebraic identities in double precision,
* ``1e-10`` for constructed orthonormality,
* ``1e-6`` as the rejection threshold for non-normalizable input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-6        # |norm - 1| beyond this is rejected as non-normalizable
COMPONENT_EPS = 1e-12  # components at or below this count as zero for sign rules
ORTHO_TOL = 1e-10      # pairwise |cos| bound for frame axes
DEGENERATE_EPS = 1e-12


class DegenerateProjectionError(ValueError):
    """Projection target plane is orthogonal to the projected ray."""


def _as_unit_array(vec, tol: float = NORM_TOL) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if not math.isfinite(n) or abs(n - 1.0) > tol:
        raise ValueError(f"vector norm {n} deviates from 1 by more than {tol}")
    if abs(n - 1.0) <= 1e-14:
        # already unit to working precision; dividing would shift the last ulp
        # and break idempotency of the canonical representative
        return v.astype(float, copy=True)
    return v / n


@dataclass(frozen=True)
class UnitVector:
    """Point on the unit sphere. Orientation matters (v and -v differ)."""

    x: float
    y: float
    z: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)


def unit_vector(x: float, y: float, z: float) -> UnitVector:
    """Validating constructor: renormalizes input whose norm is within 1e-6 of 1."""
    v = _as_unit_array((x, y, z))
    return UnitVector(float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class Ray:
    """Direction with both orientations identified; ``rep`` is canonical.

    Canonical means the first component of ``rep`` whose magnitude exceeds
    ``COMPONENT_EPS`` is strictly positive, which picks one representative of
    each antipodal pair deterministically.
    """

    rep: UnitVector

    @property
    def array(self) -> np.ndarray:
        return self.rep.array


def canonicalize(vec) -> Ray:
    """Map a unit 3-vector (or UnitVector) to the Ray through it.

    ``canonicalize(v) == canonicalize(-v)``. Rejects input whose norm is off
    by more than 1e-6.
    """
    if isinstance(vec, UnitVector):
        v = _as_unit_array(np.array([vec.x, vec.y, vec.z]))
    else:
        v = _as_unit_array(vec)
    for c in v:
        if abs(c) > COMPONENT_EPS:
            if c < 0:
                v = -v
            break
    return Ray(UnitVector(float(v[0]), float(v[1]), float(v[2])))


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal triad of rays: one 3-outcome measurement."""

    axes: tuple[Ray, Ray, Ray]

    def __post_init__(self):
        m = np.array([ax.rep.array for ax in self.axes])
        for i in range(3):
            for j in range(i + 1, 3):
                d = abs(float(m[i] @ m[j]))
                if d > ORTHO_TOL:
                    raise ValueError(
                        f"frame axes {i} and {j} not orthogonal: |cos| = {d:.3e}"
                    )
        m.flags.writeable = False
        object.__setattr__(self, "_matrix", m)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 array whose rows are the canonical axis representatives."""
        return self._matrix


def identity_frame() -> Frame:
    return Frame(
        (
            canonicalize((1.0, 0.0, 0.0)),
            canonicalize((0.0, 1.0, 0.0)),
            canonicalize((0.0, 0.0, 1.0)),
        )
    )


def normalize(vec, error: str) -> np.ndarray:
    """vec / |vec| as a float array; raises ValueError(error) if |vec| < 1e-12
    or a component is not finite.

    The vector is first scaled by a power of two (exact) so that its squares
    cannot overflow; the quotient is the same as without the scaling.
    """
    v = np.asarray(vec, dtype=float)
    components = v.tolist()
    if not all(map(math.isfinite, components)):
        raise ValueError(error)
    _, e = math.frexp(max(map(abs, components)))
    v = np.ldexp(v, -e)
    n = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its overhead
    if math.ldexp(n, min(e, 0)) < DEGENERATE_EPS:
        raise ValueError(error)
    return v / n


def orthonormal_frame(v1, v2, v3) -> Frame:
    """Gram-Schmidt three vectors into a Frame (axes canonicalized).

    The projection step runs twice per vector ("twice is enough"), which
    pushes pairwise cosines to machine precision. Raises ValueError when the
    triple is linearly dependent (residual norm below 1e-6 at any step).
    """
    basis: list[np.ndarray] = []
    for v in (v1, v2, v3):
        w = normalize(v, "degenerate triple: zero vector")
        for _ in range(2):
            for b in basis:
                w = w - (w @ b) * b
        n = math.sqrt(w.dot(w))
        if n < 1e-6:
            raise ValueError("degenerate triple: vectors are not independent")
        basis.append(w / n)
    return Frame(tuple(canonicalize(b) for b in basis))


def vector_angle(u: UnitVector, v: UnitVector) -> float:
    """Angle between oriented unit vectors, in [0, pi]."""
    return math.acos(min(1.0, max(-1.0, u.dot(v))))


def direction_cosines(p: Ray, e: Frame) -> tuple[float, float, float]:
    """Absolute cosines of the angles between a ray and the three frame axes.

    Their squares sum to 1 (within 1e-12 in double precision).
    """
    c = np.abs(e.matrix @ p.array)
    c = np.minimum(c, 1.0)
    return (float(c[0]), float(c[1]), float(c[2]))


def project_onto_plane(p: Ray, e: Frame, dropped_axis: int) -> tuple[Ray, float]:
    """Project a ray onto the plane of the two frame axes other than ``dropped_axis``.

    Returns ``(p', norm)`` where ``p'`` is the normalized in-plane ray and
    ``norm`` is the length of the unnormalized projection, i.e. the sine of
    the angle between ``p`` and the dropped axis. The retained-axis cosines
    of ``p'`` equal the original cosines divided by ``norm``.

    Raises DegenerateProjectionError when ``p`` coincides with the dropped
    axis (projection norm below 1e-12).
    """
    if dropped_axis not in (0, 1, 2):
        raise ValueError(f"dropped_axis must be 0, 1 or 2, got {dropped_axis}")
    m = e.matrix
    pv = p.array
    keep = [k for k in range(3) if k != dropped_axis]
    comps = [float(pv @ m[k]) for k in keep]
    norm = math.hypot(comps[0], comps[1])
    if norm < DEGENERATE_EPS:
        raise DegenerateProjectionError(
            "degenerate projection: ray coincides with the dropped axis"
        )
    proj = (comps[0] * m[keep[0]] + comps[1] * m[keep[1]]) / norm
    return canonicalize(proj / float(np.linalg.norm(proj))), norm


def tangent_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (a, b) spanning the plane normal to v.

    Pure function of v; used to place disk/azimuth coordinates around a pole.
    """
    v = np.asarray(v, dtype=float)
    h = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[h] = 1.0
    a = np.cross(v, e)
    a = a / float(np.linalg.norm(a))
    b = np.cross(v, a)
    b = b / float(np.linalg.norm(b))
    return a, b


def rotate_frame_about_axis(e: Frame, axis_index: int, angle: float) -> Frame:
    """Rotate the two other axes of ``e`` by ``angle`` about ``axis_index``.

    The shared axis is unchanged; useful for building frame pairs that share
    one ray.
    """
    if axis_index not in (0, 1, 2):
        raise ValueError(f"axis_index must be 0, 1 or 2, got {axis_index}")
    m = e.matrix
    others = [k for k in range(3) if k != axis_index]
    b, c = m[others[0]], m[others[1]]
    cb, sb = math.cos(angle), math.sin(angle)
    rows: list[np.ndarray | None] = [None, None, None]
    rows[axis_index] = m[axis_index]
    rows[others[0]] = cb * b + sb * c
    rows[others[1]] = -sb * b + cb * c
    return Frame(tuple(canonicalize(r) for r in rows))


def random_unit_vector(rng: np.random.Generator) -> UnitVector:
    """Uniform point on the sphere (normalized 3D Gaussian draw)."""
    while True:
        g = rng.standard_normal(3)
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            g = g / n
            return UnitVector(float(g[0]), float(g[1]), float(g[2]))


def random_frame(rng: np.random.Generator) -> Frame:
    """Random orthonormal frame from Gram-Schmidt on three Gaussian draws.

    Near-degenerate triples (pairwise |cos| > 1 - 1e-6, or a vanishing
    Gram-Schmidt residual) are rejected and redrawn.
    """
    while True:
        g = rng.standard_normal((3, 3))
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms < 1e-12):
            continue
        u = g / norms[:, None]
        cos01 = abs(float(u[0] @ u[1]))
        cos02 = abs(float(u[0] @ u[2]))
        cos12 = abs(float(u[1] @ u[2]))
        if max(cos01, cos02, cos12) > 1.0 - 1e-6:
            continue
        try:
            return orthonormal_frame(g[0], g[1], g[2])
        except ValueError:
            continue
