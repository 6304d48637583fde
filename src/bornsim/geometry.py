"""Small fixed-dimension vector geometry shared by all measurement models.

Unit vectors on the sphere, antipodally identified rays, ordered orthonormal
frames and direction cosines. Everything is pure: functions that need
randomness take an explicit ``numpy.random.Generator``.
``normalize`` is the one rule that turns raw reals into a unit vector; input
that should already be unit goes through the near-unit ``_unit_components``.

Tolerances used across the package:

* ``1e-12`` for algebraic identities in double precision,
* ``1e-10`` for constructed orthonormality,
* ``1e-6`` as the rejection threshold for non-normalizable input.

Rounding contract
-----------------
Frames, canonical rays and the rod tables built from them are pinned to the
last bit (``tests/test_golden_analytic.py``, and the benchmark's CSV
digests), so a rewrite of this path must keep every rounding step:

* Every dot stays a BLAS call on operands with the same values and layout.
  numpy hands a 3-element dot to BLAS, and with OpenBLAS on x86-64 that is
  a fused multiply-add chain: on 20 000 pairs of Gaussian 3-vectors (numpy
  2.4, OpenBLAS, AVX-512 Xeon) plain Python ``x0*y0 + x1*y1 + x2*y2``
  matched it on only 13 277, and ``m @ v`` (a matrix-vector product)
  matched the three row dots ``m[i] @ v`` on only 9 325 of 20 000. On 1-D
  float64 operands ``a.dot(b)`` and ``a @ b`` are one BLAS call, and so are
  ``m.dot(v)`` and ``m @ v`` for a 3x3 matrix and a 3-vector, so either may
  be written; ``.dot`` skips the matmul dispatch
  (``tests/test_geometry.py::test_dot_and_matmul_round_alike``).
  ``np.linalg.norm(v)`` of a vector is ``sqrt(v.dot(v))`` on
  ``v.ravel(order="K")``, and of rows ``sqrt(add.reduce(g * g, axis=1))``;
  either may be written out. The pinned bits are those of OpenBLAS's
  SkylakeX kernels: its Haswell and Prescott kernels round some dots
  differently.
* ``arccos`` and ``sin`` stay numpy ufuncs on contiguous arrays: numpy's
  vectorized ``arccos`` differed from ``math.acos`` on 8 969 of 100 000
  uniform inputs in [0, 1). Each element's result does not depend on its
  neighbours, so several evaluations may share one call.
* Element-wise ``*``, ``+``, ``-``, ``/``, ``abs``, ``min``, negation,
  exact power-of-two scaling (``ldexp``) and ``sqrt``, and ``tolist``/
  ``float`` round trips round the same on Python floats as in numpy, so
  they may move between the two. So may a two-term sum; the three-term
  ``sum`` of the rod's stage-1 weights stays numpy's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-6        # |norm - 1| beyond this is rejected as non-normalizable
COMPONENT_EPS = 1e-12  # components at or below this count as zero for sign rules
ORTHO_TOL = 1e-10      # pairwise |cos| bound for frame axes
DEGENERATE_EPS = 1e-12
OTHER_AXES = ((1, 2), (0, 2), (0, 1))  # the two axes other than axis i, ascending


def _unit_components(vec) -> tuple[float, float, float]:
    """The components of the 3-vector ``vec``, divided by its norm unless
    that is 1 to working precision; rejects a norm off by more than
    ``NORM_TOL``."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    c = v.ravel(order="K")  # contiguous, as np.linalg.norm makes it
    n = math.sqrt(c.dot(c))  # np.linalg.norm(c), without its overhead
    if not math.isfinite(n) or abs(n - 1.0) > NORM_TOL:
        raise ValueError(f"vector norm {n} deviates from 1 by more than {NORM_TOL}")
    x, y, z = v.tolist()
    if abs(n - 1.0) <= 1e-14:
        # already unit to working precision; dividing would shift the last ulp
        # and break idempotency of the canonical representative
        return x, y, z
    return x / n, y / n, z / n


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
    return UnitVector(*_unit_components((x, y, z)))


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
    return _ray(*_unit_components(vec.array if isinstance(vec, UnitVector) else vec))


def _ray(x: float, y: float, z: float) -> Ray:
    """The Ray through the unit vector (x, y, z), by the sign rule of ``Ray``."""
    for c in (x, y, z):
        if abs(c) > COMPONENT_EPS:
            if c < 0:
                x, y, z = -x, -y, -z
            break
    return Ray(UnitVector(x, y, z))


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal triad of rays: one 3-outcome measurement."""

    axes: tuple[Ray, Ray, Ray]

    def __post_init__(self):
        a, b, c = self.axes
        a, b, c = a.rep, b.rep, c.rep
        m = np.array(((a.x, a.y, a.z), (b.x, b.y, b.z), (c.x, c.y, c.z)))
        m.setflags(write=False)  # before the row views, which inherit it
        rows = (m[0], m[1], m[2])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            d = abs(float(rows[i].dot(rows[j])))
            if not d <= ORTHO_TOL:  # NaN fails too
                raise ValueError(
                    f"frame axes {i} and {j} not orthogonal: |cos| = {d:.3e}"
                )
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "_rows", rows)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 array whose rows are the canonical axis representatives."""
        return self._matrix

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three rows of ``matrix``, as read-only views of it."""
        return self._rows


def identity_frame() -> Frame:
    return Frame(
        (
            canonicalize((1.0, 0.0, 0.0)),
            canonicalize((0.0, 1.0, 0.0)),
            canonicalize((0.0, 0.0, 1.0)),
        )
    )


def normalize(vec, error: str) -> np.ndarray:
    """vec / |vec| of a 3-vector as a float array; raises ValueError(error) if
    |vec| < 1e-12 or a component is not finite.

    The vector is first scaled by a power of two (exact) so that its squares
    cannot overflow; the quotient is ``vec / np.linalg.norm(vec)`` bit for
    bit, except on OpenBLAS's Prescott kernel, whose dot rounds an operand 8
    bytes off 16-byte alignment (every other row of an (n, 3) array)
    differently from the fresh, aligned array normalized here. The
    scaling and the quotient are taken on Python floats, which round as
    numpy's ``ldexp`` and ``/`` do; the norm's dot stays numpy's.
    """
    components = np.asarray(vec, dtype=float).tolist()
    if not all(map(math.isfinite, components)):
        raise ValueError(error)
    _, e = math.frexp(max(map(abs, components)))
    x, y, z = components
    x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    v = np.array((x, y, z))
    n = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its overhead
    if math.ldexp(n, min(e, 0)) < DEGENERATE_EPS:
        raise ValueError(error)
    return np.array((x / n, y / n, z / n))


def orthonormal_frame(v1, v2, v3) -> Frame:
    """Gram-Schmidt three vectors into a Frame (axes canonicalized).

    The projection step runs twice per vector ("twice is enough"), which
    pushes pairwise cosines to machine precision. Raises ValueError when the
    triple is linearly dependent (residual norm below 1e-6 at any step).
    """
    basis: list[tuple[np.ndarray, tuple[float, float, float]]] = []
    for v in (v1, v2, v3):
        w = normalize(v, "degenerate triple: zero vector")
        x, y, z = w.tolist()
        for _ in range(2):
            for b, (b0, b1, b2) in basis:
                d = float(w.dot(b))
                x, y, z = x - d * b0, y - d * b1, z - d * b2
                w = np.array((x, y, z))
        n = math.sqrt(w.dot(w))
        if n < 1e-6:
            raise ValueError("degenerate triple: vectors are not independent")
        unit = (x / n, y / n, z / n)
        basis.append((np.array(unit), unit))
    # each quotient's Ray: its norm is within 1e-14 of 1, so canonicalize keeps it
    return Frame(tuple(_ray(*unit) for _, unit in basis))


def vector_angle(u: UnitVector, v: UnitVector) -> float:
    """Angle between oriented unit vectors, in [0, pi]."""
    return math.acos(min(1.0, max(-1.0, u.dot(v))))


def direction_cosines(p: Ray, e: Frame) -> tuple[float, float, float]:
    """Absolute cosines of the angles between a ray and the three frame axes.

    Their squares sum to 1 (within 1e-12 in double precision).
    """
    x, y, z = e.matrix.dot(p.array).tolist()
    return min(abs(x), 1.0), min(abs(y), 1.0), min(abs(z), 1.0)


def tangent_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (a, b) spanning the plane normal to v.

    Pure function of v; used to place disk/azimuth coordinates around a pole.
    """
    v = np.asarray(v, dtype=float)
    e = [0.0, 0.0, 0.0]
    e[int(np.argmin(np.abs(v)))] = 1.0
    a = _unit_cross(v.tolist(), e)
    b = _unit_cross(v.tolist(), a.tolist())
    return a, b


def _unit_cross(u: list[float], w: list[float]) -> np.ndarray:
    """np.cross(u, w) / np.linalg.norm(np.cross(u, w)) for 3-vectors, with
    the products and differences of np.cross on Python floats (see the
    rounding contract) and the norm's dot kept in numpy."""
    c = np.array([u[1] * w[2] - u[2] * w[1],
                  u[2] * w[0] - u[0] * w[2],
                  u[0] * w[1] - u[1] * w[0]])
    return c / math.sqrt(float(c.dot(c)))


def rotate_frame_about_axis(e: Frame, axis_index: int, angle: float) -> Frame:
    """Rotate the two other axes of ``e`` by ``angle`` about ``axis_index``.

    The shared axis is unchanged; useful for building frame pairs that share
    one ray.
    """
    if axis_index not in (0, 1, 2):
        raise ValueError(f"axis_index must be 0, 1 or 2, got {axis_index}")
    m = e.matrix
    others = OTHER_AXES[axis_index]
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
        with contextlib.suppress(ValueError):  # a zero draw: draw again
            return UnitVector(*normalize(rng.standard_normal(3), "zero draw").tolist())


def random_frame(rng: np.random.Generator) -> Frame:
    """Random orthonormal frame from Gram-Schmidt on three Gaussian draws.

    Near-degenerate triples (pairwise |cos| > 1 - 1e-6, or a vanishing
    Gram-Schmidt residual) are rejected and redrawn.
    """
    while True:
        g = rng.standard_normal((3, 3))
        norms = np.sqrt(np.add.reduce(g * g, axis=1))  # np.linalg.norm(g, axis=1)
        if min(norms.tolist()) < 1e-12:
            continue
        u = g / norms[:, None]
        cos01 = abs(float(u[0].dot(u[1])))
        cos02 = abs(float(u[0].dot(u[2])))
        cos12 = abs(float(u[1].dot(u[2])))
        if max(cos01, cos02, cos12) > 1.0 - 1e-6:
            continue
        try:
            return orthonormal_frame(g[0], g[1], g[2])
        except ValueError:
            continue
