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

* The dots of ``normalize``, Gram-Schmidt, ``random_frame``'s rejection
  test, ``direction_cosines``, the rod's stage tree, the Gleason measure
  and ``_unit_components``' norm are ``_dot``: ``fma(x2, y2, fma(x1, y1,
  fma(x0, y0, 0.0)))``, each fused multiply-add rounded once. That is the
  chain OpenBLAS's SkylakeX kernel makes of a 3-term ``ddot``, the one
  numpy calls for ``a.dot(b)``: on 20 000 pairs of Gaussian 3-vectors
  (numpy 2.4, AVX-512 Xeon) it matched ``a.dot(b)`` on all 20 000, and on
  20 000 more with one operand 8 bytes off 16-byte alignment, where plain
  Python ``x0*y0 + x1*y1 + x2*y2`` differed on 6 667 and 6 774. Its 3x3
  gemv ``m.dot(v)`` takes each row's terms in the order 1, 0, 2, and so
  does ``direction_cosines``. Written out, the chain gives the same bits
  on OpenBLAS's Haswell and Prescott kernels, which sum otherwise.
  In a process where the C extension module (``native.LIBRARY``) loads,
  ``_dot`` is its ``dot``, and ``random_frame``'s C body takes its dots
  there too: both make the chain with C's ``fma()`` (``ddot3`` in
  ``_native.c``). Elsewhere ``_dot`` is ``_chain_dot`` on Python floats,
  whose ``_fma`` is exact: Dekker's TwoProduct and the correctly rounded
  ``math.fsum``, and ``Fraction`` where a product is too small for
  TwoProduct. The tests hold each body to the other.
* The dots that stay BLAS calls are ``_unit_cross``' norm,
  ``disk.basis_dots``, ``_unit_components``' norm of a component of 1e100
  or more (beyond ``_fma``'s contract; it may overflow to ``inf``) and the
  CLI's 1e-6 check of custom frame rows. On 1-D float64 operands
  ``a.dot(b)`` and ``a @ b`` are one BLAS call, so either may be written;
  ``.dot`` skips the matmul dispatch
  (``tests/test_geometry.py::test_dot_and_matmul_round_alike``).
  ``np.linalg.norm(v)`` of a vector is ``sqrt(v.dot(v))`` on
  ``v.ravel(order="K")``, and of rows ``sqrt(add.reduce(g * g, axis=1))``,
  which sums each row as ``(x*x + y*y) + z*z``; either may be written out.
* ``arccos`` and ``sin`` stay numpy ufuncs on contiguous arrays: numpy's
  vectorized ``arccos`` differed from ``math.acos`` on 8 969 of 100 000
  uniform inputs in [0, 1). Each element's result does not depend on its
  neighbours, so several evaluations may share one call.
* Element-wise ``*``, ``+``, ``-``, ``/``, ``abs``, ``min``, negation,
  exact power-of-two scaling (``ldexp``) and ``sqrt``, and ``tolist``/
  ``float`` round trips round the same on Python floats, in numpy and in C
  (compiled without contraction into fused multiply-adds), so they may
  move between the three. So may a two-term sum; the three-term ``sum`` of
  the rod's stage-1 weights stays numpy's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import native

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
    x, y, z = v.tolist()
    if max(abs(x), abs(y), abs(z)) < 1e100:
        n = math.sqrt(_dot((x, y, z), (x, y, z)))
    else:  # beyond _fma's contract: numpy's norm, which may overflow to inf
        n = float(np.linalg.norm(v))
    if not math.isfinite(n) or abs(n - 1.0) > NORM_TOL:
        raise ValueError(f"vector norm {n} deviates from 1 by more than {NORM_TOL}")
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
    """Ordered orthonormal triad of rays: one 3-outcome measurement.

    ``rows`` holds the axes' representatives as three (x, y, z) float
    triples. Their pairwise |cos|, a plain float sum that pins no bit, must
    be within ``ORTHO_TOL``. The hash is taken once, of ``rows``: equal
    frames have equal rows, and ``rod._tree``'s memo hashes its frame on
    every call.
    """

    axes: tuple[Ray, Ray, Ray]
    rows: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple((a.rep.x, a.rep.y, a.rep.z) for a in self.axes)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            (a0, a1, a2), (b0, b1, b2) = rows[i], rows[j]
            d = abs(a0 * b0 + a1 * b1 + a2 * b2)
            if not d <= ORTHO_TOL:  # NaN fails too
                raise ValueError(
                    f"frame axes {i} and {j} not orthogonal: |cos| = {d:.3e}"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash(rows))

    def __hash__(self) -> int:
        return self._hash

    @property
    def matrix(self) -> np.ndarray:
        """A new 3x3 array of ``rows`` on each access."""
        return np.array(self.rows)


def identity_frame() -> Frame:
    return Frame(
        (
            canonicalize((1.0, 0.0, 0.0)),
            canonicalize((0.0, 1.0, 0.0)),
            canonicalize((0.0, 0.0, 1.0)),
        )
    )


_TINY = 2.0**-900  # below this, a product's TwoProduct error term may underflow
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: halves of 26 bits


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it, signed
    zeros included, for finite a and b below 1e100 in magnitude and c
    below 1e300.

    Dekker's TwoProduct writes a * b exactly as p + e, and ``math.fsum``
    rounds p + e + c correctly. Where |p| < 2**-900 the error term e could
    underflow, so the sum is taken as a ``Fraction``, unless a or b is
    zero. An exact zero gets its sign from ``p + c``: then p is a * b
    exactly.
    """
    p = a * b
    if abs(p) < _TINY:
        if a == 0.0 or b == 0.0:
            return p + c
        from fractions import Fraction  # rarely needed; 3 ms to import at start-up

        exact = Fraction(a) * Fraction(b) + Fraction(c)
        return float(exact) if exact else p + c
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    s = math.fsum((p, e, c))
    return s if s else p + c


def _dot(u, v) -> float:
    """The dot of two 3-vectors as OpenBLAS's SkylakeX ``ddot`` makes it:
    ``fma(u2, v2, fma(u1, v1, fma(u0, v0, 0.0)))`` (see the rounding
    contract). The C extension module's ``dot`` where it loads, else
    ``_chain_dot``; the two give the same bits."""
    lib = native.LIBRARY.load()
    return _chain_dot(u, v) if lib is None else lib.dot(u, v)


def _chain_dot(u, v) -> float:
    """``_dot`` on Python floats, with ``_fma``. The innermost fma is the
    rounded product wherever that is not below 2**-900."""
    s = u[0] * v[0]
    if abs(s) < _TINY:
        s = _fma(u[0], v[0], 0.0)
    return _fma(u[2], v[2], _fma(u[1], v[1], s))


def _unit(components: list[float], error: str) -> tuple[float, float, float]:
    """``normalize`` on the components of a 3-vector, as floats."""
    if not all(map(math.isfinite, components)):
        raise ValueError(error)
    _, e = math.frexp(max(map(abs, components)))
    x, y, z = components
    v = x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    n = math.sqrt(_dot(v, v))
    if math.ldexp(n, min(e, 0)) < DEGENERATE_EPS:
        raise ValueError(error)
    return x / n, y / n, z / n


def normalize(vec, error: str) -> np.ndarray:
    """vec / |vec| of a 3-vector as a float array; raises ValueError(error) if
    |vec| < 1e-12 or a component is not finite.

    The vector is first scaled by a power of two (exact) so that its squares
    cannot overflow, and its norm is ``sqrt(_dot(v, v))``. So the quotient
    is ``vec / np.linalg.norm(vec)`` bit for bit where BLAS is OpenBLAS's
    SkylakeX kernel, and the same on every kernel.
    """
    return np.array(_unit(np.asarray(vec, dtype=float).tolist(), error))


def _gram_schmidt(rows) -> list[tuple[float, float, float]]:
    """The three unit axes that ``orthonormal_frame`` builds from ``rows``,
    three lists of three floats, on Python floats; ValueError as there."""
    basis: list[tuple[float, float, float]] = []
    for v in rows:
        w = x, y, z = _unit(v, "degenerate triple: zero vector")
        for _ in range(2):
            for b in basis:
                d = _dot(w, b)
                w = x, y, z = x - d * b[0], y - d * b[1], z - d * b[2]
        n = math.sqrt(_dot(w, w))
        if n < 1e-6:
            raise ValueError("degenerate triple: vectors are not independent")
        basis.append((x / n, y / n, z / n))
    return basis


def orthonormal_frame(v1, v2, v3) -> Frame:
    """Gram-Schmidt three vectors into a Frame (axes canonicalized).

    Each vector is normalized, then projected off the axes before it. The
    projection step runs twice per vector ("twice is enough"), which pushes
    pairwise cosines to machine precision. Raises ValueError when the
    triple is linearly dependent (residual norm below 1e-6 at any step).
    """
    rows = [np.asarray(v, dtype=float).tolist() for v in (v1, v2, v3)]
    # each quotient's Ray: its norm is within 1e-14 of 1, so canonicalize keeps it
    return Frame(tuple(_ray(*axis) for axis in _gram_schmidt(rows)))


def vector_angle(u: UnitVector, v: UnitVector) -> float:
    """Angle between oriented unit vectors, in [0, pi]."""
    return math.acos(min(1.0, max(-1.0, u.dot(v))))


def direction_cosines(p: Ray, e: Frame) -> tuple[float, float, float]:
    """Absolute cosines of the angles between a ray and the three frame axes.

    Their squares sum to 1 (within 1e-12 in double precision). Each is
    ``_dot`` with the terms in the order 1, 0, 2, as in ``e.matrix.dot(v)``.
    """
    r = p.rep
    v = r.y, r.x, r.z
    return tuple(min(abs(_dot((a1, a0, a2), v)), 1.0) for a0, a1, a2 in e.rows)


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
    j, k = OTHER_AXES[axis_index]
    cb, sb = math.cos(angle), math.sin(angle)
    rows = list(e.rows)
    rows[j] = [cb * x + sb * y for x, y in zip(e.rows[j], e.rows[k])]
    rows[k] = [-sb * x + cb * y for x, y in zip(e.rows[j], e.rows[k])]
    return Frame(tuple(canonicalize(r) for r in rows))


def random_unit_vector(rng: np.random.Generator) -> UnitVector:
    """Uniform point on the sphere (normalized 3D Gaussian draw)."""
    while True:
        with contextlib.suppress(ValueError):  # a zero draw: draw again
            return UnitVector(*_unit(rng.standard_normal(3).tolist(), "zero draw"))


def _random_axes(g: list[list[float]]) -> list[tuple[float, float, float]] | None:
    """The axes ``random_frame`` makes of one draw ``g`` (three rows), or
    None where it draws again: on Python floats, what the C body
    ``random_frame`` in ``_native.c`` makes."""
    # np.linalg.norm(g, axis=1), summed in its order
    norms = [math.sqrt((x * x + y * y) + z * z) for x, y, z in g]
    if min(norms) < 1e-12:
        return None
    u0, u1, u2 = ((x / n, y / n, z / n) for (x, y, z), n in zip(g, norms))
    if max(abs(_dot(u0, u1)), abs(_dot(u0, u2)), abs(_dot(u1, u2))) > 1.0 - 1e-6:
        return None
    try:
        return _gram_schmidt(g)
    except ValueError:
        return None


def random_frame(rng: np.random.Generator) -> Frame:
    """Random orthonormal frame from Gram-Schmidt on three Gaussian draws.

    Near-degenerate triples (pairwise |cos| > 1 - 1e-6, or a vanishing
    Gram-Schmidt residual) are rejected and redrawn. Each draw is nine
    values of ``rng.standard_normal``, the same as one
    ``rng.standard_normal((3, 3))``. Where ``native.LIBRARY.load()``
    returns None, ``_random_axes`` makes the frame on Python floats;
    otherwise one call of the C body ``random_frame`` makes the same
    operations in the same order, so both give the same frame, bit for bit,
    and draw alike.
    """
    lib = native.LIBRARY.load()
    g = np.empty((3, 3))
    while True:
        rng.standard_normal(out=g)
        axes = _random_axes(g.tolist()) if lib is None else lib.random_frame(g)
        if axes is None:
            continue
        with contextlib.suppress(ValueError):  # not orthogonal to 1e-10: draw again
            return Frame(tuple(_ray(*axis) for axis in axes))
