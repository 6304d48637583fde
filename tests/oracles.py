"""Independent oracles used to derive and guard expected test values.

Nothing here goes through the library's model code paths: the disk-model
oracles integrate the hidden-point density directly or take t.q in one
float64 pass, the rod oracle re-evaluates the six break orders from raw
vectors, and the frame oracle rebuilds random frames with a fused
multiply-add taken in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from bornsim.geometry import tangent_basis


def disk_up_oracle(alpha: float) -> float:
    """Integral of the hidden-point density over the half sphere of a
    direction at angle ``alpha`` from the pole.

    Density (cos theta)/pi on the upper half sphere. For fixed polar angle
    theta, the azimuthal fraction with t.q > 0 is arccos(-b/a)/pi where
    a = sin(theta) sin(alpha), b = cos(theta) cos(alpha); the outer theta
    integral is done by adaptive quadrature.
    """
    sa, ca = np.sin(alpha), np.cos(alpha)

    def phi_fraction(theta):
        a = np.sin(theta) * sa
        b = np.cos(theta) * ca
        if a < 1e-300:
            return 1.0 if b > 0 else 0.0
        x = -b / a
        if x <= -1.0:
            return 1.0
        if x >= 1.0:
            return 0.0
        return float(np.arccos(x)) / np.pi

    val, _ = integrate.quad(
        lambda th: 2.0 * np.cos(th) * np.sin(th) * phi_fraction(th),
        0.0,
        np.pi / 2,
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return float(val)


def disk_mean_cos_oracle() -> float:
    """E[cos(angle to pole)] under the hidden-point density, by quadrature."""
    val, _ = integrate.quad(
        lambda th: np.cos(th) * (1.0 / np.pi) * np.cos(th) * 2.0 * np.pi * np.sin(th),
        0.0,
        np.pi / 2,
    )
    return float(val)


def disk_down_oracle(p, q, u1, u2) -> np.ndarray:
    """Per (u1, u2) pair, 1 if the disk trial is down and 0 if up: the
    counting kernel before it filtered, one float64 pass over every trial
    (t.q <= 0 is down; NaN is up)."""
    a, b = tangent_basis(p)
    aq = float(a @ q)
    bq = float(b @ q)
    pq = float(p @ q)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    st = np.sqrt(u1)
    ct = np.sqrt(1.0 - u1)
    phi = 2.0 * np.pi * u2
    tq = st * (np.cos(phi) * aq + np.sin(phi) * bq) + ct * pq
    return (tq <= 0.0).astype(np.int64)


def rod_tree_oracle(p, axes, weight) -> tuple[np.ndarray, dict]:
    """Exact six-path tree from raw vectors; independent of bornsim.rod.

    ``p`` is a unit 3-vector, ``axes`` a 3x3 orthonormal row matrix,
    ``weight`` a scalar function of the angle. Returns (outcome probs,
    {(first, second): path probability}).
    """
    p = np.asarray(p, dtype=float)
    axes = np.asarray(axes, dtype=float)
    cos = np.abs(axes @ p)
    theta = np.arccos(np.clip(cos, 0.0, 1.0))
    w1 = np.array([weight(t) for t in theta])
    s1 = w1 / w1.sum()
    probs = np.zeros(3)
    paths = {}
    for first in range(3):
        keep = [k for k in range(3) if k != first]
        if w1[first] == 0.0:
            for second in keep:
                paths[(first, second)] = 0.0
            continue
        proj = p - (p @ axes[first]) * axes[first]
        proj = proj / np.linalg.norm(proj)
        cos2 = np.abs(np.array([proj @ axes[k] for k in keep]))
        th2 = np.arccos(np.clip(cos2, 0.0, 1.0))
        w2 = np.array([weight(t) for t in th2])
        s2 = w2 / w2.sum()
        for second, pr2 in zip(keep, s2):
            outcome = 3 - first - second
            paths[(first, second)] = float(s1[first] * pr2)
            probs[outcome] += s1[first] * pr2
    return probs, paths


def quantum_weight(theta: float) -> float:
    return float(np.sin(theta) ** 2)


def variant_weight(theta: float) -> float:
    return float(np.sin(theta))


def binomial_bound(p: float, n: int, sigmas: float = 5.0) -> float:
    """Half-width of a +-sigmas binomial band around probability p."""
    return sigmas * float(np.sqrt(p * (1.0 - p) / n))


def fma_exact(a: float, b: float, c: float) -> float:
    """a * b + c rounded once to the nearest double (ties to even), as IEEE
    754 defines fusedMultiplyAdd, from exact ``Fraction`` arithmetic.

    An exact zero is -0.0 only where a * b is a zero of negative sign and c
    is -0.0; a nonzero sum that rounds to zero keeps its sign.
    """
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact:
        return float(exact)  # int / int: correctly rounded, subnormals included
    product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
    if (a == 0.0 or b == 0.0) and product_sign < 0 and math.copysign(1.0, c) < 0:
        return -0.0
    return 0.0


def dot_fma_chain(u, v) -> float:
    """fma(u2, v2, fma(u1, v1, fma(u0, v0, +0.0))), each step ``fma_exact``."""
    s = 0.0
    for a, b in zip(u, v):
        s = fma_exact(a, b, s)
    return s


def gemv_fma_chain(m, v) -> list[float]:
    """``m.dot(v)`` of a 3x3 ``m`` as OpenBLAS's SkylakeX and Haswell gemv
    make it: each row's ``dot_fma_chain`` with the terms in the order 1, 0, 2."""
    return [dot_fma_chain((r[1], r[0], r[2]), (v[1], v[0], v[2])) for r in m]


def blas_dot_is_fma_chain(n: int = 500) -> bool:
    """Whether numpy's dot of two 3-vectors is ``dot_fma_chain`` here, as on
    OpenBLAS's SkylakeX kernel, on n seeded Gaussian pairs and their squares;
    the plain sum of its Haswell and Prescott kernels differs on about a
    third of them."""
    for a, b in np.random.default_rng(0).standard_normal((n, 2, 3)):
        u, v = a.tolist(), b.tolist()
        if float(a.dot(b)) != dot_fma_chain(u, v) or float(a.dot(a)) != dot_fma_chain(u, u):
            return False
    return True


def _unit_oracle(v):
    """v scaled by 2**-e (2**(e-1) <= max |v_i| < 2**e), over its chain norm;
    None where that norm, scaled back, is below 1e-12 or v is not finite."""
    if not all(math.isfinite(c) for c in v):
        return None
    e = math.frexp(max(abs(c) for c in v))[1]
    s = [math.ldexp(c, -e) for c in v]
    n = math.sqrt(dot_fma_chain(s, s))
    if math.ldexp(n, min(e, 0)) < 1e-12:
        return None
    return [c / n for c in s]


def orthonormal_rows_oracle(rows):
    """The rows ``geometry.orthonormal_frame`` gives three vectors: each
    made unit, projected off the axes before it twice, divided by its
    residual norm, then signed so that its first component above 1e-12 in
    magnitude is positive. None where a vector is zero or the residual
    norm is below 1e-6."""
    basis = []
    for v in rows:
        w = _unit_oracle([float(c) for c in v])
        if w is None:
            return None
        for _ in range(2):
            for b in basis:
                d = dot_fma_chain(w, b)
                w = [x - d * y for x, y in zip(w, b)]
        n = math.sqrt(dot_fma_chain(w, w))
        if n < 1e-6:
            return None
        basis.append([x / n for x in w])
    canonical = []
    for axis in basis:
        lead = next((c for c in axis if abs(c) > 1e-12), 0.0)
        canonical.append([-c for c in axis] if lead < 0 else axis)
    return canonical


def random_frame_oracle(rng) -> list[list[float]]:
    """The rows of ``geometry.random_frame(rng)``, drawing from ``rng`` as
    it does: one ``standard_normal((3, 3))`` per attempt, redrawn where a
    row norm is below 1e-12, where two rows over their norms have
    |cos| > 1 - 1e-6, or where Gram-Schmidt fails."""
    while True:
        g = rng.standard_normal((3, 3)).tolist()
        norms = [math.sqrt((x * x + y * y) + z * z) for x, y, z in g]
        if min(norms) < 1e-12:
            continue
        u = [[c / n for c in row] for row, n in zip(g, norms)]
        if any(abs(dot_fma_chain(u[i], u[j])) > 1.0 - 1e-6 for i, j in ((0, 1), (0, 2), (1, 2))):
            continue
        rows = orthonormal_rows_oracle(g)
        if rows is not None:
            return rows
