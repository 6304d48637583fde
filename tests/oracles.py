"""Independent oracles used to derive and guard expected test values.

Nothing here goes through the library's model code paths: the disk-model
oracles integrate the hidden-point density directly or take t.q in one
float64 pass, and the rod oracle re-evaluates the six break orders from raw
vectors.
"""

from __future__ import annotations

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
