"""Reference formalism for the real three-dimensional state space.

Born probabilities over an orthonormal triad, rank-1 projective measures of
the form psi -> <psi, x>^2, and a frame-additivity check: a measure on rays
is additive over frames when the values on every orthonormal triad sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Frame, Ray, UnitVector, normalize
from .outcomes import OutcomeDistribution


def state_vector(components: Sequence[float]) -> UnitVector:
    """Normalizing constructor; rejects zero input and input of other than 3 components."""
    v = np.asarray(components, dtype=float)
    if v.shape != (3,):
        raise ValueError("state vectors have 3 components")
    return UnitVector(*normalize(v, "cannot normalize a zero vector").tolist())


def born_probabilities(psi: UnitVector, e: Frame) -> OutcomeDistribution:
    """P_i = <axis_i, psi>^2 over the three frame axes."""
    amps = e.matrix @ psi.array
    return OutcomeDistribution(("o1", "o2", "o3"), tuple(float(a * a) for a in amps))


def gleason_measure(psi: UnitVector) -> Callable[[Ray, Frame], float]:
    """The measure x -> <psi, x>^2 on the ray representative x, in any frame.

    It ignores the frame: the value of a ray is the same in every context.
    """
    v = psi.array

    def measure(ray: Ray, frame: Frame) -> float:
        a = float(ray.rep.array @ v)
        return min(a * a, 1.0)

    return measure


@dataclass(frozen=True)
class FrameAdditivityReport:
    """Worst deviation of per-frame sums from 1 across the checked frames."""

    frames_checked: int
    max_deviation: float

    @property
    def additive(self) -> bool:
        return self.max_deviation <= 1e-12


def frame_additivity_check(
    measure: Callable[[Ray, Frame], float], frames: Sequence[Frame]
) -> FrameAdditivityReport:
    """Sum the measure over each frame's axes and report the max |sum - 1|.

    ``measure`` takes (ray, frame) because contextual measures (e.g. the
    uniform-variant rod marginals) assign a ray different values depending
    on the frame it is embedded in; frame-independent measures just ignore
    the second argument.
    """
    worst = 0.0
    for f in frames:
        worst = max(worst, abs(sum(measure(ax, f) for ax in f.axes) - 1.0))
    return FrameAdditivityReport(len(frames), worst)
