"""Reference formalism for the real three-dimensional state space.

Born probabilities over an orthonormal triad, rank-1 projective measures of
the form psi -> <psi, x>^2 as frame functions ``measure(frame, axis)``, and
a frame-additivity check: a frame function is additive when the values of
every frame's three axes sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import Frame, UnitVector, _dot, normalize
from .outcomes import OutcomeDistribution


def state_vector(components: Sequence[float]) -> UnitVector:
    """Normalizing constructor; rejects zero input and input of other than 3 components."""
    v = np.asarray(components, dtype=float)
    if v.shape != (3,):
        raise ValueError("state vectors have 3 components")
    return UnitVector(*normalize(v, "cannot normalize a zero vector").tolist())


# one outcome per frame axis; the rod machine counts under the same labels
LABELS = ("o1", "o2", "o3")


def born_probabilities(psi: UnitVector, e: Frame) -> OutcomeDistribution:
    """P_i = <axis_i, psi>^2 over the three frame axes: ``gleason_measure``
    of each axis, so the rule is written once."""
    measure = gleason_measure(psi)
    return OutcomeDistribution(LABELS, tuple(measure(e, i) for i in range(3)))


def gleason_measure(psi: UnitVector) -> Callable[[Frame, int], float]:
    """The frame function x -> <psi, x>^2 on the representative x of a frame's axis.

    It reads only the axis's ray: the value of a ray is the same in every
    frame that contains it.
    """
    v = psi.x, psi.y, psi.z

    def measure(frame: Frame, axis: int) -> float:
        a = _dot(frame.rows[axis], v)
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
    measure: Callable[[Frame, int], float], frames: Iterable[Frame]
) -> FrameAdditivityReport:
    """Sum the measure over each frame's three axes and report the max |sum - 1|.

    ``measure(frame, axis)`` is the value of axis ``axis`` (0, 1 or 2) of
    ``frame``, as in a frame function (Gleason 1957). A contextual measure
    (e.g. the uniform-variant rod marginals) gives the same ray different
    values in different frames; a Gleason measure reads only the axis's ray.
    ``frames`` is read once, so a generator's frames are not kept.
    """
    checked = 0
    worst = 0.0
    for f in frames:
        worst = max(worst, abs(sum(measure(f, axis) for axis in range(3)) - 1.0))
        checked += 1
    return FrameAdditivityReport(checked, worst)
