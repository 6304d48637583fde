"""Result containers shared by the measurement models and the trial runner."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector over a measurement's outcomes."""

    labels: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probs must have the same length")
        if not all(math.isfinite(p) for p in self.probs):
            raise ValueError(f"probabilities must be finite, got {self.probs}")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.probs)


def cosine_split(labels: tuple[str, str], c: float) -> OutcomeDistribution:
    """The two-outcome law ((1 + c)/2, (1 - c)/2) for a cosine c.

    The smaller probability is computed directly and the larger as its
    complement, which makes the float sum exactly 1.0. ``c`` is clamped to
    [-1, 1] first: a dot product of unit vectors can round just outside it.
    """
    c = min(max(c, -1.0), 1.0)
    if c >= 0.0:
        small = 0.5 * (1.0 - c)
        return OutcomeDistribution(labels, (1.0 - small, small))
    small = 0.5 * (1.0 + c)
    return OutcomeDistribution(labels, (small, 1.0 - small))


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial: outcome label plus the post-measurement state.

    ``final_state`` is a UnitVector (sphere2d), a DiskState (ks) or a Ray (rod).
    """

    index: int
    outcome: str
    final_state: Any
