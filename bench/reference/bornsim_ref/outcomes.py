"""Result containers shared by the measurement models and the trial runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector over a measurement's outcomes, with provenance.

    ``source`` is ``"analytic"`` for exact evaluations and ``"empirical"``
    for frequencies estimated from ``trials`` Monte Carlo trials.
    """

    labels: tuple[str, ...]
    probs: tuple[float, ...]
    source: str = "analytic"
    trials: int | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probs must have the same length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if self.source not in ("analytic", "empirical"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "empirical" and self.trials is None:
            raise ValueError("empirical distributions must carry a trial count")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.probs)

    def prob(self, label: str) -> float:
        return self.probs[self.labels.index(label)]


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial: outcome label plus the post-measurement state."""

    index: int
    outcome: str
    final_state: Any
