"""Monte Carlo trial runner and statistical verification.

Trials are counted through the vectorized model kernels, with every trial's
randomness derived from ``(master_seed, trial index)`` by the counter-based
streams in :mod:`bornsim.streams`. Counts are therefore a pure function of
the run configuration: the same config gives bit-identical counts for any
worker count, chunking, or scheduling order.

Goodness of fit is a plain multinomial chi-square with critical values
tabulated for 1 and 2 degrees of freedom (no inverse-CDF dependency), plus
per-outcome 99% normal-approximation confidence intervals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rod
from .geometry import Frame, UnitVector
from .models import MODELS, Model
from .outcomes import OutcomeDistribution, TrialRecord
from .streams import trial_uniforms

# upper critical values chi2(dof, 1 - alpha); standard table constants
CHI2_CRITICAL = {
    (1, 0.01): 6.635,
    (2, 0.01): 9.210,
    (1, 0.05): 3.841,
    (2, 0.05): 5.991,
}
Z_99 = 2.576  # two-sided 99% normal quantile

_CHUNK = 1 << 18
_RECORDS = 10  # trials replayed into TrialRecords by run_trials


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo run: model, inputs, trial count, seed, parallelism.

    ``measurement`` is the measurement direction (UnitVector) for the
    two-outcome models and a Frame for the rod model. ``weight`` selects the
    rod breaking weight and is ignored by the other models.
    """

    model: str
    state: UnitVector
    measurement: Frame | UnitVector
    weight: str = rod.QUANTUM.tag
    trials: int = 1
    master_seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class EmpiricalDistribution:
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.labels) != len(self.counts):
            raise ValueError("labels and counts must have the same length")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.total:
            raise ValueError("counts must sum to total")

    @property
    def frequencies(self) -> np.ndarray:
        return np.array(self.counts) / self.total


@dataclass(frozen=True)
class GofReport:
    """Chi-square verdict plus per-outcome 99% confidence intervals."""

    statistic: float
    dof: int
    alpha: float
    critical: float
    passed: bool
    intervals: tuple[tuple[float, float], ...]
    note: str = ""


def _validate(cfg: RunConfig) -> Model:
    model = MODELS.get(cfg.model)
    if model is None:
        raise ValueError(f"unknown model {cfg.model!r}; expected one of {tuple(MODELS)}")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(cfg.state, UnitVector):
        raise ValueError("state must be a UnitVector")
    if not isinstance(cfg.measurement, model.measurement):
        raise ValueError(
            f"{cfg.model} model needs a {model.measurement.__name__} measurement"
        )
    if model.weighted and cfg.weight not in rod.WEIGHTS:
        raise ValueError(f"unknown weight {cfg.weight!r}")
    return model


def run_trials(cfg: RunConfig) -> tuple[EmpiricalDistribution, list[TrialRecord]]:
    """Run cfg.trials independent measurements from the configured state.

    Returns the aggregated outcome counts plus the ``(index, outcome)``
    TrialRecords of the first ``_RECORDS`` trials (all of them when there
    are fewer), each replayed through its own stream. Counts are
    deterministic given ``cfg.master_seed`` regardless of ``cfg.workers``.
    """
    model = _validate(cfg)
    kernel = model.kernel(cfg.state, cfg.measurement, cfg.weight)

    def count_range(bounds: tuple[int, int]) -> np.ndarray:
        a, b = bounds
        u = trial_uniforms(cfg.master_seed, a, b, model.draws)
        return np.bincount(kernel(u), minlength=len(model.labels))

    def record(t: int) -> TrialRecord:
        # trial t again, through its own stream and the same kernel
        u = trial_uniforms(cfg.master_seed, t, t + 1, model.draws)
        return TrialRecord(t, model.labels[int(kernel(u)[0])])

    ranges = [
        (a, min(a + _CHUNK, cfg.trials)) for a in range(0, cfg.trials, _CHUNK)
    ]
    threads = min(cfg.workers, len(ranges), os.cpu_count() or 1)
    if threads == 1:
        partials = [count_range(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(count_range, ranges))
    counts = np.sum(partials, axis=0, dtype=np.int64)

    emp = EmpiricalDistribution(model.labels, tuple(int(c) for c in counts), cfg.trials)
    records = [record(t) for t in range(min(_RECORDS, cfg.trials))]
    return emp, records


def chi_square_gof(
    emp: EmpiricalDistribution, expected: OutcomeDistribution, alpha: float = 0.01
) -> GofReport:
    """Multinomial goodness of fit of observed counts against expected probs.

    statistic = N * sum over p_i > 0 of (f_i - p_i)^2 / p_i, compared to the
    tabulated chi-square critical value at ``alpha`` for
    dof = (outcomes with p_i > 0) - 1. Any count on a zero-probability
    outcome fails outright.
    """
    if emp.labels != expected.labels:
        raise ValueError("empirical and expected outcome labels differ")
    p = expected.array
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities sum to {float(p.sum())}, not 1")
    n = emp.total
    counts = np.array(emp.counts)
    f = counts / n

    intervals = tuple(wald_interval(fi, n) for fi in f)

    dof = int(np.sum(p > 0.0)) - 1
    critical = _critical(dof, alpha)
    impossible = (p == 0.0) & (counts > 0)
    if np.any(impossible):
        bad = [expected.labels[i] for i in np.flatnonzero(impossible)]
        statistic = float("inf")
        note = f"counts on zero-probability outcomes: {', '.join(bad)}"
    else:
        mask = p > 0.0
        statistic = float(n * np.sum((f[mask] - p[mask]) ** 2 / p[mask]))
        note = ""
    return GofReport(statistic, dof, alpha, critical, statistic <= critical, intervals, note)


def wald_interval(f: float, n: int) -> tuple[float, float]:
    """99% normal-approximation interval of a frequency f over n trials, clamped to [0, 1]."""
    half = Z_99 * math.sqrt(max(f * (1.0 - f), 0.0) / n)
    return max(f - half, 0.0), min(f + half, 1.0)


def _critical(dof: int, alpha: float) -> float:
    if dof == 0:
        return 0.0
    try:
        return CHI2_CRITICAL[(dof, alpha)]
    except KeyError:
        raise ValueError(
            f"no tabulated critical value for dof={dof}, alpha={alpha}; "
            f"supported: {sorted(CHI2_CRITICAL)}"
        ) from None
