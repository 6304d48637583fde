"""Monte Carlo trial runner and statistical verification.

Trials are drawn in chunks, and the runner counts each chunk in
``_BLOCK``-trial slices: it passes each slice to the vectorized model
kernel and sums the outcome counts. Every trial's randomness is derived
from ``(master_seed, trial index)`` by the counter-based streams in
:mod:`bornsim.streams`. Counts are therefore a pure function of the run
configuration: the same config gives bit-identical counts for any worker
count, chunking, or scheduling order.

Goodness of fit is a plain multinomial chi-square with critical values
tabulated for 1 and 2 degrees of freedom (no inverse-CDF dependency), plus
per-outcome 99% normal-approximation confidence intervals.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rod
from .geometry import Frame, UnitVector
from .models import MODELS, Model
from .outcomes import OutcomeDistribution, TrialRecord
from .streams import _BLOCK, trial_uniforms

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
    for name in ("trials", "workers", "master_seed"):
        value = getattr(cfg, name)
        try:
            if isinstance(value, bool):  # an int to operator.index, but no count
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
    # NaN fails every compare of a count step, so its trials would all land
    # in one outcome; a Frame rejects a non-finite axis itself
    vectors = {"state": cfg.state}
    if isinstance(cfg.measurement, UnitVector):
        vectors["direction"] = cfg.measurement
    for name, v in vectors.items():
        if not all(map(math.isfinite, (v.x, v.y, v.z))):
            raise ValueError(f"{name} must be finite, got {v}")
    if model.weighted and cfg.weight not in rod.WEIGHTS:
        raise ValueError(f"unknown weight {cfg.weight!r}")
    return model


def run_trials(cfg: RunConfig) -> tuple[EmpiricalDistribution, list[TrialRecord]]:
    """Run cfg.trials independent measurements from the configured state.

    Returns the aggregated outcome counts plus the ``(index, outcome)``
    TrialRecords of the first ``_RECORDS`` trials (all of them when there
    are fewer), each replayed through its own stream (about half of a
    2 000-trial call; the benchmark pins these calls, ROADMAP item F).
    Trials are drawn in chunks of ``_CHUNK``, one ``trial_uniforms`` call
    each, and counted in slices of ``_BLOCK`` trials by the model's kernel,
    whose temporaries then stay in cache. Worker k of ``threads`` sums the
    counts of chunks k, k + threads, ... Chunk starts come from a lazy
    range, so memory does not grow with ``cfg.trials``. Counts are
    deterministic given ``cfg.master_seed`` regardless of ``cfg.workers``.
    """
    model = _validate(cfg)
    seed = operator.index(cfg.master_seed)  # a numpy integer overflows the streams' & mask
    kernel = model.kernel(cfg.state, cfg.measurement, cfg.weight)
    # -(-a // b) is ceil(a / b), the chunk count; len() of a range overflows
    threads = min(cfg.workers, -(-cfg.trials // _CHUNK))
    if threads > 1:  # cpu_count() is asked only where it can cap a pool
        threads = min(threads, os.cpu_count() or 1)

    def count_chunks(k: int) -> np.ndarray:
        counts = np.zeros(len(model.labels), dtype=np.int64)
        for a in range(k * _CHUNK, cfg.trials, threads * _CHUNK):
            u = trial_uniforms(seed, a, min(a + _CHUNK, cfg.trials), model.draws)
            for lo in range(0, u.shape[1], _BLOCK):
                counts += kernel(u[:, lo : lo + _BLOCK])
            del u  # the next fill must not run while this chunk is alive
        return counts

    def record(t: int) -> TrialRecord:
        # trial t again, through its own stream and the same kernel; its
        # count is one-hot, so index(1) is its label (and raises on no 1)
        u = trial_uniforms(seed, t, t + 1, model.draws)
        return TrialRecord(t, model.labels[kernel(u).tolist().index(1)])

    if threads == 1:
        counts = count_chunks(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(count_chunks, range(threads)))

    emp = EmpiricalDistribution(model.labels, tuple(counts.tolist()), cfg.trials)
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
