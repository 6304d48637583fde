"""The three measurement machines as one table, keyed by CLI model id.

The Monte Carlo runner and the CLI read these records and name no model
themselves. A kernel closes over its machine's run constants
(``rod.thresholds``, ``disk.basis_dots``, the sphere's c = u.v), computed
once per run, and calls the machine's count step on each block the runner
passes it. The record functions reach both steps and ``rod.rod_analytic``
through their modules at call time, so a wrapper installed on a module
attribute (a profiler or tracer) sees every call. The count steps keep
names older than the counting contract and take the draws as
``u1=``/``u2=`` keywords, because the benchmark's tracer wraps them by name
and finds ``u1`` by position or by that keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import disk, rod, sphere
from .geometry import Frame, UnitVector, canonicalize
from .outcomes import OutcomeDistribution


@dataclass(frozen=True)
class Model:
    """One machine: its outcomes, what it measures with, and two functions.

    ``kernel(state, measurement, weight)`` computes the run constants once
    and returns the count step on a block of uniforms (row k holds draw k of
    each trial; it reads ``draws`` rows): int64 outcome counts, one per
    label, summing to the number of trials. A 1-trial block's outcome is its
    nonzero count.
    ``analytic(state, measurement, weight)`` is the exact distribution.
    ``measurement`` is Frame or UnitVector (an oriented direction); models
    that are not ``weighted`` ignore ``weight``. The post-measurement state
    is defined once, in each machine's sampler.
    """

    name: str
    labels: tuple[str, ...]
    draws: int
    measurement: type
    weighted: bool
    kernel: Callable[..., Callable[[np.ndarray], np.ndarray]]
    analytic: Callable[..., OutcomeDistribution]


def _sphere_kernel(state: UnitVector, direction: UnitVector, weight: str):
    c = direction.dot(state)
    return lambda u: sphere.outcome_indices(c, u1=u[0])


def _sphere_analytic(state: UnitVector, direction: UnitVector, weight: str):
    return sphere.sphere_analytic(direction, state)


def _disk_kernel(state: UnitVector, direction: UnitVector, weight: str):
    dots = disk.basis_dots(state.array, direction.array)
    return lambda u: disk.up_indices(dots, u1=u[0], u2=u[1])


def _disk_analytic(state: UnitVector, direction: UnitVector, weight: str):
    return disk.disk_analytic(direction, state)


def _rod_kernel(state: UnitVector, frame: Frame, weight: str):
    th = rod.thresholds(canonicalize(state), frame, rod.WEIGHTS[weight])
    return lambda u: rod.fold_paths(rod.outcomes_from_uniforms(th, u1=u[0], u2=u[1]))


def _rod_analytic(state: UnitVector, frame: Frame, weight: str):
    return rod.rod_analytic(canonicalize(state), frame, rod.WEIGHTS[weight])[0]


SPHERE2D = Model("sphere2d", sphere.LABELS, 1, UnitVector, False,
                 _sphere_kernel, _sphere_analytic)
KS = Model("ks", disk.LABELS, 2, UnitVector, False, _disk_kernel, _disk_analytic)
ROD = Model("rod", rod.LABELS, 2, Frame, True, _rod_kernel, _rod_analytic)

MODELS = {m.name: m for m in (SPHERE2D, KS, ROD)}
