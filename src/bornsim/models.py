"""The three measurement machines as one table, keyed by CLI model id.

The Monte Carlo runner and the CLI read these records and name no model
themselves. The record functions reach the kernels and ``rod.rod_analytic``
through their modules at call time, so a wrapper installed on a module
attribute (a profiler or tracer) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import disk, rod, sphere
from .geometry import Frame, UnitVector, canonicalize
from .outcomes import OutcomeDistribution


@dataclass(frozen=True)
class Model:
    """One machine: its outcomes, what it measures with, and three functions.

    ``kernel(state, measurement, weight)`` returns a function from a block
    of uniforms (row k holds draw k of each trial) to outcome indices; it
    reads ``draws`` rows. ``analytic(state, measurement, weight)`` is the
    exact distribution. ``collapse(measurement, index, u)`` is the state
    after outcome ``index`` of one trial whose ``record_draws`` uniforms are
    ``u``. ``measurement`` is Frame or UnitVector (an oriented direction);
    models that are not ``weighted`` ignore ``weight``.
    """

    name: str
    labels: tuple[str, ...]
    draws: int
    record_draws: int
    measurement: type
    weighted: bool
    kernel: Callable[..., Callable[[np.ndarray], np.ndarray]]
    analytic: Callable[..., OutcomeDistribution]
    collapse: Callable[..., Any]


def _sphere_kernel(state: UnitVector, direction: UnitVector, weight: str):
    c = direction.dot(state)
    return lambda u: sphere.outcome_indices(c, u[0])


def _sphere_analytic(state: UnitVector, direction: UnitVector, weight: str):
    return sphere.sphere_analytic(direction, state)


def _sphere_collapse(direction: UnitVector, index: int, u: np.ndarray):
    return direction if index == 0 else -direction


def _disk_kernel(state: UnitVector, direction: UnitVector, weight: str):
    p, q = state.array, direction.array
    return lambda u: disk.up_indices(p, q, u[0], u[1])


def _disk_analytic(state: UnitVector, direction: UnitVector, weight: str):
    return disk.disk_analytic(direction, state)


def _disk_collapse(direction: UnitVector, index: int, u: np.ndarray):
    """Pole q or -q, with the hidden point reshaken from draws 2 and 3."""
    pole = direction if index == 0 else -direction
    t = disk.hidden_from_uniforms(pole.array, u[2], u[3])[0]
    return disk.DiskState(pole, UnitVector(*t.tolist()))


def _rod_kernel(state: UnitVector, frame: Frame, weight: str):
    ray, w = canonicalize(state), rod.WEIGHTS[weight]
    return lambda u: rod.outcomes_from_uniforms(ray, frame, w, u[0], u[1])[0]


def _rod_analytic(state: UnitVector, frame: Frame, weight: str):
    return rod.rod_analytic(canonicalize(state), frame, rod.WEIGHTS[weight])[0]


def _rod_collapse(frame: Frame, index: int, u: np.ndarray):
    return frame.axes[index]


SPHERE2D = Model("sphere2d", sphere.LABELS, 1, 1, UnitVector, False,
                 _sphere_kernel, _sphere_analytic, _sphere_collapse)
KS = Model("ks", disk.LABELS, 2, 4, UnitVector, False,
           _disk_kernel, _disk_analytic, _disk_collapse)
ROD = Model("rod", rod.LABELS, 2, 2, Frame, True,
            _rod_kernel, _rod_analytic, _rod_collapse)

MODELS = {m.name: m for m in (SPHERE2D, KS, ROD)}
