"""Mechanical measurement models with Born-rule statistics.

Three stochastic machines measured against their exact distributions:

* :mod:`bornsim.sphere` -- elastic-band model on the sphere (two outcomes),
* :mod:`bornsim.disk`   -- disk-shaking hidden-point model (two outcomes),
* :mod:`bornsim.rod`    -- two-stage rod-breaking model (three outcomes),
  with a breaking weight that either reproduces the Born rule exactly
  (quantum, sin^2) or provably breaks it (uniform variant, sin).

:mod:`bornsim.models` is the table of the three machines, keyed by CLI
model id; :mod:`bornsim.quantum` holds the reference formalism for the real
three-dimensional state space (Born probabilities, rank-1 measures, frame
additivity); :mod:`bornsim.stats` the reproducible Monte Carlo runner and
chi-square verification; and :mod:`bornsim.cli` the ``bornsim`` command.
"""

from .geometry import (
    Frame,
    Ray,
    UnitVector,
    canonicalize,
    direction_cosines,
    identity_frame,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    rotate_frame_about_axis,
    unit_vector,
    vector_angle,
)
from .outcomes import OutcomeDistribution, TrialRecord
from .sphere import (
    sphere_analytic,
    sphere_sample,
)
from .disk import DiskState, disk_analytic, disk_measure, initial_state, sample_hidden
from .rod import (
    QUANTUM,
    UNIFORM_VARIANT,
    BreakWeight,
    rod_analytic,
    rod_sample,
)
from .quantum import (
    born_probabilities,
    frame_additivity_check,
    gleason_measure,
    state_vector,
)
from .stats import (
    EmpiricalDistribution,
    GofReport,
    RunConfig,
    chi_square_gof,
    run_trials,
    wald_interval,
)
from .streams import TrialStream, trial_uniforms

__version__ = "0.1.0"

__all__ = [
    "BreakWeight",
    "DiskState",
    "EmpiricalDistribution",
    "Frame",
    "GofReport",
    "OutcomeDistribution",
    "QUANTUM",
    "Ray",
    "RunConfig",
    "TrialRecord",
    "TrialStream",
    "UNIFORM_VARIANT",
    "UnitVector",
    "born_probabilities",
    "canonicalize",
    "chi_square_gof",
    "direction_cosines",
    "disk_analytic",
    "disk_measure",
    "frame_additivity_check",
    "gleason_measure",
    "identity_frame",
    "initial_state",
    "orthonormal_frame",
    "random_frame",
    "random_unit_vector",
    "rod_analytic",
    "rod_sample",
    "rotate_frame_about_axis",
    "run_trials",
    "sample_hidden",
    "sphere_analytic",
    "sphere_sample",
    "state_vector",
    "trial_uniforms",
    "unit_vector",
    "vector_angle",
    "wald_interval",
]
