"""LTS-Newmark core: the paper's primary contribution.

Contents:

* CFL time-step computation (paper Eq. (7)) — :mod:`repro.core.cfl`;
* p-level assignment with powers-of-two step ratios (Eq. (16)) —
  :mod:`repro.core.levels`;
* the LTS speedup model (Eq. (9)) and efficiency metrics —
  :mod:`repro.core.speedup`;
* the explicit Newmark scheme (Eqs. (5)-(6)) and the one time loop
  every solver runs — :mod:`repro.core.newmark`;
* recursive multi-level LTS-Newmark (Eq. (14), Algorithm 1) as one
  active-set implementation, whose one-level case is the Newmark solver
  (:class:`NewmarkSolver`) — :mod:`repro.core.lts_newmark`;
* the LTS cycle schedule consumed by the cluster simulator —
  :mod:`repro.core.schedule`;
* the stiffness-operator protocol shared by the matrix-free operator
  and a caller's own matrix — :mod:`repro.core.operator`.
"""

from repro.core.operator import (
    AssembledOperator,
    Restriction,
    StiffnessOperator,
    as_operator,
)

from repro.core.cfl import (
    cfl_timestep,
    stable_timestep_per_element,
    stable_timestep_from_operator,
    operator_spectral_radius,
    gll_spacing_factor,
)
from repro.core.levels import LevelAssignment, assign_levels, enforce_level_grading
from repro.core.speedup import (
    theoretical_speedup,
    two_level_speedup,
    lts_cycle_cost,
    serial_efficiency,
)
from repro.core.health import HealthGuard
from repro.core.lts_newmark import (
    LTSNewmarkSolver,
    NewmarkSolver,
    OperationCounter,
)
from repro.core.schedule import LTSSchedule, build_schedule

__all__ = [
    "AssembledOperator",
    "Restriction",
    "StiffnessOperator",
    "as_operator",
    "cfl_timestep",
    "stable_timestep_per_element",
    "stable_timestep_from_operator",
    "operator_spectral_radius",
    "gll_spacing_factor",
    "LevelAssignment",
    "assign_levels",
    "enforce_level_grading",
    "theoretical_speedup",
    "two_level_speedup",
    "lts_cycle_cost",
    "serial_efficiency",
    "HealthGuard",
    "NewmarkSolver",
    "LTSNewmarkSolver",
    "OperationCounter",
    "LTSSchedule",
    "build_schedule",
]
