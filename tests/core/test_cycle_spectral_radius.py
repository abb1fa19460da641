"""The one-cycle map of a shipped config, and its spectral radius.

One force-free LTS cycle is a linear map Φ on ``(u, v^{n-1/2})``.  The
scheme is stable where ρ(Φ) ≤ 1; ROADMAP item 1 records that plain
(unstabilised) LTS-Newmark loses that at isolated Δt, where Newmark at
the fine step is stable, and that the run's outputs never show it.
Here Φ of ``examples/configs/ensemble_smoke.json``'s base (8 x 8,
order 3, 625 DOFs) is built column by column through the solver the
façade binds, and ρ(Φ) is held to 1 + 1e-10: at ``c_cfl`` 0.325, where
it holds, and at the shipped 0.35, where it does not yet (ρ = 1.02398):
a strict xfail, so a stabilised scheme turns it into a failure that
asks for the marker to go.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig

SMOKE = Path(__file__).resolve().parents[2] / "examples" / "configs" / "ensemble_smoke.json"


def _cycle_map(c_cfl: float) -> np.ndarray:
    """Φ as a dense matrix on ``[u; v]`` in the plan's numbering (a
    permutation of both halves alike: the same spectrum)."""
    base = SimulationConfig.from_dict(json.loads(SMOKE.read_text())["base"])
    sim = Simulation(replace(base, time=replace(base.time, c_cfl=c_cfl)))
    assert sim.solver_plan.active_levels == [1, 3]
    solver = sim.solver_plan.bind(sim.dt)  # no force: the homogeneous map
    n = sim.assembler.n_dof
    phi = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        x = np.zeros(2 * n)
        x[j] = 1.0
        u, v = x[:n].copy(), x[n:].copy()
        solver.step(u, v)
        phi[:n, j], phi[n:, j] = u, v
    return phi


def _rho(c_cfl: float) -> float:
    return float(np.abs(np.linalg.eigvals(_cycle_map(c_cfl))).max())


def test_smoke_config_is_stable_at_0325():
    assert _rho(0.325) <= 1.0 + 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: unstabilised LTS-Newmark has "
                   "rho(Phi) = 1.02398 at the shipped c_cfl 0.35")
def test_smoke_config_is_stable_at_its_shipped_cfl():
    assert _rho(0.35) <= 1.0 + 1e-10
