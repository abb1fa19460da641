"""Distributed runs keep the Dirichlet mask.

The serial ``A`` masks rows and columns.  A rank layout holds the mask
the same way: the columns on the rank-local stiffness (the matrix-free
``gmask``, or the column block of the CSR oracle's share), the rows
folded into the rank-local ``1/M``.  So N ranks equal the serial run,
and the boundary DOFs stay exactly zero, on every tier.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.runtime import DistributedLTSSolver, MailboxWorld, build_rank_layout
from repro.sem import fused
from oracles import csr

BACKENDS = {
    # Ranks apply the CSR oracle's shares; the serial run is the NumPy tier.
    "assembled": {"stiffness": "matfree", "fused": False},
    "numpy": {"stiffness": "matfree", "fused": False},
    "fused": {"stiffness": "matfree", "fused": True},
}


def _simulation(backend: str) -> Simulation:
    if backend == "fused" and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    return Simulation({
        "mesh": {"family": "uniform_grid", "params": {"shape": [8, 8]}},
        "material": {
            "model": "acoustic",
            "regions": [
                {"elements": [27, 28], "values": {"c": 4.0}},
                {"elements": [19, 20, 35, 36], "values": {"c": 2.0}},
            ],
        },
        "order": 3,
        "dirichlet": True,
        "time": {"n_cycles": 30, "c_cfl": 0.35},
        "source": {"position": [2.0, 4.0], "f0": 0.8},
        "receivers": {"positions": [[6.0, 4.0]]},
        "backend": BACKENDS[backend],
    })


@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_dirichlet_run_on_ranks_equals_serial(backend, ranks):
    sim = _simulation(backend)
    serial = sim.run()
    sem, b = sim.assembler, sim.config.backend
    parts = np.arange(sem.mesh.n_elements) * ranks // sem.mesh.n_elements
    if backend == "assembled":
        layout = csr.rank_layout(sem, parts, ranks, dof_level=sim.dof_level)
    else:
        layout = build_rank_layout(sem, parts, ranks, dof_level=sim.dof_level, use_fused=b.fused)
    solver = DistributedLTSSolver(layout, serial.dt, world=MailboxWorld(ranks), force=sim.force)
    zeros = np.zeros(sem.n_dof)
    u, v = solver.run(zeros, zeros, serial.n_cycles)
    scale = np.abs(serial.u).max()
    assert scale > 0
    assert np.abs(u - serial.u).max() <= 1e-12 * scale
    assert np.abs(v - serial.v).max() <= 1e-12 * np.abs(serial.v).max()
    boundary = sem.dirichlet_mask == 0
    assert boundary.any() and not u[boundary].any() and not v[boundary].any()
