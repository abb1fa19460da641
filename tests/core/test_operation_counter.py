"""Regression tests for OperationCounter benchmark hygiene.

The Eq. (9) benchmarks derive speedups from counter *ratios*; if a
counter is reused across benchmark repetitions without a reset, every
repetition silently adds on top of the previous one and the reported
efficiency is wrong by the repetition count.  These tests pin that
failure mode and the detached snapshot a reset leaves intact.
"""

import numpy as np
import pytest

from repro.core import OperationCounter, assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.mesh import refined_interval
from repro.sem import SemND
from oracles import csr


@pytest.fixture(scope="module")
def solver_setup():
    mesh = refined_interval(n_coarse=12, n_fine=8, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4, dirichlet=True)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
    return sem, a, dof_level, u0


def test_reuse_without_reset_double_reports(solver_setup):
    """The bug: the same counter over two runs accumulates 2x the ops."""
    sem, a, dof_level, u0 = solver_setup
    counter = OperationCounter()
    solver = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt, counter=counter)
    solver.run(u0, np.zeros_like(u0), 1)
    once = counter.total_ops
    solver.run(u0, np.zeros_like(u0), 1)
    assert counter.total_ops == 2 * once  # accumulates — must reset between reps


def test_snapshot_is_detached():
    c = OperationCounter()
    c.count_stiffness(1, 10)
    c.count_vector(5)
    snap = c.snapshot()
    c.reset()
    assert snap.stiffness_ops == 10 and snap.vector_ops == 5
    assert snap.applications_per_level == {1: 1}
    assert c.total_ops == 0
