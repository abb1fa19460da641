"""Allocation budgets for the serial stepping hot paths.

The pooled workspace layer (:mod:`repro.core.workspace` plus the kernel
workspaces of :mod:`repro.sem.matfree`) makes a steady-state step
allocation-free up to interpreter noise: every gather/contract/scatter
buffer, level scratch vector, and axpy temporary is preallocated.  These
tests pin that property with tracemalloc so a future change cannot
silently reintroduce per-step temporaries: the *net surviving
allocation count* per step must stay under a small fixed budget, and
the *transient peak* must stay under one field vector (proof that no
full-length temporary is created) on both operator backends.

Measured today: ~2 net blocks/step (bookkeeping floats like ``self.t``
and the step counter), transient peaks of a few hundred bytes.  The
budgets leave headroom for interpreter version noise, not for real
regressions — a single resurrected ``np.empty_like(u)`` per step blows
the peak bound immediately.  The fused C tier has its own (looser) net
budget: its prebound ctypes call passes two addresses per apply.
"""

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, NewmarkSolver, dof_levels_from_elements
from repro.core.newmark import staggered_initial_velocity
from repro.core.workspace import measure_hot_path
from repro.mesh import uniform_grid
from repro.sem import SemND, fused
from oracles import csr

#: Net tracemalloc blocks allowed to survive a steady-state step.
ALLOC_BUDGET = 8
#: The same for the fused C tier (ctypes argument conversion).
FUSED_ALLOC_BUDGET = 16


@pytest.fixture(scope="module")
def sys2d():
    mesh = uniform_grid((8, 8))
    mesh.c = mesh.c.copy()
    mesh.c[27] = 4.0
    mesh.c[36] = 2.0
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords - sem.node_coords.mean(axis=0)) ** 2).sum(axis=1))
    v0 = staggered_initial_velocity(csr.A(sem), a.dt, u0, np.zeros_like(u0))
    return sem, a, dof_level, u0, v0


def _measure(solver, u0, v0):
    state = [u0.copy(), v0.copy()]

    def step():
        state[0], state[1] = solver.step(state[0], state[1])

    return measure_hot_path(step, n_steps=5, warmup=3)


@pytest.mark.parametrize("backend", ["assembled", "matfree"])
def test_newmark_step_allocation_budget(sys2d, backend):
    sem, a, _, u0, v0 = sys2d
    A = (
        csr.A(sem)
        if backend == "assembled"
        else sem.operator("matfree", use_fused=False)
    )
    stats = _measure(NewmarkSolver(A, a.dt), u0, v0)
    assert stats.allocs_per_step <= ALLOC_BUDGET, (backend, stats)
    assert stats.alloc_peak_bytes_per_step < u0.nbytes, (backend, stats)


@pytest.mark.parametrize("backend", ["assembled", "matfree", "fused"])
def test_lts_step_allocation_budget(sys2d, backend):
    sem, a, dof_level, u0, v0 = sys2d
    if backend == "fused" and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    op = (
        csr.operator(sem)
        if backend == "assembled"
        else sem.operator("matfree", use_fused=backend == "fused")
    )
    solver = LTSNewmarkSolver(op, dof_level, a.dt)
    assert len(solver.active_levels) >= 2  # multi-level recursion exercised
    stats = _measure(solver, u0, v0)
    budget = FUSED_ALLOC_BUDGET if backend == "fused" else ALLOC_BUDGET
    assert stats.allocs_per_step <= budget, (backend, stats)
    assert stats.alloc_peak_bytes_per_step < u0.nbytes, (backend, stats)
    assert solver.workspace_bytes() > 0


def test_fused_one_level_lts_allocation_budget(sys2d):
    """The cycle the façade's ``scheme="newmark"`` runs — one-level LTS
    on the fused tier, its depth-0 step the C ``begin`` — holds the
    fused budget and allocates no full-length temporary."""
    sem, a, _, u0, v0 = sys2d
    if not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    solver = LTSNewmarkSolver(
        sem.operator("matfree", use_fused=True), np.ones(sem.n_dof, dtype=np.int64), a.dt
    )
    assert solver.active_levels == [1] and solver._states[0]._c_begin is not None
    stats = _measure(solver, u0, v0)
    assert stats.allocs_per_step <= FUSED_ALLOC_BUDGET, stats
    assert stats.alloc_peak_bytes_per_step < u0.nbytes, stats


def test_optimized_matches_reference(sys2d):
    """The allocation-free LTS trajectory stays within 1e-12 of the
    literal Algorithm 1 transcription (the independent oracle:
    full-vector recursion, allocating updates)."""
    sem, a, dof_level, u0, v0 = sys2d
    op = sem.operator("matfree", use_fused=False)
    fast = LTSNewmarkSolver(op, dof_level, a.dt)
    m = fast.plan.replicas  # the solver steps its level-sorted numbering
    (uf,), (vf,) = m.scatter(u0), m.scatter(v0)
    for _ in range(5):
        uf, vf = fast.step(uf, vf)
    ur, _ = algorithm1(op, dof_level, a.dt, u0, v0, 5)
    assert np.abs(m.gather([uf]) - ur).max() / np.abs(ur).max() < 1e-12
