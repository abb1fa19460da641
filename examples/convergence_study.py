"""Convergence and conservation study of LTS-Newmark (paper Sec. II).

Verifies numerically, on a refined 1D SEM system, that multi-level
LTS-Newmark (i) converges at second order in the cycle step, matching
plain Newmark's order, and (ii) conserves the discrete energy over long
runs — the two theoretical properties the paper cites from its companion
work [15].

This is the repository's **manual-wiring tutorial**: every other
example drives the pipeline through the declarative
:mod:`repro.api` façade, but studies like this one — interpolated
initial conditions, sweeps over the cycle step, per-cycle energy
probes — need the underlying layers directly.  The escape hatch is
always available: build the mesh/assembler/levels by hand (below), or
start from a config and pull the façade's resolved stages
(``Simulation(cfg).assembler`` etc., as ``examples/elastic_basin.py``
does).

Run:  python examples/convergence_study.py
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import refined_interval
from repro.sem import SemND, discrete_energy
from repro.util import Table


def main() -> None:
    mesh = refined_interval(n_coarse=16, n_fine=16, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4, dirichlet=True)
    levels = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
    A = sem.operator()  # M^{-1} K, matrix-free
    L = mesh.coords[:, 0].max()
    k = np.pi / L
    T = 1.0
    u0 = np.sin(k * sem.node_coords[:, 0])
    exact = u0 * np.cos(k * T)

    t = Table(["cycles", "dt", "max error", "observed order"],
              title="LTS-Newmark convergence (standing wave)")
    errs, prev = [], None
    base = int(np.ceil(T / levels.dt))
    for r in (1, 2, 4, 8):
        n = base * r
        dt = T / n
        v0 = staggered_initial_velocity(A, dt, u0, np.zeros_like(u0))
        u, _ = LTSNewmarkSolver(A, dof_level, dt).run(u0, v0, n)
        err = float(np.max(np.abs(u - exact)))
        order = "" if prev is None else f"{np.log2(prev / err):.2f}"
        t.add_row([n, f"{dt:.2e}", f"{err:.3e}", order])
        errs.append(err)
        prev = err
    t.print()
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    print(f"asymptotic order: {orders[-1]:.2f} (theory: 2)")

    # Energy conservation over a long run.
    u = u0.copy()
    v = staggered_initial_velocity(A, levels.dt, u, np.zeros_like(u))
    solver = LTSNewmarkSolver(A, dof_level, levels.dt)
    # The stiffness the energy weighs u with: M (M^{-1} K), Dirichlet
    # rows and columns clamped as the scheme clamps them.
    K = LinearOperator(A.shape, matvec=lambda x: sem.M * (A @ x), dtype=np.float64)
    # ``step`` advances the fields in the plan's level-sorted numbering:
    # scatter into it once, gather the global fields to measure.
    m = solver.plan.replicas
    (u,), (v,) = m.scatter(u), m.scatter(v)
    energies = []
    for _ in range(2000):
        u_prev = m.gather([u]).copy()
        u, v = solver.step(u, v)
        energies.append(discrete_energy(sem.M, K, u_prev, m.gather([u]), m.gather([v])))
    energies = np.asarray(energies)
    drift = np.ptp(energies) / abs(energies.mean())
    print(f"energy drift over 2000 cycles: {drift:.2e} (bounded, no growth)")
    assert orders[-1] > 1.8
    assert drift < 1e-2


if __name__ == "__main__":
    main()
