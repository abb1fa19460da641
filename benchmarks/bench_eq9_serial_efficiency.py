"""Sec. II-C / Eq. (9): single-rank LTS efficiency vs the speedup model.

The paper reports >90% single-threaded efficiency of the optimized
LTS-Newmark implementation relative to the model speedup (9).  We measure
it two ways on a 1D SEM system (where the numerics actually run):

* in stiffness operations (the dominant cost of an SEM code): the
  optimized plan's closed-form count of one cycle
  (``NumberingPlan.ops_per_cycle``) — the efficiency claim proper;
* in wall-clock of the NumPy implementation, reported for context (pure
  Python vector overhead makes this a lower bound).

Both step the unassembled operator (``sem.operator()``), as Sec. II-C's
implementation does; in 1D that is the NumPy tier.
"""

import time

import numpy as np

from common import save_results
from repro.core import assign_levels, theoretical_speedup
from repro.core.lts_newmark import (
    LTSNewmarkSolver, NewmarkSolver, dof_levels_from_elements, newmark_cycle_ops,
)
from repro.mesh import refined_interval
from repro.sem import SemND
from repro.util import Table


def test_eq9_serial_efficiency(benchmark):
    mesh = refined_interval(n_coarse=480, n_fine=32, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4, dirichlet=True)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    ts = theoretical_speedup(a)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.5)
    v0 = np.zeros_like(u0)

    A = sem.operator()
    opt = LTSNewmarkSolver(A, dof_level, a.dt)
    counter = opt.plan.numberings[0].ops_per_cycle()
    op_speedup = (a.p_max * opt.op.nnz) / counter.stiffness_ops
    op_eff = op_speedup / ts
    opt_total_speedup = newmark_cycle_ops(opt.op, a.p_max) / counter.total_ops

    n_cycles = 40
    lts_wall = benchmark.pedantic(
        lambda: LTSNewmarkSolver(A, dof_level, a.dt).run(u0, v0, n_cycles),
        rounds=1, iterations=1,
    )
    t0 = time.perf_counter()
    LTSNewmarkSolver(A, dof_level, a.dt).run(u0, v0, n_cycles)
    t_lts = time.perf_counter() - t0
    t0 = time.perf_counter()
    NewmarkSolver(A, a.dt_min).run(u0, v0, n_cycles * a.p_max)
    t_non = time.perf_counter() - t0
    wall_speedup = t_non / t_lts

    t = Table(
        ["metric", "value", "paper"],
        title=f"Eq. (9) — serial LTS efficiency (model speedup {ts:.2f}x)",
    )
    t.add_row(["op-count speedup", f"{op_speedup:.2f}x", f"{ts:.2f}x model"])
    t.add_row(["op-count efficiency", f"{op_eff:.0%}", ">90%"])
    t.add_row(["total-op speedup", f"{opt_total_speedup:.2f}x", "-"])
    t.add_row(["NumPy wall-clock speedup", f"{wall_speedup:.2f}x", "(context)"])
    t.print()
    save_results(
        "eq9",
        {"model_speedup": ts, "op_speedup": op_speedup, "op_efficiency": op_eff,
         "optimized_total_speedup": opt_total_speedup,
         "wall_speedup": wall_speedup},
    )

    assert op_eff > 0.90  # the paper's headline claim
    assert wall_speedup > 1.0
