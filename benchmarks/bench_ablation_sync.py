"""Ablation: neighbour vs global-barrier synchronization.

MPI point-to-point halo exchange only couples neighbouring ranks (the
default in SPECFEM3D and in our simulator); a global barrier at every
substep is the pessimistic alternative.  This bench quantifies how much
the choice matters — and shows that it matters *more* for badly balanced
partitions, because a barrier propagates every local stall globally.
"""

import numpy as np

from common import cpu_machine, save_results, seed
from repro.core import assign_levels
from repro.mesh import trench_mesh
from repro.partition import PARTITIONERS
from repro.runtime import ClusterSimulator
from repro.util import Table


def test_ablation_sync_mode(benchmark):
    mesh = trench_mesh(nx=24, ny=20, nz=10, band_radii=(0.8, 1.8, 3.6))
    a = assign_levels(mesh)
    machine = cpu_machine("trench", mesh)
    k = 32

    def simulate():
        rows = []
        for name in ("SCOTCH", "SCOTCH-P"):
            parts = PARTITIONERS[name](mesh, a, k, seed=seed())
            t_nb = ClusterSimulator(mesh, a, parts, k, machine, sync="neighbor").lts_cycle()
            t_ba = ClusterSimulator(mesh, a, parts, k, machine, sync="barrier").lts_cycle()
            rows.append(
                {
                    "strategy": name,
                    "neighbor_cycle": t_nb.cycle_time,
                    "barrier_cycle": t_ba.cycle_time,
                    "barrier_penalty": t_ba.cycle_time / t_nb.cycle_time,
                }
            )
        return rows

    rows = benchmark.pedantic(simulate, rounds=1, iterations=1)

    t = Table(
        ["strategy", "neighbor sync (s)", "barrier sync (s)", "barrier penalty"],
        title=f"Ablation — synchronization model, trench mesh, K={k}",
    )
    for r in rows:
        t.add_row(
            [
                r["strategy"],
                f"{r['neighbor_cycle']:.3e}",
                f"{r['barrier_cycle']:.3e}",
                f"{r['barrier_penalty']:.2f}x",
            ]
        )
    t.print()
    save_results("ablation_sync", rows)

    for r in rows:
        assert r["barrier_penalty"] >= 1.0 - 1e-12
    # Barriers hurt the unbalanced baseline at least as much as the
    # balanced partition.
    naive = next(r for r in rows if r["strategy"] == "SCOTCH")
    bal = next(r for r in rows if r["strategy"] == "SCOTCH-P")
    assert naive["barrier_penalty"] >= 0.95 * bal["barrier_penalty"]
