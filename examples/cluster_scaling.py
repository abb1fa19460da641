"""Simulate CPU and GPU cluster scaling of LTS (paper Fig. 9, small).

Partitions the trench mesh at growing rank counts, plays the LTS cycle
schedule on the calibrated CPU and GPU machine models, and prints the
normalized-performance curves the paper plots: non-LTS CPU, LTS with a
naive vs LTS-aware partitioner, the LTS-ideal line, and the GPU runs with
their kernel-launch strong-scaling limit.  The mesh and its Eq.-(7)
level assignment come from a :class:`repro.api.SimulationConfig`; the
façade's lazily-built stages feed the performance study directly.

Run:  python examples/cluster_scaling.py
"""

from repro.api import Simulation, SimulationConfig
from repro.core import theoretical_speedup
from repro.partition import partition_scotch, partition_scotch_p
from repro.runtime import CPU_NODE, GPU_NODE, ClusterSimulator
from repro.runtime.perfmodel import scaled
from repro.util import Table


def main() -> None:
    sim = Simulation(
        SimulationConfig.from_dict(
            {
                "name": "cluster-scaling",
                "mesh": {
                    "family": "trench",
                    "params": {"nx": 24, "ny": 20, "nz": 10,
                               "band_radii": [0.8, 1.8, 3.6]},
                },
                "order": 1,
                "time": {"n_cycles": 1, "c_cfl": 0.5},
            }
        )
    )
    mesh, levels = sim.mesh, sim.levels
    ts = theoretical_speedup(levels)
    # Scale mapping: per-rank workload at the smallest config matches the
    # paper's 16-node runs (see repro.runtime.perfmodel.scaled).
    factor = (2.5e6 / 128) / (mesh.n_elements / 16)
    cpu = scaled(CPU_NODE, factor)
    gpu = scaled(GPU_NODE, factor)

    ref = None
    t = Table(
        ["CPU ranks", "non-LTS", "LTS ideal", "LTS SCOTCH-P", "LTS SCOTCH", "stall (SCOTCH)"],
        title=f"Trench CPU scaling (theoretical speedup {ts:.1f}x)",
    )
    for k in (16, 32, 64):
        naive = partition_scotch(mesh, levels, k, seed=0)
        aware = partition_scotch_p(mesh, levels, k, seed=0)
        non = ClusterSimulator(mesh, levels, naive, k, cpu).non_lts_cycle()
        lts_naive = ClusterSimulator(mesh, levels, naive, k, cpu).lts_cycle()
        lts_aware = ClusterSimulator(mesh, levels, aware, k, cpu).lts_cycle()
        if ref is None:
            ref = non.performance
        t.add_row(
            [
                k,
                f"{non.performance / ref:.2f}",
                f"{ts * k / 16:.1f}",
                f"{lts_aware.performance / ref:.2f}",
                f"{lts_naive.performance / ref:.2f}",
                f"{lts_naive.stall_time / lts_naive.cycle_time:.0%}",
            ]
        )
    t.print()

    tg = Table(
        ["GPU ranks", "non-LTS GPU", "LTS-GPU", "LTS efficiency"],
        title="Trench GPU scaling (vs CPU reference)",
    )
    for k in (2, 4, 8, 16):
        aware = partition_scotch_p(mesh, levels, k, seed=0)
        non = ClusterSimulator(mesh, levels, aware, k, gpu).non_lts_cycle()
        lts = ClusterSimulator(mesh, levels, aware, k, gpu).lts_cycle()
        tg.add_row(
            [
                k,
                f"{non.performance / ref:.1f}",
                f"{lts.performance / ref:.1f}",
                f"{lts.performance / (non.performance * ts):.0%}",
            ]
        )
    tg.print()
    print(
        "Note the GPU LTS efficiency collapsing as ranks grow: kernel "
        "launch overhead dominates the tiny fine-level populations — the "
        "paper's strong-scaling limit (45% at 128 nodes)."
    )


if __name__ == "__main__":
    main()
