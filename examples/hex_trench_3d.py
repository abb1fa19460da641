"""3D hexahedral trench: distributed LTS, verified against serial and across tiers.

The paper's benchmark meshes are hexahedral (Fig. 4); this demo runs
the full pipeline on a small 3D trench — the strip of pinched elements
that creates multiple LTS p-levels — from the checked-in config
``examples/configs/hex_trench_3d.json`` (also runnable as
``python -m repro run examples/configs/hex_trench_3d.json``):

1. the config builds the trench mesh, assigns LTS levels from
   ``h_i / c_i``, and discretizes with order-3 hexahedral spectral
   elements (:class:`repro.sem.tensor.SemND`);
2. the matrix-free CFL estimate (power iteration on the operator
   action) must bound the finest LTS step;
3. the config partitions across 4 ranks and runs the distributed
   LTS-Newmark solver through the mailbox runtime, matrix-free (no
   rank ever forms a matrix); :meth:`repro.api.Simulation.variant`
   reruns it on one rank and on the NumPy tier, and all three agree
   to 1e-12.

Run:  python examples/hex_trench_3d.py
"""

from pathlib import Path

from repro.api import (
    BackendSpec,
    PartitionSpec,
    Simulation,
    SimulationConfig,
    relative_deviation,
)
from repro.core import stable_timestep_from_operator

CONFIG = Path(__file__).with_name("configs") / "hex_trench_3d.json"


def main() -> None:
    cfg = SimulationConfig.from_file(CONFIG)
    sim = Simulation(cfg)
    print(
        f"3D trench: {sim.mesh.n_elements} hexahedra, {sim.assembler.n_dof} "
        f"DOFs, {sim.levels.n_levels} LTS levels {sim.levels.counts()}"
    )

    # Matrix-free CFL: power iteration needs only the operator action;
    # the finest LTS step must lie inside the bound it finds.
    dt_power = stable_timestep_from_operator(sim.operator(), method="power")
    print(f"stable dt: power iteration {dt_power:.5f}, finest LTS step "
          f"{sim.levels.dt_min:.5f}")
    assert sim.levels.dt_min <= dt_power

    # The distributed run (fused tier wherever it loads), then two
    # variants sharing sim's resolved pipeline: the same config on one
    # rank, and on the NumPy tier.
    dist = sim.run()
    serial = sim.variant(partition=PartitionSpec(n_ranks=1)).run()
    numpy_run = sim.variant(backend=BackendSpec(fused=False)).run()
    for res in (dist, numpy_run):
        print(
            f"{res.metadata['kernel_tier']:>9} tier: {res.metadata['messages']} messages, "
            f"{res.metadata['comm_volume']} values exchanged over "
            f"{res.n_cycles} cycles"
        )

    err_serial = relative_deviation(serial, dist)
    err_tiers = relative_deviation(dist, numpy_run)
    print(f"distributed vs serial: {err_serial:.2e} (relative)")
    print(f"NumPy tier vs {dist.metadata['kernel_tier']}: {err_tiers:.2e} (relative)")
    assert err_serial < 1e-12
    assert err_tiers < 1e-12
    print("3D hex LTS run verified: the distributed run reproduces the serial "
          "one on every tier")

if __name__ == "__main__":
    main()
