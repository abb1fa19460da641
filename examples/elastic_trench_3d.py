"""3D elastic trench: distributed LTS, verified against serial and across tiers.

The paper's target physics in its native dimension — the elastic wave
equation (Eqs. (1)-(2)) on a hexahedral trench mesh — declared as one
:class:`repro.api.SimulationConfig`:

1. the mesh spec builds the trench (the strip of pinched elements that
   creates multiple LTS p-levels); the material spec sets an isotropic
   elastic background with a stiff intrusion (a declarative
   :class:`repro.api.RegionSpec`: 16x the moduli -> 4x the P speed) so
   the level structure is genuinely P-velocity-driven — levels follow
   ``h_i / cp_i`` exactly as Eq. (7) prescribes;
2. the matrix-free CFL estimate (power iteration on the elastic
   operator action) must bound the finest LTS step;
3. the config partitions across 4 ranks and runs the distributed
   LTS-Newmark solver through the mailbox runtime, matrix-free (no
   rank ever forms a matrix); :meth:`repro.api.Simulation.variant`
   reruns it on one rank and on the NumPy tier, and all three agree
   to 1e-12.

Run:  python examples/elastic_trench_3d.py
"""

from repro.api import (
    BackendSpec,
    PartitionSpec,
    Simulation,
    SimulationConfig,
    relative_deviation,
)
from repro.core import stable_timestep_from_operator


def main() -> None:
    # Small trench: a row of refined elements along x at the surface,
    # plus a stiff intrusion (16x the moduli -> 4x the P speed).  The
    # mesh has 8*6*3 = 144 hexahedra; element 72 is the intrusion.
    cfg = SimulationConfig.from_dict(
        {
            "name": "elastic-trench-3d",
            "mesh": {
                "family": "trench",
                "params": {"nx": 8, "ny": 6, "nz": 3, "band_radii": [0.8, 1.8]},
            },
            "material": {
                "model": "elastic",
                "lam": 2.0,
                "mu": 1.0,
                "rho": 1.0,
                "regions": [
                    {"elements": [72], "values": {"lam": 32.0, "mu": 16.0}}
                ],
            },
            "order": 2,
            "time": {"n_cycles": 8, "c_cfl": 0.35},
            "source": {"position": [2.0, 3.0, 1.0], "component": 2, "f0": 0.5},
            "receivers": {
                "positions": [[5.0, 3.0, 0.5], [7.0, 3.0, 0.5]],
                "component": 2,
            },
            "partition": {"n_ranks": 4, "strategy": "SCOTCH-P", "seed": 0},
        }
    )
    sim = Simulation(cfg)
    cp = sim.assembler.p_velocity()
    print(
        f"3D elastic trench: {sim.mesh.n_elements} hexahedra, "
        f"{sim.assembler.n_dof} DOFs (3 components), "
        f"cp in [{cp.min():.1f}, {cp.max():.1f}], "
        f"{sim.levels.n_levels} LTS levels {sim.levels.counts()}"
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
    print("3D elastic LTS run verified: the distributed run reproduces the serial "
          "one on every tier")

if __name__ == "__main__":
    main()
