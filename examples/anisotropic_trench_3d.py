"""3D anisotropic trench: a tilted-TI layer through distributed LTS.

General anisotropy end-to-end, declared as one :class:`repro.api
.SimulationConfig`: a hexahedral trench mesh in which a *tilted
transversely isotropic* (TTI) layer — a hexagonal stiffness tensor with
its symmetry axis tilted 30 degrees in the (x, z) plane — sits on top
of an isotropic background.  The layer is a declarative
:class:`repro.api.RegionSpec` box override of the Voigt stiffness; its
quasi-P speeds are about twice the background's, so LTS p-levels must
follow the *Christoffel* maximal velocity (paper Eq. (7) with the
anisotropic wave speeds), not the mesh geometry alone:

1. the config resolves a per-element Voigt stiffness
   (symmetry/positive-definiteness validated by
   :class:`repro.sem.materials.AnisotropicElastic`) and assigns levels
   from the Christoffel quasi-P maximum automatically;
2. the matrix-free CFL estimate (power iteration on the anisotropic
   operator action) must bound the finest LTS step;
3. the config partitions across 4 ranks and runs the distributed
   LTS-Newmark solver through the mailbox runtime, matrix-free
   stress-form contractions (no rank ever forms a matrix);
   :meth:`repro.api.Simulation.variant` reruns it on one rank and on
   the NumPy tier, and all three agree to 1e-12.

Run:  python examples/anisotropic_trench_3d.py
"""

import numpy as np

from repro.api import (
    BackendSpec,
    PartitionSpec,
    Simulation,
    SimulationConfig,
    relative_deviation,
)
from repro.core import stable_timestep_from_operator
from repro.sem import AnisotropicElastic, hexagonal_stiffness, isotropic_stiffness
from repro.sem.materials import rotation_about_y


def main() -> None:
    # Isotropic background: lam = 2, mu = 1 -> vp = 2.  Tilted-TI layer
    # near the surface: hexagonal stiffness (vertical qP ~ sqrt(13),
    # horizontal ~ sqrt(20) — over 2x the background), symmetry axis
    # tilted 30 degrees about y.  Both tensors are plain data in the
    # material spec; the TTI layer is a box region override covering
    # the top element layer (centroid z <= 1.25).
    tti_voigt = (
        AnisotropicElastic(
            hexagonal_stiffness(c11=20.0, c33=13.0, c13=5.0, c44=4.0, c66=5.0)
        )
        .rotate(rotation_about_y(np.deg2rad(30.0)))
        .C
    )
    cfg = SimulationConfig.from_dict(
        {
            "name": "anisotropic-trench-3d",
            "mesh": {
                "family": "trench",
                "params": {"nx": 8, "ny": 6, "nz": 3, "band_radii": [0.8, 1.8]},
            },
            "material": {
                "model": "anisotropic_elastic",
                "C": isotropic_stiffness(2.0, 1.0, 3),
                "rho": 1.0,
                "regions": [
                    {
                        "box": [[0.0, 8.0], [0.0, 6.0], [0.0, 1.25]],
                        "values": {"C": tti_voigt},
                    }
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
    mesh, levels = sim.mesh, sim.levels
    vmax = sim.assembler.max_velocity()
    centroids = mesh.coords[mesh.elements].mean(axis=1)
    tti = centroids[:, 2] <= 1.25
    print(
        f"3D TTI trench: {mesh.n_elements} hexahedra ({int(tti.sum())} TTI), "
        f"{sim.assembler.n_dof} DOFs (3 components), Christoffel max velocity "
        f"in [{vmax.min():.2f}, {vmax.max():.2f}], "
        f"{levels.n_levels} LTS levels {levels.counts()}"
    )

    # Levels follow the Christoffel maximal velocity: among the
    # unrefined bulk elements the fast TTI layer (velocity ratio > 2)
    # sits at least one level finer than the isotropic background of
    # the same size.
    bulk = mesh.h == mesh.h.max()
    assert levels.level[bulk & tti].min() > levels.level[bulk & ~tti].max()

    # Matrix-free CFL: power iteration needs only the operator action;
    # the finest LTS step must lie inside the bound it finds.  The TTI
    # operator's top eigenvalues are clustered (rel gap ~1e-4), so the
    # iteration needs a tighter tolerance and more iterations than the
    # isotropic runs.
    dt_power = stable_timestep_from_operator(
        sim.operator(), method="power", tol=1e-10, maxiter=200_000,
    )
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
    print("3D anisotropic LTS run verified: the distributed run reproduces the serial "
          "one on every tier")

if __name__ == "__main__":
    main()
