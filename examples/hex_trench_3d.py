"""3D hexahedral trench: distributed LTS on both operator backends.

The paper's benchmark meshes are hexahedral (Fig. 4); this demo runs
the full pipeline on a small 3D trench — the strip of pinched elements
that creates multiple LTS p-levels — from the checked-in config
``examples/configs/hex_trench_3d.json`` (also runnable as
``python -m repro run examples/configs/hex_trench_3d.json``):

1. the config builds the trench mesh, assigns LTS levels from
   ``h_i / c_i``, and discretizes with order-3 hexahedral spectral
   elements (:class:`repro.sem.tensor.SemND`);
2. :func:`repro.api.compare_backends` partitions across 4 ranks and
   runs the distributed LTS-Newmark solver through the mailbox
   runtime, once per stiffness backend — assembled partial-CSR and
   matrix-free sum-factorization (no rank ever forms a matrix);
3. both backends must agree to machine precision and match the serial
   reference solver (the same config on one rank), and the matrix-free
   CFL estimate (power iteration on the operator action, no assembled
   matrix needed) must match the sparse eigensolver.

Run:  python examples/hex_trench_3d.py
"""

from pathlib import Path

from repro.api import (
    Simulation,
    SimulationConfig,
    compare_backends,
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

    # Matrix-free CFL: power iteration needs only the operator action.
    dt_eigs = stable_timestep_from_operator(sim.assembler.A, method="eigs")
    dt_power = stable_timestep_from_operator(
        sim.assembler.operator("matfree"), method="power"
    )
    rel = abs(dt_eigs - dt_power) / dt_eigs
    print(f"stable dt: eigs {dt_eigs:.5f}, matfree power iteration {dt_power:.5f} "
          f"(rel diff {rel:.1e})")
    assert rel < 1e-6

    # Serial reference (same config, one rank) + one distributed run
    # per stiffness backend — all sharing sim's resolved pipeline.
    results = compare_backends(sim, include_serial=True)
    serial = results.pop("serial")
    for backend, res in results.items():
        print(
            f"{backend:>9} backend: {res.metadata['messages']} messages, "
            f"{res.metadata['comm_volume']} values exchanged over "
            f"{res.n_cycles} cycles"
        )

    err_backends = relative_deviation(results["assembled"], results["matfree"])
    err_serial = max(relative_deviation(serial, r) for r in results.values())
    print(f"matfree vs assembled: {err_backends:.2e} (relative)")
    print(f"distributed vs serial: {err_serial:.2e} (relative)")
    assert err_backends < 1e-12
    assert err_serial < 1e-11
    print("3D hex LTS run verified: both backends reproduce the serial scheme")


if __name__ == "__main__":
    main()
