"""Elastic P-SV wave propagation with LTS over a stiff intrusion.

The paper's physics (Eqs. (1)-(2)): a 2D plane-strain elastic medium in
which a stiff, fast intrusion (4x the background P speed, a declarative
:class:`repro.api.RegionSpec`) forces a locally small stable step.  LTS
assigns the intrusion to a finer p-level and steps the rest of the
domain coarsely.

The LTS scheme runs through the :class:`repro.api.Simulation` façade;
plain Newmark at the finest step ``dt_min`` everywhere (what a non-LTS
code must take) is then wired by hand from the *same* resolved pipeline
stages (``sim.assembler``, ``sim.force``, ``sim.levels``) — the façade
and the manual layer compose — and covers the same simulated time.  The
two are different schemes, so they agree to discretisation accuracy,
not machine precision; LTS == Algorithm 1 to machine precision on the
elastic operator is held by the tests (``tests/sem/test_elastic2d.py``).

Run:  python examples/elastic_basin.py
"""

import numpy as np

from repro.api import Simulation, SimulationConfig
from repro.core import NewmarkSolver, theoretical_speedup


def main() -> None:
    # 8x8 quad mesh on the unit square; elements 27/28/35/36 form the
    # stiff intrusion: 16x the moduli -> 4x the P speed -> 4x smaller step.
    cfg = SimulationConfig.from_dict(
        {
            "name": "elastic-basin",
            "mesh": {
                "family": "uniform_grid",
                "params": {"shape": [8, 8], "lengths": [1.0, 1.0]},
            },
            "material": {
                "model": "elastic",
                "lam": 2.0,
                "mu": 1.0,
                "regions": [
                    {
                        "elements": [27, 28, 35, 36],
                        "values": {"lam": 32.0, "mu": 16.0},
                    }
                ],
            },
            "order": 4,
            "time": {"n_cycles": 20, "c_cfl": 0.35},
            "source": {"position": [0.25, 0.5], "component": 0, "f0": 2.0},
        }
    )
    sim = Simulation(cfg)
    cp = sim.assembler.p_velocity()
    print(f"elastic model: {sim.mesh.n_elements} elements, "
          f"{sim.assembler.n_dof} DOFs (2 components), "
          f"cp in [{cp.min():.1f}, {cp.max():.1f}]")
    print(f"LTS levels: {sim.levels.n_levels} {sim.levels.counts()}, "
          f"speedup model {theoretical_speedup(sim.levels):.2f}x")

    # LTS through the façade.
    res = sim.run()

    # Newmark at dt_min over the same time, hand-wired from the same stages.
    zeros = np.zeros(sim.assembler.n_dof)
    u_nm, _ = NewmarkSolver(sim.operator(), sim.levels.dt_min, force=sim.force).run(
        zeros, zeros, sim.n_cycles * sim.levels.p_max
    )

    dev = np.max(np.abs(res.u - u_nm)) / np.max(np.abs(u_nm))
    print(f"LTS vs Newmark at dt_min: relative max deviation {dev:.2e}")
    print(f"displacement field bounded: max |u| = {np.max(np.abs(res.u)):.3e}")
    # Measured 3.3e-3 (Newmark at dt_min / 4 is 7.6e-4 from Newmark at
    # dt_min, 4.1e-3 from LTS): the bound is ~3x the measured deviation.
    assert dev < 1e-2
    assert np.all(np.isfinite(res.u))
    print("elastic LTS run verified.")


if __name__ == "__main__":
    main()
