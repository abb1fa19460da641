"""Quickstart: one declarative config from mesh to receiver traces.

The whole pipeline — the paper's Fig.-1 setting, a 1D wave problem
whose centre block of elements is 8x smaller than the rest — described
as a single :class:`repro.api.SimulationConfig` loaded from
``examples/configs/quickstart.json`` (the same file
``python -m repro run examples/configs/quickstart.json`` executes):

* the pinched elements force an 8x smaller global step on the whole
  mesh (paper Eq. (7)); multi-level LTS-Newmark steps each region at
  its own rate;
* ``dataclasses.replace`` swaps one spec field at a time: the non-LTS
  Newmark baseline (``scheme="newmark"``) is the same config with one
  knob changed.

Run:  python examples/quickstart.py
      python -m repro run examples/configs/quickstart.json
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.api import Simulation, SimulationConfig, run
from repro.core import theoretical_speedup

CONFIG = Path(__file__).with_name("configs") / "quickstart.json"


def main() -> None:
    cfg = SimulationConfig.from_file(CONFIG)
    sim = Simulation(cfg)
    print(f"config: {CONFIG.name} ({cfg.mesh.family} mesh, "
          f"material={cfg.material.model}, order={cfg.order})")
    print(f"mesh: {sim.mesh.n_elements} elements, {sim.assembler.n_dof} DOFs")
    print(f"LTS levels: {sim.levels.n_levels} "
          f"(elements per level: {sim.levels.counts()})")
    print(f"speedup model (paper Eq. 9): {theoretical_speedup(sim.levels):.2f}x")

    # --- LTS vs the non-LTS baseline: one spec field changed ------------
    lts = sim.run()
    newmark = run(replace(cfg, time=replace(cfg.time, scheme="newmark")))
    t_lts = lts.metadata["run_seconds"]
    t_nm = newmark.metadata["run_seconds"]
    print(f"\nnon-LTS Newmark: {newmark.n_cycles} steps, {t_nm:.3f}s")
    print(f"LTS-Newmark:     {lts.n_cycles} cycles, {t_lts:.3f}s")
    print(f"wall-clock speedup: {t_nm / t_lts:.2f}x")
    # Both schemes integrate the same problem to t_end: second-order
    # agreement on the final field.
    scheme_diff = np.abs(lts.u - newmark.u).max() / np.abs(newmark.u).max()
    print(f"LTS vs Newmark final field: {scheme_diff:.2e} (relative)")
    assert scheme_diff < 0.05
    peak = np.abs(lts.traces).max()
    print(f"receiver peak |u| = {peak:.3e}")
    assert peak > 0 and np.all(np.isfinite(lts.u))
    print("quickstart verified: LTS reproduces the Newmark baseline")


if __name__ == "__main__":
    main()
