"""Allocation-free hot path: pooled NumPy kernels vs the seed kernel tier.

The paper's Sec. II-C cost model only holds if a substep at level ``k``
costs the work of level ``k``'s active set — nothing amortized, nothing
allocated.  The LTS recursion itself is allocation-free and compact
(one path, see :mod:`repro.core.lts_newmark`); this bench measures what
the pooled *kernel* tier (:mod:`repro.core.workspace` + the precomputed,
rows-only scatter plans of :mod:`repro.sem.matfree`) buys under it over
the seed kernels (``operator(..., pooled=False)``: allocating
``tensordot`` contraction, ``bincount`` scatter, full-length passes on
every level), on the multi-level optimized LTS solver:

* **steady-state steps/sec**, interleaved best-of-rounds, pooled vs
  seed kernels under the same recursion;
* **run-to-run bitwise determinism** of the pooled path (two fresh
  solver instances, identical initial conditions, bitwise-equal ``u``
  and ``v`` after every measured step);
* **optimized-vs-reference agreement** ``<= 1e-12`` max relative error
  against ``mode="reference"`` — the literal full-vector transcription
  of Algorithm 1, the independent oracle;
* **allocation discipline** via :func:`repro.core.workspace.measure_hot_path`
  (net tracemalloc blocks per steady-state step, pooled workspace bytes).

The acceptance bar is >= 1.3x steady-state steps/sec on at least one 2D
and one 3D configuration.  Full runs record
``benchmarks/results/hotpath.json``; ``--quick`` shrinks the configs to
a seconds-long CI smoke run that checks correctness at full strictness
but only sanity-checks the speedup, and never overwrites the recorded
full results.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import save_results  # noqa: E402

from repro.core import assign_levels  # noqa: E402
from repro.core.lts_newmark import (  # noqa: E402
    LTSNewmarkSolver,
    dof_levels_from_elements,
)
from repro.core.newmark import staggered_initial_velocity  # noqa: E402
from repro.core.workspace import measure_hot_path  # noqa: E402
from repro.mesh import uniform_grid  # noqa: E402
from repro.sem import Sem2D, Sem3D  # noqa: E402
from repro.util import Table  # noqa: E402

#: (name, dim, grid shape, order, timed steps).  The fast-region patch
#: (a strip of elements at 4x the background speed) forces 3 LTS levels,
#: so the optimized solver's nested active sets are actually exercised.
FULL_CONFIGS = [
    ("2d_o5_32", 2, (32, 32), 5, 40),
    ("3d_o4_8", 3, (8, 8, 8), 4, 20),
]
QUICK_CONFIGS = [
    ("2d_o4_12", 2, (12, 12), 4, 20),
    ("3d_o3_5", 3, (5, 5, 5), 3, 20),
]


def _cpu_info() -> dict:
    """CPU identity for result-file provenance."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count()
    return {"cpu_model": model, "cpu_count": os.cpu_count(), "usable_cores": usable}


def _setup(dim: int, shape: tuple, order: int):
    mesh = uniform_grid(shape)
    mesh.c = mesh.c.copy()
    mesh.c[: max(2, mesh.n_elements // 40)] = 4.0
    sem = (Sem2D if dim == 2 else Sem3D)(mesh, order=order)
    a = assign_levels(mesh, c_cfl=0.4, order=order)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    pts = sem.xy if dim == 2 else sem.xyz
    u0 = np.exp(-((pts - pts.mean(axis=0)) ** 2).sum(axis=1))
    v0 = staggered_initial_velocity(sem.A, a.dt, u0, np.zeros_like(u0))
    return sem, a, dof_level, u0, v0


def _solver(sem, dof_level, dt: float, pooled: bool,
            mode: str = "optimized") -> LTSNewmarkSolver:
    op = sem.operator("matfree", use_fused=False, pooled=pooled)
    return LTSNewmarkSolver(op, dof_level, dt, mode=mode)


def _best_rate(solver, u0, v0, n_steps: int, rounds: int) -> float:
    """Best steady-state steps/sec over ``rounds`` fresh repetitions
    (2 warmup steps each, so lazily-built pooled buffers are excluded)."""
    best = np.inf
    for _ in range(rounds):
        u, v = u0.copy(), v0.copy()
        solver.t = 0.0
        for _ in range(2):
            u, v = solver.step(u, v)
        t0 = time.perf_counter()
        for _ in range(n_steps):
            u, v = solver.step(u, v)
        best = min(best, time.perf_counter() - t0)
    return n_steps / best


def _trajectory(solver, u0, v0, n_steps: int):
    u, v = u0.copy(), v0.copy()
    solver.t = 0.0
    states = []
    for _ in range(n_steps):
        u, v = solver.step(u, v)
        states.append((u.copy(), v.copy()))
    return states


def run(quick: bool = False, rounds: int = 3) -> dict:
    configs = QUICK_CONFIGS if quick else FULL_CONFIGS
    check_steps = 5
    rows = []
    t = Table(
        ["config", "n_dof", "levels", "pooled/s", "seed/s", "speedup",
         "maxrel", "allocs/step", "ws KiB"],
        title="hot path: pooled vs seed NumPy kernels (optimized LTS)",
    )
    for name, dim, shape, order, n_steps in configs:
        sem, a, dof_level, u0, v0 = _setup(dim, shape, order)
        pooled = _solver(sem, dof_level, a.dt, pooled=True)
        seed = _solver(sem, dof_level, a.dt, pooled=False)

        # Interleaved best-of-rounds: two passes each, alternating, so
        # slow drift (thermal, noisy neighbours) hits both sides alike.
        rate_p = rate_s = 0.0
        for _ in range(2):
            rate_p = max(rate_p, _best_rate(pooled, u0, v0, n_steps, rounds))
            rate_s = max(rate_s, _best_rate(seed, u0, v0, n_steps, rounds))

        # Run-to-run bitwise determinism: a fresh pooled solver must
        # retrace the first one exactly, at every step.
        traj_a = _trajectory(pooled, u0, v0, check_steps)
        traj_b = _trajectory(_solver(sem, dof_level, a.dt, pooled=True),
                             u0, v0, check_steps)
        for (ua, va), (ub, vb) in zip(traj_a, traj_b):
            assert np.array_equal(ua, ub) and np.array_equal(va, vb), (
                f"{name}: pooled path is not run-to-run deterministic")

        # Agreement with the literal reference recursion: <= 1e-12 max
        # relative error.
        reference = _solver(sem, dof_level, a.dt, pooled=True, mode="reference")
        u_p = traj_a[-1][0]
        u_r = _trajectory(reference, u0, v0, check_steps)[-1][0]
        maxrel = float(np.abs(u_p - u_r).max() / np.abs(u_r).max())
        assert maxrel <= 1e-12, f"{name}: optimized vs reference maxrel {maxrel:.2e}"

        # Allocation discipline on the pooled path.
        u, v = u0.copy(), v0.copy()
        pooled.t = 0.0
        state = [u, v]

        def _step():
            state[0], state[1] = pooled.step(state[0], state[1])

        stats = measure_hot_path(
            _step, n_steps=min(n_steps, 10), warmup=2,
            workspace=pooled.workspace_bytes(),
        )

        speedup = rate_p / rate_s
        row = {
            "config": name,
            "dim": dim,
            "order": order,
            "n_dof": int(sem.n_dof),
            "n_levels": int(a.n_levels),
            "steps_timed": int(n_steps),
            "pooled_steps_per_sec": float(rate_p),
            "seed_steps_per_sec": float(rate_s),
            "speedup": float(speedup),
            "maxrel_vs_reference": maxrel,
            "bitwise_deterministic": True,
            "allocs_per_step": float(stats.allocs_per_step),
            "alloc_peak_bytes_per_step": int(stats.alloc_peak_bytes_per_step),
            "workspace_bytes": int(stats.workspace_bytes),
        }
        rows.append(row)
        t.add_row([
            name, sem.n_dof, a.n_levels, f"{rate_p:.1f}", f"{rate_s:.1f}",
            f"{speedup:.2f}x", f"{maxrel:.1e}",
            f"{stats.allocs_per_step:.1f}",
            f"{stats.workspace_bytes / 1024:.0f}",
        ])

    print(t.render())
    payload = {
        "quick": bool(quick),
        "acceptance_speedup": 1.3,
        "rows": rows,
        **_cpu_info(),
    }
    print("BENCH " + json.dumps({"name": "hotpath", "quick": quick,
                                 "speedups": {r["config"]: round(r["speedup"], 3)
                                              for r in rows}}))
    for row in rows:
        if quick:
            # CI containers are noisy and the quick meshes are tiny;
            # correctness is checked at full strictness above, the
            # speedup only needs to not have regressed to a slowdown.
            assert row["speedup"] >= 0.9, row
        else:
            assert row["speedup"] >= 1.3, row
    if not quick:
        save_results("hotpath", payload)
    return payload


def test_hotpath():
    """Pytest entry point (quick mode — correctness + smoke timing)."""
    run(quick=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="seconds-long smoke run")
    args = ap.parse_args()
    run(quick=args.quick)
