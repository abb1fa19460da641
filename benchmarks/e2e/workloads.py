"""The five workloads: what each one is, why it exists, and how its
configs are generated from ``--seed``.

The seed picks source and receiver positions (always inside the coarse
region, where the solvers' frozen-force treatment is second-order
consistent), the partition seed and the order of the service jobs.  The
program under test sees only the generated config dicts; timing must
not depend on where the source sits, which the second-seed acceptance
run checks.

Cycle counts, block sizes and repeat counts are constants here — never
calibrated at run time — so two runs of one commit do the same work in
every phase except the steady-state window, whose length is the
driver's ``--seconds``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "solver" | "service"
    tier: str  # kernel tier the configs must resolve to
    run_cycles: int  # LTS cycles of one cold ``repro.api.run`` (run_s)
    job_cycles: int  # LTS cycles of one job (job_* metrics)
    lts_block: int  # LTS cycles per steady-state block
    nm_block: int  # Newmark cycle-equivalents per steady-state block
    warmup_cycles: int = 24  # clears the Ricker onset transient
    setup_reps: int = 6  # fresh builds; setup_s is their median
    run_reps: int = 4  # cold runs; run_s is their median
    warm_jobs: int = 8  # solver workloads: in-process jobs on a warm cache
    cold_jobs: int = 0  # service_sweep only: jobs with a new mesh shape
    # Cycles of the tier / rank / scheme cross-checks.  Not fewer: LTS
    # freezes the source over a coarse cycle, so in the first cycles of
    # the Ricker onset it is 4-8e-2 away from Newmark; by cycle 8, 1e-2.
    oracle_cycles: int = 8
    discard_first_build: bool = True  # pays first-touch imports, allocator growth

    def quick(self) -> "Workload":
        """The same workload with the fewest repeats that still emit
        every metric (``--quick``, for the harness test)."""
        return replace(
            self,
            run_cycles=max(4, self.run_cycles // 5),
            job_cycles=max(3, self.job_cycles // 4),
            lts_block=max(2, self.lts_block // 2),
            nm_block=max(1, self.nm_block // 2),
            warmup_cycles=4,
            setup_reps=1,
            run_reps=2,
            warm_jobs=1,
            cold_jobs=min(self.cold_jobs, 2),
            discard_first_build=False,
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="trench_fused",
        why="Sec. II-C case: 4-level trench, fused C tier, serial; one kernel "
        "layer used as few big applies (Newmark) and many tiny ones (LTS)",
        kind="solver", tier="fused",
        run_cycles=24, job_cycles=6, lts_block=8, nm_block=4,
    ),
    Workload(
        name="trench_numpy",
        why="same mesh with fused off: sem.matfree does the work and the C "
        "kernels none, so a fused-only change must not move it",
        kind="solver", tier="numpy",
        run_cycles=12, job_cycles=6, lts_block=8, nm_block=2,
    ),
    Workload(
        name="trench_ranks4",
        why="same config on 4 SCOTCH-P ranks: partition, halo, executor and "
        "mailbox carry the increment over trench_fused (Fig. 7/8 quantities)",
        kind="solver", tier="fused",
        run_cycles=8, job_cycles=4, lts_block=6, nm_block=3,
        setup_reps=4, warm_jobs=4,
    ),
    Workload(
        name="crust_elastic",
        why="2-level crust, 3-component elastic kernel, kernel-dominated "
        "cycle: deep-hierarchy optimisations must predict no change here",
        kind="solver", tier="fused",
        run_cycles=12, job_cycles=6, lts_block=8, nm_block=4,
    ),
    Workload(
        name="service_sweep",
        why="repro serve driven closed-loop by 2 clients, cold then warm "
        "cache: service, api.cache and facade overhead dominate, kernels do little",
        kind="service", tier="fused",
        run_cycles=30, job_cycles=30, lts_block=16, nm_block=8,
        setup_reps=3, run_reps=6, cold_jobs=12,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Service sweep shape: closed loop, one thread and one connection per client.
N_CLIENTS = 2
N_WORKERS = 2
N_WARM_POSITIONS = 16
POLL_SECONDS = 0.005


# ----------------------------------------------------------------------
# Config generation
# ----------------------------------------------------------------------
def _point(rng: random.Random, box) -> list[float]:
    return [round(rng.uniform(lo, hi), 3) for lo, hi in box]


def _backend(fused: bool) -> dict:
    # threads: 1 — one core does the stepping; the second core belongs
    # to the other service worker / client, never to a kernel.
    return {"stiffness": "matfree", "fused": fused, "threads": 1}


def _trench(rng: random.Random, w: Workload, fused: bool, ranks: int) -> dict:
    # trench_mesh(24, 20, 10): the refined strip runs along x at
    # (y=10, z=0) out to radius 3.6; z in [5, 9] is coarse everywhere.
    coarse = ((3.0, 21.0), (2.0, 18.0), (5.0, 9.0))
    return {
        "name": w.name,
        "mesh": {
            "family": "trench",
            "params": {"nx": 24, "ny": 20, "nz": 10, "band_radii": [0.8, 1.8, 3.6]},
        },
        "material": {"model": "acoustic"},
        "order": 4,
        "time": {"n_cycles": w.run_cycles, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": _point(rng, coarse), "f0": 0.5},
        "receivers": {"positions": [_point(rng, coarse) for _ in range(3)]},
        "partition": {
            "n_ranks": ranks,
            "strategy": "SCOTCH-P",
            "seed": rng.randrange(1 << 16),
        },
        "backend": _backend(fused),
    }


def _crust(rng: random.Random, w: Workload) -> dict:
    # crust_mesh(14, 14, 20): the top element layer (z < 1) is fine.
    coarse = ((2.0, 12.0), (2.0, 12.0), (5.0, 18.0))
    return {
        "name": w.name,
        "mesh": {"family": "crust", "params": {"nx": 14, "ny": 14, "nz": 20}},
        "material": {"model": "elastic", "lam": 1.0, "mu": 1.0, "rho": 1.0},
        "order": 4,
        "time": {"n_cycles": w.run_cycles, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": _point(rng, coarse), "f0": 0.3, "component": 2},
        "receivers": {
            "positions": [_point(rng, coarse) for _ in range(3)],
            "component": 2,
        },
        "partition": {"n_ranks": 1},
        "backend": _backend(True),
    }


def _grid_job(name: str, shape, inclusion, source, n_cycles: int) -> dict:
    """A small 2D acoustic LTS job: a uniform grid whose fast inclusion
    (c = 2 around c = 4) makes three LTS levels."""
    (x0, x1), (y0, y1) = inclusion
    return {
        "name": name,
        "mesh": {"family": "uniform_grid", "params": {"shape": list(shape)}},
        "material": {
            "model": "acoustic",
            "c": 1.0,
            "regions": [
                {"box": [[x0, x1], [y0, y1]], "values": {"c": 2.0}},
                {"box": [[x0 + 2, x1 - 2], [y0 + 2, y1 - 2]], "values": {"c": 4.0}},
            ],
        },
        "order": 4,
        "time": {"n_cycles": n_cycles, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": list(source), "f0": 0.3},
        "receivers": {
            "positions": [
                [source[0] + 1.0, source[1] + 1.5],
                [source[0] - 1.5, source[1] + 2.0],
            ]
        },
        "partition": {"n_ranks": 1},
        "backend": _backend(True),
    }


def _service(rng: random.Random, w: Workload) -> dict:
    # Warm jobs: one 48x48 model, the source cycling over 16 coarse
    # positions, so mesh/assembler/levels are shared and only the force
    # differs.  Cold jobs: a mesh shape the cache has never seen.
    warm = []
    x_off, y_off = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    for i in range(N_WARM_POSITIONS):
        src = (round(4.0 + x_off + (i % 4) * 3.0, 3), round(4.0 + y_off + (i // 4) * 3.0, 3))
        warm.append(_grid_job(f"warm-{i:02d}", (48, 48), ((20, 28), (20, 28)), src, w.job_cycles))
    # (48, 48) itself is left out: close in size, so a cold job costs a
    # warm one plus the stage resolution.
    shapes = rng.sample([(nx, ny) for nx in range(44, 54) for ny in range(42, 48)], w.cold_jobs)
    cold = [
        _grid_job(
            f"cold-{i:02d}", shape, ((20, 28), (20, 28)),
            (round(rng.uniform(4.0, 15.0), 3), round(rng.uniform(4.0, 15.0), 3)),
            w.job_cycles,
        )
        for i, shape in enumerate(shapes)
    ]
    # Each client walks the 16 positions from its own random start.
    starts = [rng.randrange(N_WARM_POSITIONS) for _ in range(N_CLIENTS)]
    return {"solver": warm[0], "warm": warm, "cold": cold, "client_starts": starts}


def generate(w: Workload, seed: int) -> dict:
    """Everything ``w`` needs, as plain JSON-ready dicts.  ``"solver"``
    is the config the solver-side measurements run on (for
    ``service_sweep``: the warm job's)."""
    rng = random.Random(f"{w.name}:{seed}")
    if w.kind == "service":
        return _service(rng, w)
    if w.name == "crust_elastic":
        cfg = _crust(rng, w)
    else:
        cfg = _trench(rng, w, fused=w.tier == "fused", ranks=4 if w.name == "trench_ranks4" else 1)
    # Jobs: the same model with the source moved, as an ensemble or a
    # service sweep would submit it; the first meets an empty cache.
    box = ((2.0, 12.0), (2.0, 12.0), (5.0, 18.0)) if w.name == "crust_elastic" else (
        (3.0, 21.0), (2.0, 18.0), (5.0, 9.0))
    jobs = []
    for i in range(2 + w.warm_jobs):  # two rounds, each with one cold job first
        job = copy.deepcopy(cfg)
        job["name"] = f"{w.name}-job-{i}"
        job["time"]["n_cycles"] = w.job_cycles
        job["source"]["position"] = _point(rng, box)
        jobs.append(job)
    return {"solver": cfg, "jobs": jobs}
