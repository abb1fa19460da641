"""Ensemble throughput: shared stage cache vs naive per-config resolution.

The paper's setup pipeline (mesh construction, assembler setup,
level assignment) is the amortized cost its per-step economics assume —
but a parameter sweep that re-resolves it per member pays it N times.
This bench runs the canonical ensemble workload — a 16-member source
sweep over one model — three ways:

* ``naive`` — ``Simulation(cfg).run()`` per member, no sharing (what a
  bash loop over ``python -m repro run`` does);
* ``cached`` — :func:`repro.api.run_ensemble` with a shared
  :class:`repro.api.StageCache`, one worker thread (isolates the
  cache win from parallelism);
* ``cached+threads`` — the same, on ``--jobs`` worker threads.

It also replays the sweep against a pre-warmed on-disk cache and
asserts the warm members are **bitwise equal** to the cold ones — the
correctness contract that makes the speedup trustworthy.  Results
(member counts, wall times, speedups, cache-hit provenance, the bitwise
verdict) go to ``benchmarks/results/ensemble.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_ensemble.py [--quick] [--jobs N]

``--quick`` shrinks the model to a seconds-long smoke run (used by CI;
never overwrites the recorded full run).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import save_results  # noqa: E402

from repro.api import (  # noqa: E402
    EnsembleSpec,
    Simulation,
    StageCache,
    run_ensemble,
)
from repro.util import Table  # noqa: E402

N_MEMBERS = 16


def sweep_spec(quick: bool) -> EnsembleSpec:
    """A 16-member source sweep on one 2D model on the matrix-free
    backend (fused wherever it loads): the shared stages are the mesh,
    the assembler, the levels and the solver plan."""
    shape, order, n_cycles = ((12, 12), 4, 2) if quick else ((28, 28), 6, 4)
    nx = shape[0]
    base = {
        "name": "bench",
        "mesh": {"family": "uniform_grid", "params": {"shape": list(shape)}},
        "material": {
            "model": "acoustic",
            "regions": [
                {"box": [[0, nx / 4], [0, nx / 4]], "values": {"c": 4.0}}
            ],
        },
        "order": order,
        "time": {"n_cycles": n_cycles, "c_cfl": 0.35},
        "source": {"position": [1.0, 1.0], "f0": 0.8},
        "receivers": {"positions": [[nx - 1.0, nx / 2]]},
        "backend": {"stiffness": "matfree"},
    }
    positions = [
        [1.0 + (i % 4) * nx / 8, 1.0 + (i // 4) * nx / 8]
        for i in range(N_MEMBERS)
    ]
    return EnsembleSpec.from_dict(
        {
            "name": "src-sweep",
            "base": base,
            "mode": "zip",
            "sweeps": [{"path": "source.position", "values": positions}],
        }
    )


def run_naive(configs) -> tuple[float, list[np.ndarray]]:
    t0 = time.perf_counter()
    fields = [Simulation(cfg).run().u for cfg in configs]
    return time.perf_counter() - t0, fields


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="seconds-long smoke run")
    ap.add_argument("--jobs", type=int, default=4, metavar="N",
                    help="worker width for the threaded row (default 4)")
    args = ap.parse_args(argv)

    spec = sweep_spec(args.quick)
    configs = spec.expand()
    sim0 = Simulation(configs[0])
    print(
        f"ensemble bench: {len(configs)} members, "
        f"{sim0.mesh.n_elements} elements, order {configs[0].order}, "
        f"{sim0.assembler.n_dof} DOFs, backend=matfree"
        + (" [quick]" if args.quick else "")
    )

    naive_seconds, naive_fields = run_naive(configs)

    cached = run_ensemble(spec, jobs=1)
    # Members share the in-memory cache under concurrency.
    threaded = run_ensemble(spec, jobs=args.jobs)

    # Cold-vs-warm bitwise contract, through the on-disk layer: a second
    # process (here: a fresh cache) replays the sweep from the persisted
    # artifacts and must reproduce every member exactly.
    with tempfile.TemporaryDirectory() as td:
        # cold (writes disk), then warm (reads disk)
        run_ensemble(spec, jobs=1, cache=StageCache(cache_dir=td))
        warm = run_ensemble(spec, jobs=1, cache=StageCache(cache_dir=td))
        disk_hits = warm.summary["cache"]["disk_hits"]
    bitwise_naive_vs_cached = all(
        np.array_equal(f, m.u) for f, m in zip(naive_fields, cached.members)
    )
    bitwise_cold_vs_warm = all(
        np.array_equal(a.u, b.u) for a, b in zip(cached.members, warm.members)
    )

    rows = [
        ("naive", naive_seconds, 1.0, None),
        ("cached", cached.summary["total_seconds"],
         naive_seconds / cached.summary["total_seconds"], cached.summary),
        (f"cached+threads({args.jobs})", threaded.summary["total_seconds"],
         naive_seconds / threaded.summary["total_seconds"], threaded.summary),
    ]
    table = Table(
        ["variant", "seconds", "speedup", "members/s", "cache hits/misses"]
    )
    for label, seconds, speedup, summary in rows:
        table.add_row(
            [
                label,
                f"{seconds:.2f}",
                f"{speedup:.2f}x",
                f"{len(configs) / seconds:.2f}",
                "-" if summary is None
                else f"{summary['cache_hits']}/{summary['cache_misses']}",
            ]
        )
    print(table.render())
    print(
        f"bitwise: naive == cached: {bitwise_naive_vs_cached}, "
        f"cold == warm(disk, {disk_hits} disk hits): {bitwise_cold_vs_warm}"
    )

    payload = {
        "quick": args.quick,
        "n_members": len(configs),
        "n_elements": int(sim0.mesh.n_elements),
        "n_dof": int(sim0.assembler.n_dof),
        "order": int(configs[0].order),
        "jobs": args.jobs,
        "naive_seconds": naive_seconds,
        "cached_seconds": cached.summary["total_seconds"],
        "threaded_seconds": threaded.summary["total_seconds"],
        "cached_speedup": naive_seconds / cached.summary["total_seconds"],
        "threaded_speedup": naive_seconds / threaded.summary["total_seconds"],
        "cached_summary": cached.summary,
        "threaded_summary": threaded.summary,
        "disk_hits_on_warm_replay": int(disk_hits),
        "bitwise_naive_vs_cached": bool(bitwise_naive_vs_cached),
        "bitwise_cold_vs_warm": bool(bitwise_cold_vs_warm),
    }
    print("BENCH " + json.dumps(
        {k: payload[k] for k in
         ("n_members", "naive_seconds", "cached_seconds", "threaded_seconds",
          "cached_speedup", "threaded_speedup",
          "bitwise_naive_vs_cached", "bitwise_cold_vs_warm")},
        default=float,
    ))
    if not args.quick:
        save_results("ensemble", payload)
        print("saved benchmarks/results/ensemble.json")
    if not (bitwise_naive_vs_cached and bitwise_cold_vs_warm):
        print("FAIL: cached results are not bitwise-equal", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
