"""Shared benchmark infrastructure: bench-scale meshes, machines, reporting.

Scale mapping: the paper partitions 1.2M-26M-element meshes on
128-8192 cores; we partition topology-faithful meshes 25-500x smaller with
band radii re-tuned so each family keeps its Fig.-5 theoretical speedup,
and simulate rank counts 8x smaller (so the *strong-scaling span* — 8x —
and the per-rank work regime match the paper).  The machine model absorbs
the remaining factor via :func:`repro.runtime.perfmodel.scaled`.

Every bench prints a paper-vs-measured table and appends its rows to
``benchmarks/results/<name>.json``, the record of actual runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core import assign_levels
from repro.mesh import crust_mesh, embedding_mesh, trench_big_mesh, trench_mesh
from repro.runtime.perfmodel import CPU_NODE, GPU_NODE, scaled

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Paper-scale element counts (Fig. 5), used for the machine scale factor.
PAPER_ELEMENTS = {
    "trench": 2.5e6,
    "trench_big": 26e6,
    "embedding": 1.2e6,
    "crust": 2.9e6,
}

#: Paper node counts for each scaling figure (ours are 8x smaller with the
#: same 8x span; see module docstring).
PAPER_NODES = [16, 32, 64, 128]
OUR_CPU_RANKS = [16, 32, 64, 128]  # = "nodes x 8 cores" at 1/8 node count
OUR_GPU_RANKS = [2, 4, 8, 16]  # 1 rank per GPU node


def bench_trench():
    """Bench-scale trench: 4800 elements, ~6.6x theoretical (paper 6.7)."""
    return trench_mesh(nx=24, ny=20, nz=10, band_radii=(0.8, 1.8, 3.6))


def bench_embedding():
    """Bench-scale embedding: 5832 elements, ~7.7x (paper 7.9)."""
    return embedding_mesh(nx=18, ny=18, nz=18, band_radii=(0.9, 1.8, 3.4))


def bench_crust():
    """Bench-scale crust: 3920 elements, 1.9x (paper 1.9)."""
    return crust_mesh(nx=14, ny=14, nz=20)


def bench_trench_big():
    """Bench-scale trench-big: 36864 elements, ~20.7x (paper 21.7)."""
    return trench_big_mesh(nx=32, ny=48, nz=24)


BENCH_MESHES = {
    "trench": bench_trench,
    "embedding": bench_embedding,
    "crust": bench_crust,
    "trench_big": bench_trench_big,
}


def mesh_and_levels(family: str):
    mesh = BENCH_MESHES[family]()
    return mesh, assign_levels(mesh)


def cpu_machine(family: str, mesh):
    """Scale-mapped CPU node model for a bench mesh (see module docs)."""
    factor = (PAPER_ELEMENTS[family] / (8 * PAPER_NODES[0])) / (
        mesh.n_elements / OUR_CPU_RANKS[0]
    )
    return scaled(CPU_NODE, factor)


def gpu_machine(family: str, mesh):
    factor = (PAPER_ELEMENTS[family] / PAPER_NODES[0]) / (
        mesh.n_elements / OUR_GPU_RANKS[0]
    )
    return scaled(GPU_NODE, factor)


def save_results(name: str, payload) -> None:
    """Persist bench output under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=float)


def seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))
