"""Partition quality metrics (paper Sec. IV-B).

* ``load_imbalance`` — Eq. (21): ``(max - min) / max * 100`` over
  per-partition loads, with load = sum of element costs ``p`` (work per
  LTS cycle);
* ``per_level_imbalance`` — the same per refinement level, which is the
  constraint LTS actually needs (Fig. 1's stalls come from per-level,
  not total, imbalance);
* ``graph_cut`` — weighted dual-graph edge cut (what MeTiS/SCOTCH-P
  optimize, an upper-bound proxy of communication);
* ``hypergraph_cutsize`` — λ−1 cutsize, Eq. (20);
* ``mpi_volume`` — exact per-cycle communication volume counted directly
  on the mesh; equals the hypergraph cutsize by construction (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import LevelAssignment
from repro.mesh.mesh import ElementIncidence, Mesh
from repro.partition.graph import Graph
from repro.partition.hypergraph import Hypergraph
from repro.util.errors import PartitionError
from repro.util.validation import require


def _check_parts(parts: np.ndarray, n: int, k: int) -> np.ndarray:
    parts = np.asarray(parts, dtype=np.int64)
    require(parts.shape == (n,), f"parts must be ({n},), got {parts.shape}", PartitionError)
    require(
        len(parts) == 0 or (parts.min() >= 0 and parts.max() < k),
        f"part ids must lie in [0, {k})",
        PartitionError,
    )
    return parts


# ----------------------------------------------------------------------
# Load balance
# ----------------------------------------------------------------------
def part_loads(
    assignment: LevelAssignment, parts: np.ndarray, k: int
) -> np.ndarray:
    """Per-part load: sum of element work ``p_e`` (Eq. (21)'s "load")."""
    parts = _check_parts(parts, len(assignment.level), k)
    p = assignment.p_per_element.astype(np.float64)
    return np.bincount(parts, weights=p, minlength=k)


def load_imbalance(loads: np.ndarray) -> float:
    """Eq. (21): ``(max load - min load) / max load * 100`` (percent)."""
    loads = np.asarray(loads, dtype=np.float64)
    mx = loads.max()
    if mx <= 0:
        return 0.0
    return float((mx - loads.min()) / mx * 100.0)


def per_level_imbalance(
    assignment: LevelAssignment, parts: np.ndarray, k: int
) -> np.ndarray:
    """Imbalance (Eq. (21)) of the element count of each level separately.

    Levels with fewer elements than parts are skipped in the "worst level"
    headline by callers if desired; here every populated level gets a
    number (an empty-part level reads 100%).
    """
    parts = _check_parts(parts, len(assignment.level), k)
    out = np.zeros(assignment.n_levels)
    for lv in range(1, assignment.n_levels + 1):
        sel = assignment.level == lv
        if not np.any(sel):
            continue
        counts = np.bincount(parts[sel], minlength=k).astype(np.float64)
        out[lv - 1] = load_imbalance(counts)
    return out


# ----------------------------------------------------------------------
# Communication
# ----------------------------------------------------------------------
def graph_cut(graph: Graph, parts: np.ndarray, k: int | None = None) -> float:
    """Weighted edge cut of the dual graph."""
    kk = int(parts.max()) + 1 if k is None else k
    parts = _check_parts(parts, graph.n_vertices, kk)
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.xadj))
    cut_mask = parts[src] != parts[graph.adjncy]
    return float(graph.eweights[cut_mask].sum() / 2.0)


def hypergraph_cutsize(h: Hypergraph, parts: np.ndarray, k: int | None = None) -> float:
    """λ−1 cutsize (Eq. (20)): ``sum_h c[h] * (lambda_h - 1)``."""
    kk = int(parts.max()) + 1 if k is None else k
    parts = _check_parts(parts, h.n_vertices, kk)
    net_of_pin = np.repeat(np.arange(h.n_nets, dtype=np.int64), np.diff(h.xpins))
    # lambda_h = number of distinct (net, part) pairs of net h.
    lam = np.bincount(np.unique(net_of_pin * kk + parts[h.pins]) // kk, minlength=h.n_nets)
    # A running total in net order: the same float sum for any net costs.
    return float(np.cumsum(np.r_[0.0, h.costs * np.maximum(lam - 1, 0)])[-1])


def _node_parts(inc: ElementIncidence, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(node of each incidence, present)`` with ``present[n, r]`` true
    when mesh corner node ``n`` touches an element of part ``r``."""
    node = np.repeat(np.arange(inc.n_nodes, dtype=np.int64), np.diff(inc.xadj))
    present = np.zeros((inc.n_nodes, int(parts.max()) + 1), dtype=bool)
    present[node, parts[inc.elems]] = True
    return node, present


def mpi_volume(
    mesh: Mesh, assignment: LevelAssignment, parts: np.ndarray, k: int | None = None
) -> float:
    """Exact per-cycle MPI volume, counted directly on the mesh.

    For every mesh corner node ``n`` spread over ``lambda_n`` parts, each
    touching element ``e`` sends its contribution ``p_e`` times per cycle
    to the ``lambda_n - 1`` other parts (Sec. III-A-2).  Equals
    ``hypergraph_cutsize(lts_hypergraph(mesh, assignment), parts)``;
    implemented independently (node x part table on the mesh) as a
    cross-check.
    """
    kk = int(np.asarray(parts).max()) + 1 if k is None else k
    parts = _check_parts(parts, mesh.n_elements, kk)
    inc = mesh.node_incidence()
    node, present = _node_parts(inc, parts)
    p = assignment.p_per_element.astype(np.float64)
    sent = np.bincount(node, weights=p[inc.elems], minlength=len(present))
    return float(sent @ np.maximum(present.sum(axis=1) - 1, 0))


def per_level_halo_nodes(
    mesh: Mesh, assignment: LevelAssignment, parts: np.ndarray, k: int
) -> np.ndarray:
    """Per-level boundary exchange size, ``(k, n_levels)``.

    Entry ``[r, lv-1]`` counts (node, remote-part) pairs rank ``r`` must
    exchange at each step of level ``lv``: corner nodes whose finest
    touching element is level ``lv`` and that are shared with other
    parts.  This is the physical per-substep halo the runtime simulator
    charges (beta term), as opposed to the paper's per-cycle aggregate
    volume in :func:`mpi_volume`.
    """
    parts = _check_parts(parts, mesh.n_elements, k)
    inc = mesh.node_incidence()
    node, present = _node_parts(inc, parts)
    lam = present.sum(axis=1)
    finest = np.zeros(len(present), dtype=np.int64)
    np.maximum.at(finest, node, assignment.level[inc.elems])
    shared, r = np.nonzero(present & (lam > 1)[:, None])
    L = assignment.n_levels
    return np.bincount(
        r * L + finest[shared] - 1, weights=lam[shared] - 1, minlength=k * L
    ).reshape(k, L)


def message_count(mesh: Mesh, parts: np.ndarray, k: int) -> int:
    """Number of directed neighbour pairs (ranks sharing any mesh node)."""
    parts = _check_parts(parts, mesh.n_elements, k)
    present = _node_parts(mesh.node_incidence(), parts)[1].astype(np.int64)
    shares = present.T @ present
    return int(np.count_nonzero(shares) - np.count_nonzero(shares.diagonal()))


# ----------------------------------------------------------------------
# Aggregate report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionReport:
    """Everything Figs. 7-8 tabulate, for one partitioner run."""

    k: int
    total_imbalance: float
    level_imbalance: tuple[float, ...]
    worst_level_imbalance: float
    graph_cut: float
    mpi_volume: float
    n_empty_parts: int

    def row(self, name: str) -> list:
        from repro.util.tables import format_si

        return [
            name,
            self.k,
            f"{self.total_imbalance:.0f}%",
            f"{self.worst_level_imbalance:.0f}%",
            format_si(self.graph_cut),
            format_si(self.mpi_volume),
        ]


def partition_report(
    mesh: Mesh,
    assignment: LevelAssignment,
    parts: np.ndarray,
    k: int,
    graph: Graph | None = None,
) -> PartitionReport:
    """Compute the full quality report for a partition vector."""
    from repro.partition.models import lts_dual_graph

    if graph is None:
        graph = lts_dual_graph(mesh, assignment, multi_constraint=False)
    loads = part_loads(assignment, parts, k)
    lvl = per_level_imbalance(assignment, parts, k)
    populated = [
        lvl[i]
        for i in range(assignment.n_levels)
        if np.count_nonzero(assignment.level == i + 1) >= k
    ]
    worst = max(populated) if populated else float(lvl.max())
    return PartitionReport(
        k=k,
        total_imbalance=load_imbalance(loads),
        level_imbalance=tuple(float(x) for x in lvl),
        worst_level_imbalance=float(worst),
        graph_cut=graph_cut(graph, parts, k),
        mpi_volume=mpi_volume(mesh, assignment, parts, k),
        n_empty_parts=int(np.sum(np.bincount(parts, minlength=k) == 0)),
    )
