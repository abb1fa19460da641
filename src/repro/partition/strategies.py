"""The paper's four partitioning strategies (Sec. III-B).

a) **SCOTCH** — single-constraint graph partitioning with scalar element
   weight ``p`` (work per LTS cycle).  Balances the cycle total but not
   the individual levels: the baseline whose per-substep stalls motivate
   everything else (Fig. 1, Fig. 6).

b) **SCOTCH-P** — partition each p-level separately into K parts with the
   single-constraint engine, then greedily couple one part per level to
   each rank, maximizing boundary connectivity between coupled parts so
   co-located levels share halos.  The paper's best performer.

c) **MeTiS** — multi-constraint graph partitioning (one constraint per
   level, Eq. (19)) with p-weighted edges as the communication proxy.

d) **PaToH** — multi-constraint *hypergraph* partitioning minimizing the
   exact λ−1 volume, with the ``final_imbal`` balance tolerance knob
   (paper uses 0.05 and 0.01).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.levels import LevelAssignment
from repro.mesh.mesh import Mesh
from repro.partition.graph import Graph, concat_ranges
from repro.partition.hmultilevel import multilevel_hypergraph_partition
from repro.partition.models import lts_dual_graph, lts_hypergraph
from repro.partition.multilevel import multilevel_graph_partition
from repro.util.errors import PartitionError
from repro.util.validation import require


def partition_scotch(
    mesh: Mesh, assignment: LevelAssignment, k: int, seed: int = 0, eps: float = 0.05
) -> np.ndarray:
    """Baseline: single weight per element (= ``p``), standard partition."""
    graph = lts_dual_graph(mesh, assignment, multi_constraint=False)
    return multilevel_graph_partition(graph, k, eps=eps, seed=seed)


def partition_metis_mc(
    mesh: Mesh, assignment: LevelAssignment, k: int, seed: int = 0, eps: float = 0.05
) -> np.ndarray:
    """Multi-constraint graph partition with p-weighted edges (MeTiS 5).

    No strict balance-repair phase: like the real MeTiS multi-constraint
    mode, balance is only maintained opportunistically during edge-cut
    refinement — which is exactly why the paper finds it "not able to
    maintain an optimal balance across levels" (Fig. 7).
    """
    graph = lts_dual_graph(mesh, assignment, multi_constraint=True)
    return multilevel_graph_partition(graph, k, eps=eps, seed=seed, enforce_balance=False)


def partition_patoh(
    mesh: Mesh,
    assignment: LevelAssignment,
    k: int,
    seed: int = 0,
    final_imbal: float = 0.05,
) -> np.ndarray:
    """Multi-constraint hypergraph partition (PaToH).

    ``final_imbal`` is the paper's trade-off parameter: 0.01 buys tighter
    per-level balance at the cost of extra communication volume.
    """
    h = lts_hypergraph(mesh, assignment)
    return multilevel_hypergraph_partition(h, k, eps=final_imbal, seed=seed)


# ----------------------------------------------------------------------
# SCOTCH-P
# ----------------------------------------------------------------------
def _level_subgraph(graph: Graph, elems: np.ndarray) -> Graph:
    sub, _ = graph.subgraph(elems)
    # Within one level all elements cost the same: unit scalar weights.
    return Graph(
        xadj=sub.xadj,
        adjncy=sub.adjncy,
        vweights=np.ones((sub.n_vertices, 1)),
        eweights=sub.eweights,
    )


def _interpart_connectivity(
    graph: Graph,
    elems_a: np.ndarray,
    parts_a: np.ndarray,
    k: int,
    rank_of_element: np.ndarray,
) -> np.ndarray:
    """``C[part, rank]``: dual-edge count between a level part and the
    elements already assembled on each rank."""
    pos, owner = concat_ranges(graph.xadj[elems_a], graph.xadj[elems_a + 1])
    rank = rank_of_element[graph.adjncy[pos]]
    placed = rank >= 0
    pair = parts_a[owner[placed]] * k + rank[placed]
    return np.bincount(pair, minlength=k * k).reshape(k, k).astype(np.float64)


def partition_scotch_p(
    mesh: Mesh, assignment: LevelAssignment, k: int, seed: int = 0, eps: float = 0.03
) -> np.ndarray:
    """SCOTCH-P: per-level partitioning + greedy cross-level coupling.

    Every populated level is partitioned into (up to) ``k`` balanced parts
    with the single-constraint engine; then, processing levels coarsest to
    finest, each level's parts are matched one-to-one to ranks by greedy
    maximum boundary connectivity with the partial assembly (the paper's
    "greedy coupling"; weighted-matching upgrades are future work there
    too).  Per-level balance holds by construction.
    """
    require(k >= 1, "k must be >= 1", PartitionError)
    graph = lts_dual_graph(mesh, assignment, multi_constraint=False)
    n = mesh.n_elements
    rank_of_element = -np.ones(n, dtype=np.int64)
    rng = np.random.default_rng(seed)

    populated = [
        lv for lv in range(1, assignment.n_levels + 1)
        if len(assignment.elements_of_level(lv)) > 0
    ]
    for lv in populated:
        elems = assignment.elements_of_level(lv)
        kk = min(k, len(elems))
        sub = _level_subgraph(graph, elems)
        sub_parts = multilevel_graph_partition(sub, kk, eps=eps, seed=seed + lv)
        if lv == populated[0]:
            # Coarsest level seeds the rank identity (pad with empty ranks
            # if the level has fewer parts than ranks).
            mapping = rng.permutation(k)[:kk]
        else:
            C = np.zeros((k, k))
            C[:kk, :] = _interpart_connectivity(graph, elems, sub_parts, k, rank_of_element)[:kk, :]
            mapping = _greedy_max_matching(C, kk, k, rng)
        rank_of_element[elems] = mapping[sub_parts]
    require(bool(np.all(rank_of_element >= 0)), "unassigned elements remain", PartitionError)
    return rank_of_element


def _greedy_max_matching(
    C: np.ndarray, n_parts: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedily couple level parts to ranks by descending connectivity.

    Returns ``mapping[part] = rank``.  Parts/ranks left over (zero
    connectivity) are paired arbitrarily but deterministically.
    """
    mapping = -np.ones(n_parts, dtype=np.int64)
    used_ranks = np.zeros(k, dtype=bool)
    order = np.dstack(np.unravel_index(np.argsort(-C[:n_parts], axis=None), (n_parts, k)))[0]
    for part, rank in order:
        if C[part, rank] <= 0:
            break
        if mapping[part] < 0 and not used_ranks[rank]:
            mapping[part] = rank
            used_ranks[rank] = True
    free_ranks = [r for r in range(k) if not used_ranks[r]]
    rng.shuffle(free_ranks)
    for part in range(n_parts):
        if mapping[part] < 0:
            mapping[part] = free_ranks.pop()
    return mapping


#: Registry used by benchmarks: name -> callable(mesh, assignment, k, seed).
PARTITIONERS: dict[str, Callable] = {
    "SCOTCH": partition_scotch,
    "SCOTCH-P": partition_scotch_p,
    "MeTiS": partition_metis_mc,
    "PaToH 0.05": lambda mesh, a, k, seed=0: partition_patoh(mesh, a, k, seed, final_imbal=0.05),
    "PaToH 0.01": lambda mesh, a, k, seed=0: partition_patoh(mesh, a, k, seed, final_imbal=0.01),
}


def partition_mesh(
    mesh: Mesh,
    assignment: LevelAssignment,
    k: int,
    method: str = "SCOTCH-P",
    seed: int = 0,
) -> np.ndarray:
    """Partition by registry name (see :data:`PARTITIONERS`)."""
    require(method in PARTITIONERS, f"unknown partitioner {method!r}", PartitionError)
    return PARTITIONERS[method](mesh, assignment, k, seed=seed)
