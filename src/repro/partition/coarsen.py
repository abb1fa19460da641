"""Graph coarsening by heavy-edge matching.

The standard multilevel first phase (SCOTCH, MeTiS and PaToH all use a
variant): repeatedly collapse a maximal matching that prefers heavy edges,
so the coarse graph preserves most of the cut structure while shrinking
geometrically.  Vertex weight vectors add under contraction, keeping the
multi-constraint balance problem (Eq. (19)) well-defined at every level.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph, graph_from_edge_arrays, merge_edges
from repro.partition.refine import fits
from repro.util.errors import PartitionError
from repro.util.validation import require


def heavy_edge_matching(
    graph: Graph,
    rng: np.random.Generator,
    weight_cap: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Match each vertex with its heaviest unmatched neighbour.

    Parameters
    ----------
    weight_cap:
        Optional per-constraint cap on merged vertex weights; matches that
        would exceed it are skipped so no coarse vertex grows so large it
        cannot be balanced later.

    Returns
    -------
    (match, n_coarse):
        ``match[v]`` is the coarse vertex id of ``v``.
    """
    n = graph.n_vertices
    match = [-1] * n
    order = rng.permutation(n)
    cid = 0
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    ew, vw = graph.eweights.tolist(), graph.vweights.tolist()
    cap = None if weight_cap is None else np.broadcast_to(weight_cap, len(vw[0])).tolist()
    for v in order.tolist():
        if match[v] >= 0:
            continue
        best = -1
        best_w = -np.inf
        wv = vw[v]
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] >= 0 or u == v or ew[idx] <= best_w:
                continue
            if cap is None or fits(wv, vw[u], cap):
                best_w = ew[idx]
                best = u
        match[v] = cid
        if best >= 0:
            match[best] = cid
        cid += 1
    return np.array(match, dtype=np.int64), cid


def contract(graph: Graph, match: np.ndarray, n_coarse: int) -> Graph:
    """Build the coarse graph induced by a matching.

    Parallel edges merge by weight addition; self-loops (intra-pair
    edges) vanish — exactly the invariant that keeps the coarse cut equal
    to the fine cut for any partition refined from it (tested).  Coarse
    edges are numbered, and their weights summed, in the order the fine
    adjacency first visits them.
    """
    require(n_coarse >= 1, "contraction must keep at least one vertex", PartitionError)
    vweights = np.zeros((n_coarse, graph.n_constraints))
    np.add.at(vweights, match, graph.vweights)

    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.xadj))
    cv, cu = match[src], match[graph.adjncy]
    cross = cv != cu
    a, b, w = merge_edges(n_coarse, cv[cross], cu[cross], graph.eweights[cross])
    # Each undirected fine edge was visited twice -> halve.
    return graph_from_edge_arrays(n_coarse, a, b, w / 2.0, vweights)


def coarsen_to_size(
    graph: Graph,
    target: int,
    rng: np.random.Generator,
    min_shrink: float = 0.92,
    max_levels: int = 40,
) -> tuple[list[Graph], list[np.ndarray]]:
    """Coarsen until ``target`` vertices or stagnation.

    Returns the graph hierarchy (finest first) and the matchings linking
    consecutive levels (``matches[i]`` maps ``graphs[i]`` -> ``graphs[i+1]``).
    """
    require(target >= 1, "target must be >= 1", PartitionError)
    graphs = [graph]
    matches: list[np.ndarray] = []
    total = graph.total_weight()
    for _ in range(max_levels):
        g = graphs[-1]
        if g.n_vertices <= target:
            break
        # Cap merged weights so coarse vertices stay balanceable: a single
        # coarse vertex should not exceed ~a part's worth of any constraint.
        cap = np.maximum(total / max(target, 1) * 1.5, g.vweights.max(axis=0))
        match, nc = heavy_edge_matching(g, rng, weight_cap=cap)
        if nc >= g.n_vertices * min_shrink:
            break
        graphs.append(contract(g, match, nc))
        matches.append(match)
    return graphs, matches
