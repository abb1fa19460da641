"""Initial partitioning on the coarsest graph: greedy growing + bisection.

Greedy graph growing (as in SCOTCH/MeTiS): BFS-grow one side from a
pseudo-peripheral seed, always absorbing the frontier vertex with the
strongest connection to the grown region, until the side reaches its
target share; refine the resulting bisection; recurse for K-way.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.graph import Graph
from repro.partition.refine import kway_refine, repair_balance
from repro.util.errors import PartitionError
from repro.util.validation import require


def pseudo_peripheral_vertex(graph: Graph, rng: np.random.Generator) -> int:
    """Approximate graph-diameter endpoint via two BFS sweeps."""
    n = graph.n_vertices
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    start = int(rng.integers(n))
    for _ in range(2):
        seen = [False] * n
        seen[start] = True
        queue = [start]
        for u in queue:
            for v in adjncy[xadj[u] : xadj[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        start = queue[-1]
    return start


def grow_bisection(
    graph: Graph,
    target_frac: float,
    rng: np.random.Generator,
    tries: int = 4,
) -> np.ndarray:
    """Bisect by greedy growing; returns 0/1 side per vertex.

    The scalar growth criterion sums the normalized constraint weights, so
    a multi-constraint instance grows toward balance in aggregate; the
    per-constraint bounds are enforced afterwards by refinement/repair.
    """
    require(0.0 < target_frac < 1.0, "target_frac must be in (0,1)", PartitionError)
    n = graph.n_vertices
    total = graph.total_weight()
    norm = np.where(total > 0, total, 1.0)
    scalar_w = (graph.vweights / norm).sum(axis=1)
    target = float(scalar_w.sum()) * target_frac
    scalar_w = scalar_w.tolist()
    xadj, adjncy, ew = graph.xadj.tolist(), graph.adjncy.tolist(), graph.eweights.tolist()

    from repro.partition.metrics import graph_cut

    best_side: np.ndarray | None = None
    best_cut = np.inf
    for t in range(max(1, tries)):
        seed = pseudo_peripheral_vertex(graph, rng) if t % 2 == 0 else int(rng.integers(n))
        grown_side = [1] * n
        grown_side[seed] = 0
        grown = scalar_w[seed]
        heap: list[tuple[float, int, int]] = []
        counter = 0
        for u in adjncy[xadj[seed] : xadj[seed + 1]]:
            heapq.heappush(heap, (-1.0, counter, u))
            counter += 1
        while grown < target and heap:
            _, _, v = heapq.heappop(heap)
            if grown_side[v] == 0:
                continue
            grown_side[v] = 0
            grown += scalar_w[v]
            for idx in range(xadj[v], xadj[v + 1]):
                u = adjncy[idx]
                if grown_side[u] == 1:
                    heapq.heappush(heap, (-ew[idx], counter, u))
                    counter += 1
        side = np.array(grown_side, dtype=np.int64)
        if len(np.unique(side)) < 2:
            # Degenerate (tiny graphs): force a split.
            side[:] = 1
            side[: max(1, int(round(n * target_frac)))] = 0
        cut = graph_cut(graph, side, 2)
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return best_side


def recursive_bisection(
    graph: Graph,
    k: int,
    eps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """K-way partition by recursive bisection with per-split refinement."""
    require(k >= 1, "k must be >= 1", PartitionError)
    n = graph.n_vertices
    parts = np.zeros(n, dtype=np.int64)
    if k == 1:
        return parts
    require(k <= n, f"cannot split {n} vertices into {k} parts", PartitionError)

    def split(g: Graph, ids: np.ndarray, kk: int, base: int) -> None:
        if kk == 1:
            parts[ids] = base
            return
        k0 = kk // 2
        frac = k0 / kk
        side = grow_bisection(g, frac, rng)
        side = kway_refine(
            g, side, 2, eps=eps, rng=rng, target_fracs=np.array([frac, 1.0 - frac])
        )
        side = repair_balance(
            g, side, 2, eps=max(eps, 0.02), rng=rng,
            target_fracs=np.array([frac, 1.0 - frac]),
        )
        idx0 = np.nonzero(side == 0)[0]
        idx1 = np.nonzero(side == 1)[0]
        # Guarantee each side can host its share of parts.
        while len(idx0) < k0:
            idx0 = np.append(idx0, idx1[-1])
            idx1 = idx1[:-1]
        while len(idx1) < kk - k0:
            idx1 = np.append(idx1, idx0[-1])
            idx0 = idx0[:-1]
        g0, _ = g.subgraph(idx0)
        g1, _ = g.subgraph(idx1)
        split(g0, ids[idx0], k0, base)
        split(g1, ids[idx1], kk - k0, base + k0)

    split(graph, np.arange(n, dtype=np.int64), k, 0)
    return parts
