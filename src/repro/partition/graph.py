"""Weighted undirected graph in CSR form, with multi-constraint weights.

The partitioning input of Sec. III-A-1: vertices are mesh elements with a
weight *vector* (one coordinate per LTS level, Eq. (19)); edges connect
face-adjacent elements with a weight approximating the communication cost
of cutting them (``max(p_u, p_v)``, Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import PartitionError
from repro.util.validation import check_array, require


@dataclass
class Graph:
    """Undirected graph: CSR adjacency + vertex weight matrix + edge weights.

    Attributes
    ----------
    xadj, adjncy:
        CSR adjacency; every undirected edge appears in both endpoint
        lists, and ``eweights`` is aligned with ``adjncy``.
    vweights:
        ``(n_vertices, n_constraints)`` non-negative weights.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    vweights: np.ndarray
    eweights: np.ndarray

    def __post_init__(self) -> None:
        self.xadj = check_array(self.xadj, "xadj", ndim=1, dtype=np.int64, exc=PartitionError)
        self.adjncy = check_array(self.adjncy, "adjncy", ndim=1, dtype=np.int64, exc=PartitionError)
        self.eweights = check_array(
            self.eweights, "eweights", ndim=1, dtype=np.float64, exc=PartitionError
        )
        vw = np.asarray(self.vweights, dtype=np.float64)
        if vw.ndim == 1:
            vw = vw[:, None]
        require(vw.ndim == 2, "vweights must be (n, P)", PartitionError)
        self.vweights = vw
        n = len(self.xadj) - 1
        require(n >= 1, "graph must have at least one vertex", PartitionError)
        require(self.vweights.shape[0] == n, "vweights rows must match vertex count", PartitionError)
        require(
            len(self.adjncy) == len(self.eweights) == int(self.xadj[-1]),
            "adjncy/eweights must match xadj[-1]",
            PartitionError,
        )
        require(int(self.xadj[0]) == 0, "xadj must start at 0", PartitionError)
        require(bool(np.all(np.diff(self.xadj) >= 0)), "xadj must be non-decreasing", PartitionError)
        if len(self.adjncy):
            require(
                0 <= int(self.adjncy.min()) and int(self.adjncy.max()) < n,
                "adjncy references vertex out of range",
                PartitionError,
            )
        require(bool(np.all(self.eweights >= 0)), "edge weights must be non-negative", PartitionError)
        require(bool(np.all(self.vweights >= 0)), "vertex weights must be non-negative", PartitionError)

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.xadj) - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    @property
    def n_constraints(self) -> int:
        return self.vweights.shape[1]

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        return self.eweights[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_weight(self) -> np.ndarray:
        """Per-constraint total vertex weight ``W[V, i]``."""
        return self.vweights.sum(axis=0)

    # ------------------------------------------------------------------
    def validate_symmetry(self) -> None:
        """Raise unless every undirected edge is listed exactly twice, once
        from each endpoint, with equal weights (so no self-loops)."""
        src = np.repeat(np.arange(self.n_vertices, dtype=np.int64), np.diff(self.xadj))
        lo, hi = np.minimum(src, self.adjncy), np.maximum(src, self.adjncy)
        order = np.lexsort((src, hi, lo))
        lo, hi, src, w = lo[order], hi[order], src[order], self.eweights[order]
        _, first, count = np.unique(lo * self.n_vertices + hi, return_index=True, return_counts=True)
        bad = np.nonzero(count != 2)[0]
        if len(bad):
            i = first[bad[0]]
            raise PartitionError(
                f"edge {(int(lo[i]), int(hi[i]))} listed {int(count[bad[0]])} time(s), not twice"
            )
        one_way = src[first] == src[first + 1]
        if np.any(one_way):
            i = first[np.argmax(one_way)]
            raise PartitionError(f"edge {(int(lo[i]), int(hi[i]))} present in one direction only")
        uneven = w[first] != w[first + 1]
        if np.any(uneven):
            i = first[np.argmax(uneven)]
            raise PartitionError(f"asymmetric edge weight on {(int(lo[i]), int(hi[i]))}")

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph; returns ``(sub, vertices)`` with old ids.

        Neighbour lists keep the parent's order, vertices the given one.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        require(len(vertices) >= 1, "subgraph needs at least one vertex", PartitionError)
        remap = -np.ones(self.n_vertices, dtype=np.int64)
        remap[vertices] = np.arange(len(vertices))
        pos, owner = concat_ranges(self.xadj[vertices], self.xadj[vertices + 1])
        nbr = remap[self.adjncy[pos]]
        keep = nbr >= 0
        xadj = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=len(vertices)), out=xadj[1:])
        sub = Graph(
            xadj=xadj,
            adjncy=nbr[keep],
            vweights=self.vweights[vertices].copy(),
            eweights=self.eweights[pos[keep]],
        )
        return sub, vertices

    def connected_components(self) -> np.ndarray:
        """Component id per vertex (BFS)."""
        comp = -np.ones(self.n_vertices, dtype=np.int64)
        cid = 0
        for s in range(self.n_vertices):
            if comp[s] >= 0:
                continue
            stack = [s]
            comp[s] = cid
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    if comp[v] < 0:
                        comp[v] = cid
                        stack.append(int(v))
            cid += 1
        return comp


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``concatenate([arange(starts[i], stops[i]) for i])`` and, for each
    entry, its ``i`` — e.g. the CSR slots of a list of rows, in row order."""
    lens = stops - starts
    owner = np.arange(len(lens), dtype=np.int64).repeat(lens)
    offset = np.arange(len(owner), dtype=np.int64) - (lens.cumsum() - lens)[owner]
    return starts[owner] + offset, owner


def merge_edges(
    n_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undirected edges with parallel copies merged: one ``(min, max, w)``
    per vertex pair, numbered by first occurrence, ``w`` summed in input
    order — the edges and sums a dict keyed by the pair would hold.  A
    pair's first occurrence is its group's least index, so no stable
    sort is needed."""
    keys, group = np.unique(np.minimum(u, v) * n_vertices + np.maximum(u, v), return_inverse=True)
    first = np.full(len(keys), len(group))
    np.minimum.at(first, group, np.arange(len(group)))
    total = np.bincount(group, weights=w, minlength=len(keys))
    order = np.argsort(first)
    return keys[order] // n_vertices, keys[order] % n_vertices, total[order]


def graph_from_edge_arrays(
    n_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    vweights: np.ndarray | None = None,
) -> Graph:
    """Build a :class:`Graph` from undirected edges ``(u[j], v[j], w[j])``.

    Each vertex lists its edges in edge order (``j``), which is what makes
    the coarsening and expansion passes reproducible.
    """
    require(n_vertices >= 1, "need at least one vertex", PartitionError)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    require(bool(np.all(u != v)), "self-loops are not allowed", PartitionError)
    src = np.stack([u, v], axis=1).ravel()
    require(
        len(src) == 0 or (src.min() >= 0 and src.max() < n_vertices),
        "edge references vertex out of range",
        PartitionError,
    )
    order = np.argsort(src * len(src) + np.arange(len(src)))  # stable: (src, slot) unique
    xadj = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_vertices), out=xadj[1:])
    if vweights is None:
        vweights = np.ones((n_vertices, 1))
    return Graph(
        xadj=xadj,
        adjncy=np.stack([v, u], axis=1).ravel()[order],
        vweights=vweights,
        eweights=np.repeat(np.asarray(w, dtype=np.float64), 2)[order],
    )


def graph_from_edges(
    n_vertices: int,
    edges: list[tuple[int, int, float]],
    vweights: np.ndarray | None = None,
) -> Graph:
    """Build a :class:`Graph` from an undirected edge list (u, v, w)."""
    u, v, w = ([e[i] for e in edges] for i in range(3))
    return graph_from_edge_arrays(n_vertices, u, v, w, vweights)
