"""Multilevel K-way hypergraph partitioning (PaToH engine).

Same V-cycle shape as the graph engine, with hypergraph-specific pieces:

* coarsening by *heavy-connectivity matching* — vertices sharing
  high-cost small nets merge first;
* initial partitioning by clique-expanding the (small) coarsest
  hypergraph and reusing the graph recursive-bisection machinery;
* K-way refinement driven by the exact λ−1 gain (Eq. (20)), so the
  engine optimizes true MPI volume rather than the edge-cut proxy —
  the paper's central argument for PaToH (Fig. 3);
* strict balance enforcement to a ``final_imbal`` tolerance, trading
  volume for balance exactly as the paper's PaToH 0.01/0.05 runs do.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph, concat_ranges, graph_from_edge_arrays, merge_edges
from repro.partition.hypergraph import Hypergraph
from repro.partition.initial import recursive_bisection
from repro.partition.refine import fits, refine_loop, repair_loop
from repro.util.errors import PartitionError
from repro.util.validation import require


# ----------------------------------------------------------------------
# Coarsening
# ----------------------------------------------------------------------
def heavy_connectivity_matching(
    h: Hypergraph, rng: np.random.Generator, weight_cap: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Match vertices by summed shared-net connectivity ``c/(|net|-1)``."""
    n = h.n_vertices
    match = [-1] * n
    xnets, nets = (a.tolist() for a in h.vertex_nets())
    xpins, pins = h.xpins.tolist(), h.pins.tolist()
    share = _net_share(h).tolist()
    vw = h.vweights.tolist()
    cap = None if weight_cap is None else np.broadcast_to(weight_cap, len(vw[0])).tolist()
    cid = 0
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        scores: dict[int, float] = {}
        for net in nets[xnets[v] : xnets[v + 1]]:
            if xpins[net + 1] - xpins[net] < 2:
                continue
            s = share[net]
            for u in pins[xpins[net] : xpins[net + 1]]:
                if u != v and match[u] < 0:
                    scores[u] = scores.get(u, 0.0) + s
        best, best_s = -1, 0.0
        for u, s in scores.items():
            if s > best_s and (cap is None or fits(vw[v], vw[u], cap)):
                best, best_s = u, s
        match[v] = cid
        if best >= 0:
            match[best] = cid
        cid += 1
    return np.array(match, dtype=np.int64), cid


def _net_share(h: Hypergraph) -> np.ndarray:
    """Per-net ``c/(|net|-1)`` (nets with < 2 pins get ``c``; callers skip them)."""
    return h.costs / np.maximum(np.diff(h.xpins) - 1, 1)


def contract_hypergraph(h: Hypergraph, match: np.ndarray, n_coarse: int) -> Hypergraph:
    """Coarse hypergraph: mapped pins deduplicated per net, identical nets
    merged (costs add), single-pin nets dropped — none of which can change
    the cutsize of any partition lifted from the coarse level (tested).

    Coarse nets keep their pins sorted, are numbered by the first fine net
    that maps to them, and sum their costs in fine-net order.
    """
    require(n_coarse >= 1, "contraction must keep at least one vertex", PartitionError)
    vweights = np.zeros((n_coarse, h.n_constraints))
    np.add.at(vweights, match, h.vweights)

    net_of_pin = np.repeat(np.arange(h.n_nets, dtype=np.int64), np.diff(h.xpins))
    # Distinct (net, coarse pin) pairs, sorted: each net's pins ascending.
    pairs = np.unique(net_of_pin * n_coarse + match[h.pins])
    net_of_pin, mapped = pairs // n_coarse, pairs % n_coarse
    size = np.bincount(net_of_pin, minlength=h.n_nets)
    kept = size >= 2
    if not np.any(kept):  # fully merged: keep a valid empty-net hypergraph
        return Hypergraph(n_coarse, np.zeros(1, np.int64), np.zeros(0, np.int64),
                          np.zeros(0), vweights)
    # One row per net, padded with -1 (a shorter net never equals a longer).
    col = np.arange(len(mapped)) - np.searchsorted(net_of_pin, net_of_pin)
    rows = np.full((h.n_nets, int(size.max())), -1, dtype=np.int64)
    rows[net_of_pin, col] = mapped
    uniq, first, inv = np.unique(rows[kept], axis=0, return_index=True, return_inverse=True)
    costs = np.bincount(inv, weights=h.costs[kept], minlength=len(uniq))
    by_first = np.argsort(first)
    uniq = uniq[by_first]
    xpins = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum((uniq >= 0).sum(axis=1), out=xpins[1:])
    return Hypergraph(
        n_vertices=n_coarse,
        xpins=xpins,
        pins=uniq[uniq >= 0],
        costs=costs[by_first],
        vweights=vweights,
    )


def clique_expansion(h: Hypergraph) -> Graph:
    """Weighted graph with an edge ``c/(|net|-1)`` per pin pair of each net.

    Standard device for seeding hypergraph partitioners; only used on the
    coarsest level where ``sum |net|^2`` is small.  Edges are numbered, and
    their weights summed, in (net, pin, later pin) order.
    """
    net_of_pin = np.repeat(np.arange(h.n_nets, dtype=np.int64), np.diff(h.xpins))
    # Pair each pin with every later pin of its net.
    later, pin = concat_ranges(np.arange(1, h.n_pins + 1), h.xpins[net_of_pin + 1])
    edges = merge_edges(
        h.n_vertices, h.pins[pin], h.pins[later], _net_share(h)[net_of_pin[pin]]
    )
    return graph_from_edge_arrays(h.n_vertices, *edges, vweights=h.vweights.copy())


# ----------------------------------------------------------------------
# K-way λ-1 refinement
# ----------------------------------------------------------------------
class _KWayState:
    """Incremental per-net pin-count bookkeeping for λ−1 gains.

    ``counts[net * k + part]`` is the number of pins of ``net`` in
    ``part``; ``present[net]`` has bit ``part`` set while that count is
    non-zero.
    """

    def __init__(self, h: Hypergraph, parts: np.ndarray, k: int):
        self.h = h
        self.k = k
        net_of_pin = np.repeat(np.arange(h.n_nets, dtype=np.int64), np.diff(h.xpins))
        slots = net_of_pin * k + np.asarray(parts)[h.pins]
        self.counts = np.bincount(slots, minlength=h.n_nets * k).tolist()
        self.present = [0] * h.n_nets
        for slot in np.unique(slots).tolist():
            self.present[slot // k] |= 1 << (slot % k)
        xnets, nets = h.vertex_nets()
        self._xnets, self._nets = xnets.tolist(), nets.tolist()
        self._costs = h.costs.tolist()

    def nets_of(self, v: int) -> list[int]:
        return self._nets[self._xnets[v] : self._xnets[v + 1]]

    def gain(self, v: int, a: int, b: int) -> float:
        """Cutsize reduction of moving ``v`` from part ``a`` to ``b``."""
        g = 0.0
        k, counts, costs = self.k, self.counts, self._costs
        for net in self.nets_of(v):
            c = costs[net]
            if counts[net * k + a] == 1:
                g += c
            if counts[net * k + b] == 0:
                g -= c
        return g

    def candidate_parts(self, v: int) -> set[int]:
        """Parts with a pin on a net of ``v``: the set built by adding
        each net's parts, nets in order and parts ascending.  The refinement
        iterates it, so its iteration order is part of the result."""
        seen, order = 0, []
        for net in self.nets_of(v):
            new = self.present[net] & ~seen
            seen |= new
            while new:
                low = new & -new
                order.append(low.bit_length() - 1)
                new ^= low
        return set(order)

    def apply_move(self, v: int, a: int, b: int) -> None:
        k, counts, present = self.k, self.counts, self.present
        for net in self.nets_of(v):
            counts[net * k + a] -= 1
            if counts[net * k + a] == 0:
                present[net] &= ~(1 << a)
            counts[net * k + b] += 1
            if counts[net * k + b] == 1:
                present[net] |= 1 << b

    def boundary_vertices(self) -> np.ndarray:
        """Pins of cut nets, in the iteration order of the set built by
        adding them net by net (the shuffle that follows permutes it)."""
        cut = np.array([net for net, m in enumerate(self.present) if m & (m - 1)], dtype=np.int64)
        pins = self.h.pins[concat_ranges(self.h.xpins[cut], self.h.xpins[cut + 1])[0]]
        _, first = np.unique(pins, return_index=True)
        out = set(pins[np.sort(first)].tolist())
        return np.fromiter(out, dtype=np.int64, count=len(out))


def hg_kway_refine(
    h: Hypergraph,
    parts: np.ndarray,
    k: int,
    eps: float,
    rng: np.random.Generator,
    max_passes: int = 6,
    state: _KWayState | None = None,
) -> np.ndarray:
    """Greedy K-way λ−1 refinement under multi-constraint bounds (the
    sweep of :func:`repro.partition.refine.kway_refine`, exact λ−1 gains)."""
    parts = np.asarray(parts, dtype=np.int64)
    state = _KWayState(h, parts, k) if state is None else state
    return refine_loop(
        h.vweights, parts, k, eps, rng, max_passes,
        boundary=state.boundary_vertices,
        gains=lambda v, a: ((b, state.gain(v, a, b)) for b in state.candidate_parts(v) if b != a),
        on_move=state.apply_move,
    )


def hg_repair_balance(
    h: Hypergraph,
    parts: np.ndarray,
    k: int,
    eps: float,
    rng: np.random.Generator,
    max_moves: int | None = None,
) -> np.ndarray:
    """Strictly enforce the ``final_imbal`` band, cheapest λ−1 damage first.

    Mirrors :func:`repro.partition.refine.repair_balance` (push overloads
    out, pull underloads in) with cut damage measured by the exact λ−1
    gain, which is the PaToH behaviour the paper's ``final_imbal``
    comparison exercises.
    """
    parts = np.asarray(parts, dtype=np.int64)
    state = _KWayState(h, parts, k)
    return repair_loop(
        h.vweights, parts, k, eps, rng,
        damages=lambda v, src: lambda dst: -state.gain(v, src, dst),
        on_move=state.apply_move,
        max_moves=max_moves,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def multilevel_hypergraph_partition(
    h: Hypergraph,
    k: int,
    eps: float = 0.05,
    seed: int = 0,
    coarsen_target: int | None = None,
    refine_passes: int = 6,
) -> np.ndarray:
    """Partition hypergraph ``h`` into ``k`` parts minimizing λ−1 cutsize
    subject to per-constraint balance ``eps`` (the ``final_imbal`` knob)."""
    require(k >= 1, "k must be >= 1", PartitionError)
    require(k <= h.n_vertices, "more parts than vertices", PartitionError)
    if k == 1:
        return np.zeros(h.n_vertices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    if coarsen_target is None:
        coarsen_target = max(100, 12 * k)

    hgs = [h]
    matches: list[np.ndarray] = []
    total = h.total_weight()
    while hgs[-1].n_vertices > coarsen_target:
        cur = hgs[-1]
        cap = np.maximum(total / max(coarsen_target, 1) * 1.5, cur.vweights.max(axis=0))
        match, nc = heavy_connectivity_matching(cur, rng, weight_cap=cap)
        if nc >= cur.n_vertices * 0.92:
            break
        hgs.append(contract_hypergraph(cur, match, nc))
        matches.append(match)

    coarse_graph = clique_expansion(hgs[-1])
    parts = recursive_bisection(coarse_graph, k, eps, rng)
    parts = hg_kway_refine(hgs[-1], parts, k, eps, rng, max_passes=refine_passes)

    for level in range(len(matches) - 1, -1, -1):
        parts = parts[matches[level]]
        parts = hg_kway_refine(hgs[level], parts, k, eps, rng, max_passes=refine_passes)

    parts = hg_repair_balance(h, parts, k, eps, rng)
    parts = hg_kway_refine(h, parts, k, eps, rng, max_passes=2)
    parts = hg_repair_balance(h, parts, k, eps, rng)
    return parts
