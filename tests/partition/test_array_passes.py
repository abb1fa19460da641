"""Array passes against the per-item loops they stand for, compared exactly.

Each ``loop_*`` reference is the straightforward dict / set / running-sum
formulation; the array pass must reproduce its values, its ordering
(dict insertion order, set iteration order) and its float sums bit for
bit, because the partitioners' decisions depend on all three.
"""

import numpy as np
import pytest

from repro.core import assign_levels
from repro.mesh import trench_mesh
from repro.partition import lts_dual_graph, lts_hypergraph
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.hmultilevel import (
    _KWayState,
    clique_expansion,
    contract_hypergraph,
    heavy_connectivity_matching,
)
from repro.partition.metrics import (
    hypergraph_cutsize,
    message_count,
    mpi_volume,
    per_level_halo_nodes,
)


def loop_csr(n, edges):
    """CSR of undirected ``edges``, each listed from both ends in edge order."""
    lists = [[] for _ in range(n)]
    for a, b, w in edges:
        lists[a].append((b, w))
        lists[b].append((a, w))
    xadj = np.cumsum([0] + [len(x) for x in lists])
    return xadj, [u for x in lists for u, _ in x], [w for x in lists for _, w in x]


def loop_merge(pairs):
    acc = {}
    for a, b, w in pairs:
        key = (min(a, b), max(a, b))
        acc[key] = acc.get(key, 0.0) + w
    return [(a, b, w) for (a, b), w in acc.items()]


def assert_csr(graph, xadj, adjncy, ew):
    assert graph.xadj.tolist() == list(xadj)
    assert graph.adjncy.tolist() == adjncy
    assert graph.eweights.tolist() == ew


@pytest.fixture(scope="module")
def model():
    mesh = trench_mesh(8, 8, 4)
    a = assign_levels(mesh)
    h = lts_hypergraph(mesh, a)
    h.costs = h.costs * 0.3  # non-integer costs: sum order shows
    return mesh, a, lts_dual_graph(mesh, a), h


def partitions(n, rng):
    """Random and blocky; the blocky ones give small boundary and candidate
    sets whose iteration order is not sorted."""
    blocky = [((np.arange(n) * k) // n, k) for k in (2, 16)]
    return blocky + [(rng.integers(0, k, n), k) for k in (3, 16)]


def test_contract(model, rng):
    g = model[2]
    match, nc = heavy_edge_matching(g, rng)
    pairs = [(match[v], match[u], w)
             for v in range(g.n_vertices)
             for u, w in zip(g.neighbors(v).tolist(), g.edge_weights_of(v).tolist())
             if match[v] != match[u]]
    xadj, adjncy, ew = loop_csr(nc, [(a, b, w / 2.0) for a, b, w in loop_merge(pairs)])
    assert_csr(contract(g, match, nc), xadj, adjncy, ew)


def test_subgraph(model, rng):
    g = model[2]
    vertices = rng.permutation(g.n_vertices)[: g.n_vertices // 2]
    remap = {int(v): i for i, v in enumerate(vertices)}
    lists = [[(remap[u], w) for u, w in zip(g.neighbors(v).tolist(), g.edge_weights_of(v).tolist())
              if u in remap] for v in vertices]
    sub, _ = g.subgraph(vertices)
    assert_csr(sub, np.cumsum([0] + [len(x) for x in lists]),
               [u for x in lists for u, _ in x], [w for x in lists for _, w in x])


def test_clique_expansion(model):
    h = model[3]
    pairs = []
    for net in range(h.n_nets):
        pins = h.net_pins(net).tolist()
        for i in range(len(pins)):
            pairs += [(pins[i], q, float(h.costs[net]) / (len(pins) - 1)) for q in pins[i + 1:]]
    assert_csr(clique_expansion(h), *loop_csr(h.n_vertices, loop_merge(pairs)))


def test_contract_hypergraph(model, rng):
    h = model[3]
    match, nc = heavy_connectivity_matching(h, rng)
    merged = {}
    for net in range(h.n_nets):
        key = tuple(sorted(set(match[h.net_pins(net)].tolist())))
        if len(key) >= 2:
            merged[key] = merged.get(key, 0.0) + float(h.costs[net])
    coarse = contract_hypergraph(h, match, nc)
    assert coarse.pins.tolist() == [p for key in merged for p in key]
    assert coarse.xpins.tolist() == np.cumsum([0] + [len(key) for key in merged]).tolist()
    assert coarse.costs.tolist() == list(merged.values())


def test_kway_state_orders(model, rng):
    h = model[3]
    unsorted = [0, 0]
    for parts, k in partitions(h.n_vertices, rng):
        state = _KWayState(h, parts, k)
        lam = {net: set(parts[h.net_pins(net)].tolist()) for net in range(h.n_nets)}
        boundary = set()
        for net in range(h.n_nets):
            if len(lam[net]) > 1:
                boundary.update(h.net_pins(net).tolist())
        got = state.boundary_vertices().tolist()
        assert got == list(boundary)
        unsorted[0] += got != sorted(got)
        for v in range(h.n_vertices):
            cand = set()
            for net in h.nets_of_vertex(v).tolist():
                cand.update(sorted(lam[net]))
            assert list(state.candidate_parts(v)) == list(cand)
            unsorted[1] += list(cand) != sorted(cand)
    assert all(unsorted)  # cases where sorting would change the order


def test_metrics(model, rng):
    mesh, a, _, h = model
    inc = mesh.node_incidence()
    p = a.p_per_element.astype(np.float64)
    for parts, k in partitions(mesh.n_elements, rng):
        cut = 0.0
        for net in range(h.n_nets):
            lam_h = len(set(parts[h.net_pins(net)].tolist()))
            if lam_h > 1:
                cut += float(h.costs[net]) * (lam_h - 1)
        volume, halo, pairs = 0.0, np.zeros((k, a.n_levels)), set()
        for n in range(inc.n_nodes):
            elems = inc.elems[inc.xadj[n] : inc.xadj[n + 1]]
            owners = sorted(set(parts[elems].tolist()))
            if len(owners) > 1:
                volume += float(p[elems].sum()) * (len(owners) - 1)
                halo[owners, a.level[elems].max() - 1] += len(owners) - 1
                pairs.update((r, s) for r in owners for s in owners if r != s)
        assert hypergraph_cutsize(h, parts, k) == cut
        assert mpi_volume(mesh, a, parts, k) == volume
        assert np.array_equal(per_level_halo_nodes(mesh, a, parts, k), halo)
        assert message_count(mesh, parts, k) == len(pairs)
