"""The setup path's cached and once-built pieces against the per-step
code they replace, kept here as oracles.

* ``kway_refine`` caches each vertex's candidate list, computes a pass's
  missing lists in one array step and skips empty ones: on random graphs
  it must take every decision the per-visit sweep takes — the same parts
  and the same random draws (the generator ends in the same state).
* ``compact_depths`` orders DOFs by a counting sort: the stable argsort
  of the depth key.
* Each LTS level product is built once, on its tail: table for table the
  ascending ``masked_subset`` product relabelled by ``renumber``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lts_newmark import LTSPlan, compact_depths, dof_levels_from_elements
from repro.core.operator import positions_in
from repro.mesh import uniform_grid
from repro.partition.graph import graph_from_edges
from repro.partition.refine import (
    _connectivity,
    balance_bounds_from_weights,
    fits,
    kway_refine,
)
from repro.runtime import build_rank_layout
from repro.sem import SemND, fused
from repro.sem.matfree import MatrixFreeStiffness


# ----------------------------------------------------------------------
# Oracle 1: the per-visit sweep
# ----------------------------------------------------------------------
def per_visit_kway_refine(graph, parts, k, eps=0.05, rng=None, max_passes=8, target_fracs=None):
    """``kway_refine`` as it was before candidate lists were cached: every
    visit folds the vertex's part connectivity afresh."""
    parts = np.asarray(parts, dtype=np.int64)
    xadj, adjncy, ew = graph.xadj.tolist(), graph.adjncy.tolist(), graph.eweights.tolist()
    pl = parts.tolist()
    rng = np.random.default_rng(0) if rng is None else rng
    vw = graph.vweights
    W = np.zeros((k, vw.shape[1]))
    np.add.at(W, parts, vw)
    W = W.tolist()
    Lmax = balance_bounds_from_weights(vw, k, eps, target_fracs).tolist()
    sizes = np.bincount(parts, minlength=k).tolist()
    total = vw.sum(axis=0)
    norm = np.where(total > 0, total, 1.0).tolist()
    vwl = vw.tolist()
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.xadj))
    for _ in range(max_passes):
        order = np.unique(src[parts[src] != parts[graph.adjncy]])
        if len(order) == 0:
            break
        rng.shuffle(order)
        moved = 0
        for v in order.tolist():
            a = pl[v]
            if sizes[a] <= 1:
                continue
            conn = _connectivity(v, xadj, adjncy, ew, pl)
            internal = conn.get(a, 0.0)
            wv = vwl[v]
            best_b, best_gain, best_tie, load_a = -1, 0.0, 0.0, None
            for b, c in conn.items():
                gain = c - internal
                if b == a or gain < 0.0 or not fits(W[b], wv, Lmax[b]):
                    continue
                if load_a is None:
                    load_a = (max(x / n for x, n in zip(W[a], norm)),
                              max((x - y) / n for x, y, n in zip(W[a], wv, norm)))
                before = max(load_a[0], max(x / n for x, n in zip(W[b], norm)))
                after = max(load_a[1], max((x + y) / n for x, y, n in zip(W[b], wv, norm)))
                tie = before - after
                if gain > best_gain or (gain == best_gain and tie > best_tie):
                    best_b, best_gain, best_tie = b, gain, tie
            if best_b >= 0 and (best_gain > 0.0 or best_tie > 1e-15):
                W[a] = [x - y for x, y in zip(W[a], wv)]
                W[best_b] = [x + y for x, y in zip(W[best_b], wv)]
                sizes[a] -= 1
                sizes[best_b] += 1
                pl[v] = best_b
                moved += 1
        parts[:] = pl
        if moved == 0:
            break
    return parts


@st.composite
def refine_cases(draw):
    k = draw(st.sampled_from([2, 3, 4, 16]))
    n = draw(st.integers(max(k, 6), 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = {(i, i + 1) for i in range(n - 1)}  # connected
    for a, b in rng.integers(0, n, (draw(st.integers(0, 3 * n)), 2)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    # Few distinct weights: equal sums, zero gains and tie-breaks are common.
    elist = [(a, b, float(rng.integers(1, 4)) * draw(st.sampled_from([1.0, 0.1])))
             for a, b in sorted(edges)]
    P = draw(st.integers(1, 3))
    vw = rng.integers(0, 4, (n, P)).astype(np.float64)
    vw[:, 0] += 1.0
    graph = graph_from_edges(n, elist, vweights=vw)
    parts = rng.integers(0, k, n)
    fracs = None
    if draw(st.booleans()):
        fracs = rng.random(k) + 0.2
        fracs /= fracs.sum()
    return graph, parts, k, fracs, draw(st.integers(1, 8)), draw(st.sampled_from([0.0, 0.03, 0.2]))


@settings(max_examples=150, deadline=None)
@given(case=refine_cases(), seed=st.integers(0, 2**16))
def test_cached_sweep_is_the_per_visit_sweep(case, seed):
    graph, parts, k, fracs, passes, eps = case
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = per_visit_kway_refine(graph, parts.copy(), k, eps, rng_a, passes, fracs)
    got = kway_refine(graph, parts.copy(), k, eps, rng_b, passes, fracs)
    assert np.array_equal(got, want)
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


# ----------------------------------------------------------------------
# Oracle 2: the stable argsort
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), n_sets=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_counting_sort_is_the_stable_argsort(n, n_sets, seed):
    rng = np.random.default_rng(seed)
    # Nested sets, as the active sets of an LTS numbering are.
    masks, cur = [], np.ones(n, dtype=bool)
    for _ in range(n_sets):
        cur = cur & (rng.random(n) < 0.7)
        masks.append(cur)
    depth = np.sum(masks, axis=0)
    order, inv, depths = compact_depths(
        list(range(2, n_sets + 2)), [lambda *numbering: None] * n_sets, masks
    )
    assert order.dtype == inv.dtype == np.int32
    assert np.array_equal(order, np.argsort(depth, kind="stable"))
    assert np.array_equal(inv[order], np.arange(n))
    sizes = np.bincount(depth, minlength=n_sets + 1)
    assert [d.n for d in depths] == [int(sizes[i + 1:].sum()) for i in range(n_sets)]


# ----------------------------------------------------------------------
# Oracle 3: masked_subset, then renumber
# ----------------------------------------------------------------------
def parent_masked_subset(K, col_mask):
    if col_mask.all():
        return K
    ids = np.nonzero(col_mask[K.element_dofs].any(axis=1))[0]
    ed = K.element_dofs[ids]
    gm = col_mask[ed]
    if K.gmask is not None:
        gm &= K.gmask[ids] != 0
    return MatrixFreeStiffness(K.kernel.subset(ids), ed, K.Minv, use_fused=K._use_fused,
                               gmask=gm, threads=K._requested_threads)


def parent_renumber(sub, idx, pos, off):
    return MatrixFreeStiffness(
        sub.kernel.fork(), positions_in(pos, sub.element_dofs, "row-support DOF", off),
        sub.Minv[idx], use_fused=sub._use_fused, gmask=sub.gmask,
        threads=sub._requested_threads,
    )


def _same_product(got, want):
    assert isinstance(got, MatrixFreeStiffness)
    assert got.tier == want.tier
    for name in ("element_dofs", "gmask", "Minv"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.kernel.scales, want.kernel.scales)


def _model(dirichlet: bool):
    """A 7 x 6 grid with a three-level core, order 3."""
    mesh = uniform_grid((7, 6))
    sem = SemND(mesh, order=3, dirichlet=dirichlet)
    element_levels = np.ones(mesh.n_elements, dtype=np.int64)
    element_levels[[15, 16, 21, 22, 27]] = 2
    element_levels[[16, 22]] = 3
    return sem, dof_levels_from_elements(sem.element_dofs, element_levels, sem.n_dof)


#: Element -> rank: one serial numbering, ranks cycling through the
#: elements (every rank meets the fine core), or column slabs (rank 0
#: holds the first column only: every local DOF on level 1, its finer
#: levels empty).
PARTS = {
    "serial": None,
    "cyclic": lambda ne: np.arange(ne) % 4,
    "slabs": lambda ne: np.minimum(np.arange(ne) // 6, 3),
}


@pytest.mark.parametrize("tier", ["numpy", "fused"])
@pytest.mark.parametrize("kind", sorted(PARTS))
@pytest.mark.parametrize("dirichlet", [False, True])
def test_level_products_are_masked_subset_then_renumber(tier, kind, dirichlet):
    if tier == "fused" and not fused.available():
        pytest.skip("no C compiler for the fused tier")
    sem, dof_level = _model(dirichlet)
    use_fused = tier == "fused"
    if PARTS[kind] is None:
        op = sem.operator("matfree", use_fused=use_fused)
        plan = LTSPlan(op, dof_level)
        stiff, levels_local = [op], [dof_level]
        orders = [plan.replicas.gdofs[0]]
    else:
        layout = build_rank_layout(sem, PARTS[kind](sem.mesh.n_elements), 4, dof_level=dof_level,
                                   backend="matfree", use_fused=use_fused)
        plan = LTSPlan(layout)
        stiff, levels_local = layout.K_local, layout.dof_level_local
        orders = [np.searchsorted(g, m) for g, m in zip(layout.gdofs, plan.replicas.gdofs)]
        if kind == "slabs":  # rank 0's level mask covers all its DOFs
            assert set(layout.dof_level_local[0].tolist()) == {1}
    assert plan.active_levels == [1, 2, 3]
    for K, lv, order, nb in zip(stiff, levels_local, orders, plan.numberings):
        assert K.tier == tier
        inv = np.empty(len(order), dtype=np.int32)
        inv[order] = np.arange(len(order), dtype=np.int32)
        offsets = [0, *(nb.n - d.n for d in nb.depths)]
        products = [nb.restr0, *(d.restr for d in nb.depths)]
        for k, off, restr in zip(plan.active_levels, offsets, products):
            mask = lv == k
            want = parent_renumber(parent_masked_subset(K, mask), order[off:], inv, off)
            _same_product(restr._apply.__self__, want)
            assert np.array_equal(restr.cols, inv[np.flatnonzero(mask)] - off)
