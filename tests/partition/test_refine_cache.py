"""The setup path's cached and once-built pieces against the per-step
code they replace, kept here as oracles.

* ``kway_refine`` caches each vertex's candidate list, computes a pass's
  missing lists in one array step, skips empty ones and keeps its
  boundary by counts a move updates: on random graphs it must take
  every decision the per-visit sweep takes — the same parts and the same
  random draws (the generator ends in the same state).
* The sweeps' part loads and balance bounds are the per-part loops and
  ``np.add.at`` folds they replace; greedy growing, heavy-edge matching
  and the balance repair are the parent's loops, decision for decision.
* ``build_rank_layout`` folds its per-rank passes: its ids, owner masks,
  channels and levels are those of the passes it replaced.
* ``compact_depths`` orders DOFs by a counting sort: the stable argsort
  of the depth key.
* Each LTS level product is built once, on its tail: table for table the
  ascending ``masked_subset`` product relabelled by ``renumber``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lts_newmark import LTSPlan, compact_depths, dof_levels_from_elements
import heapq

from repro.core.operator import positions_in
from repro.mesh import trench_mesh, uniform_grid
from repro.partition.coarsen import heavy_edge_matching
from repro.partition.graph import graph_from_edges
from repro.partition.initial import grow_bisection, pseudo_peripheral_vertex
from repro.partition.metrics import graph_cut
from repro.partition.refine import (
    balance_bounds_from_weights,
    fits,
    kway_refine,
    lower_bounds_from_weights,
    part_weights,
    repair_balance,
)
from repro.runtime import build_rank_layout
from repro.sem import SemND, fused
from repro.sem.matfree import MatrixFreeStiffness


# ----------------------------------------------------------------------
# Oracle 1: the per-visit sweep
# ----------------------------------------------------------------------
def _connectivity(v, xadj, adjncy, ew, pl):
    """Edge weight from ``v`` to each neighbouring part, in adjacency order."""
    conn = {}
    for idx in range(xadj[v], xadj[v + 1]):
        b = pl[adjncy[idx]]
        conn[b] = conn.get(b, 0.0) + ew[idx]
    return conn


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


def _same_product(got, want, raw):
    """``got`` is the oracle's ``want``, but ``raw`` (a fused operator's
    product, empty ones too) has no ``Minv``: the plan's numbering holds
    the scale."""
    assert isinstance(got, MatrixFreeStiffness)
    assert got.tier == want.tier
    for name in ("element_dofs", "gmask", "Minv"):
        a, b = getattr(got, name), getattr(want, name)
        if name == "Minv" and raw:
            b = None
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
        assert (nb.Minv is None) == (tier == "numpy")
        assert nb.Minv is None or nb.Minv.tobytes() == K.Minv[order].tobytes()
        inv = np.empty(len(order), dtype=np.int32)
        inv[order] = np.arange(len(order), dtype=np.int32)
        offsets = [0, *(nb.n - d.n for d in nb.depths)]
        products = [nb.restr0, *(d.restr for d in nb.depths)]
        for k, off, restr in zip(plan.active_levels, offsets, products):
            mask = lv == k
            want = parent_renumber(parent_masked_subset(K, mask), order[off:], inv, off)
            # An empty product (the slabs' rank 0 has no fine element)
            # reports the tier its gating chose, as its siblings do.
            assert restr._apply.__self__.tier == tier
            _same_product(restr._apply.__self__, want, tier == "fused")
            assert np.array_equal(restr.cols, inv[np.flatnonzero(mask)] - off)


# ----------------------------------------------------------------------
# Oracle 4: part loads and balance bounds, per part
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(case=refine_cases(), eps=st.sampled_from([0.0, 0.01, 0.05, 0.3]))
def test_loads_and_bounds_are_the_per_part_loops(case, eps):
    graph, parts, k, fracs, _, _ = case
    vw = graph.vweights * 0.37  # sums that round
    graph.vweights = vw
    W = np.zeros((k, vw.shape[1]))
    np.add.at(W, parts, vw)
    assert part_weights(graph, parts, k).tobytes() == W.tobytes()
    total, maxv = vw.sum(axis=0), vw.max(axis=0)
    f = np.full(k, 1.0 / k) if fracs is None else fracs
    Lmax, Lmin = np.empty((k, vw.shape[1])), np.empty((k, vw.shape[1]))
    for part in range(k):
        share = total * f[part]
        Lmax[part] = np.maximum((1.0 + eps) * share, share + maxv)
        Lmin[part] = np.maximum(np.minimum((1.0 - eps) * share, share - maxv), 0.0)
    Lmax[:, total <= 0] = np.inf
    assert balance_bounds_from_weights(vw, k, eps, fracs).tobytes() == Lmax.tobytes()
    assert lower_bounds_from_weights(vw, k, eps, fracs).tobytes() == Lmin.tobytes()


# ----------------------------------------------------------------------
# Oracle 5: the balance repair over Python lists
# ----------------------------------------------------------------------
def list_repair_balance(graph, parts, k, eps, rng, target_fracs=None):
    """``repair_balance`` as it was: loads by ``np.add.at``, per-part
    bounds, damages folded over whole-graph lists."""
    parts = np.asarray(parts, dtype=np.int64)
    xadj, adjncy, ew = graph.xadj.tolist(), graph.adjncy.tolist(), graph.eweights.tolist()
    pl, vw = parts.tolist(), graph.vweights
    W = np.zeros((k, vw.shape[1]))
    np.add.at(W, parts, vw)
    Lmax = balance_bounds_from_weights(vw, k, eps, target_fracs)
    Lmin = lower_bounds_from_weights(vw, k, eps, target_fracs)
    sizes = np.bincount(parts, minlength=k)
    budget, best_violation, stale = len(parts) + 32 * k, np.inf, 0

    def damage(v, src, dst):
        conn = _connectivity(v, xadj, adjncy, ew, pl)
        return conn.get(src, 0.0) - conn.get(dst, 0.0)

    def move(v, src, dst):
        nonlocal budget
        pl[v] = dst
        W[src] -= vw[v]
        W[dst] += vw[v]
        sizes[src] -= 1
        sizes[dst] += 1
        parts[v] = dst
        budget -= 1

    while budget > 0:
        over, under = np.argwhere(W > Lmax), np.argwhere(W < Lmin)
        if len(over) == 0 and len(under) == 0:
            break
        violation = float(np.maximum(W - Lmax, 0.0).sum() + np.maximum(Lmin - W, 0.0).sum())
        if violation < best_violation - 1e-12:
            best_violation, stale = violation, 0
        else:
            stale += 1
            if stale > 16:
                break
        moved, Wl = False, W.tolist()
        if len(over):
            excess = np.array([W[p, i] - Lmax[p, i] for p, i in over])
            p_over, i_con = (int(x) for x in over[int(np.argmax(excess))])
            cand = np.nonzero((parts == p_over) & (vw[:, i_con] > 0))[0]
            if len(cand) and sizes[p_over] > 1:
                if len(cand) > 256:
                    cand = rng.choice(cand, size=256, replace=False)
                fit = ~np.any(W + vw[cand][:, None, :] > np.maximum(Lmax, W), axis=2)
                fit[:, p_over] = False
                best = None
                for v, row in zip(cand.tolist(), fit.tolist()):
                    for b in range(k):
                        if row[b]:
                            key = (damage(v, p_over, b), Wl[b][i_con])
                            if best is None or key < best[0]:
                                best = (key, v, b)
                if best is not None:
                    move(best[1], p_over, best[2])
                    moved = True
        if not moved and len(under):
            deficit = np.array([Lmin[p, i] - W[p, i] for p, i in under])
            p_under, i_con = (int(x) for x in under[int(np.argmax(deficit))])
            best = None
            for d in np.argsort(-W[:, i_con])[: max(4, k // 4)].tolist():
                if d == p_under or sizes[d] <= 1 or W[d, i_con] <= W[p_under, i_con]:
                    continue
                cand = np.nonzero((parts == d) & (vw[:, i_con] > 0))[0]
                if len(cand) > 256:
                    cand = rng.choice(cand, size=256, replace=False)
                fit = ~np.any(W[p_under] + vw[cand] > Lmax[p_under], axis=1)
                for v in cand[fit].tolist():
                    key = (damage(v, d, p_under), -Wl[d][i_con])
                    if best is None or key < best[0]:
                        best = (key, v, d)
            if best is None:
                break
            move(best[1], best[2], p_under)
            moved = True
        if not moved:
            break
    return parts


@settings(max_examples=80, deadline=None)
@given(case=refine_cases(), seed=st.integers(0, 2**16))
def test_repair_is_the_list_repair(case, seed):
    graph, parts, k, fracs, _, eps = case
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = list_repair_balance(graph, parts.copy(), k, eps, rng_a, fracs)
    got = repair_balance(graph, parts.copy(), k, eps, rng_b, target_fracs=fracs)
    assert np.array_equal(got, want)
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


# ----------------------------------------------------------------------
# Oracle 6: greedy growing and heavy-edge matching as they were
# ----------------------------------------------------------------------
def parent_grow_bisection(graph, target_frac, rng, tries=4):
    """``grow_bisection`` with each try's cut from ``graph_cut`` and the
    degenerate split found by ``np.unique``."""
    n = graph.n_vertices
    total = graph.total_weight()
    scalar_w = (graph.vweights / np.where(total > 0, total, 1.0)).sum(axis=1)
    target = float(scalar_w.sum()) * target_frac
    scalar_w = scalar_w.tolist()
    xadj, adjncy, ew = graph.xadj.tolist(), graph.adjncy.tolist(), graph.eweights.tolist()
    best_side, best_cut = None, np.inf
    for t in range(max(1, tries)):
        seed = pseudo_peripheral_vertex(graph, rng) if t % 2 == 0 else int(rng.integers(n))
        side = [1] * n
        side[seed] = 0
        grown, heap, counter = scalar_w[seed], [], 0
        for u in adjncy[xadj[seed]: xadj[seed + 1]]:
            heapq.heappush(heap, (-1.0, counter, u))
            counter += 1
        while grown < target and heap:
            _, _, v = heapq.heappop(heap)
            if side[v] == 0:
                continue
            side[v] = 0
            grown += scalar_w[v]
            for idx in range(xadj[v], xadj[v + 1]):
                if side[adjncy[idx]] == 1:
                    heapq.heappush(heap, (-ew[idx], counter, adjncy[idx]))
                    counter += 1
        side = np.array(side, dtype=np.int64)
        if len(np.unique(side)) < 2:
            side[:] = 1
            side[: max(1, int(round(n * target_frac)))] = 0
        cut = graph_cut(graph, side, 2)
        if cut < best_cut:
            best_cut, best_side = cut, side
    return best_side


def parent_heavy_edge_matching(graph, rng, weight_cap=None):
    """``heavy_edge_matching`` with every vertex weight list made up front."""
    n = graph.n_vertices
    match, order, cid = [-1] * n, rng.permutation(n), 0
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    ew, vw = graph.eweights.tolist(), graph.vweights.tolist()
    cap = None if weight_cap is None else np.broadcast_to(weight_cap, len(vw[0])).tolist()
    if cap is not None and np.all(2.0 * graph.vweights.max(axis=0) <= cap):
        cap = None
    for v in order.tolist():
        if match[v] >= 0:
            continue
        best, best_w = -1, -np.inf
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] >= 0 or u == v or ew[idx] <= best_w:
                continue
            if cap is None or fits(vw[v], vw[u], cap):
                best_w, best = ew[idx], u
        match[v] = cid
        if best >= 0:
            match[best] = cid
        cid += 1
    return np.array(match, dtype=np.int64), cid


@settings(max_examples=60, deadline=None)
@given(case=refine_cases(), seed=st.integers(0, 2**16), frac=st.sampled_from([0.25, 0.5, 0.7]))
def test_growing_is_the_parent_loop(case, seed, frac):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = parent_grow_bisection(case[0], frac, rng_a)
    assert np.array_equal(grow_bisection(case[0], frac, rng_b), want)
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(case=refine_cases(), seed=st.integers(0, 2**16),
       cap=st.sampled_from([None, 1.5, 2.0, 100.0]))
def test_matching_is_the_parent_loop(case, seed, cap):
    """Caps that bind, that two of the heaviest just fit, and none."""
    graph = case[0]
    cap = None if cap is None else cap * graph.vweights.max(axis=0)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want_match, want_n = parent_heavy_edge_matching(graph, rng_a, cap)
    got_match, got_n = heavy_edge_matching(graph, rng_b, cap)
    assert np.array_equal(got_match, want_match) and got_n == want_n
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


# ----------------------------------------------------------------------
# Oracle 7: the rank layout's passes
# ----------------------------------------------------------------------
def parent_layout_tables(sem, parts, n_ranks, dof_level):
    """``gdofs``, owner masks, channels and levels as the per-rank passes
    built them: a flag pass per rank, then owner and count scatters, a
    stable sort of the shared pairs, a lexsort and a search per channel."""
    n_dof, ed = sem.n_dof, sem.element_dofs
    gdofs, present = [], np.zeros(n_dof, dtype=bool)
    for r in range(n_ranks):
        present[ed[np.nonzero(parts == r)[0]]] = True
        gdofs.append(np.nonzero(present)[0])
        present[:] = False
    owner_of = np.full(n_dof, n_ranks, dtype=np.int64)
    counts = np.zeros(n_dof, dtype=np.int64)
    for r in range(n_ranks - 1, -1, -1):
        owner_of[gdofs[r]] = r
        counts[gdofs[r]] += 1
    shared = [g[counts[g] > 1] for g in gdofs]
    g_all = np.concatenate(shared)
    r_all = np.repeat(np.arange(n_ranks), [len(sh) for sh in shared])
    by_dof = np.argsort(g_all, kind="stable")
    g_all, r_all = g_all[by_dof], r_all[by_dof]
    src, dst, dof = [], [], []
    for s in range(1, int(counts.max(initial=1))):
        same = g_all[s:] == g_all[:-s]
        lo, hi, g = r_all[:-s][same], r_all[s:][same], g_all[s:][same]
        src, dst, dof = src + [lo, hi], dst + [hi, lo], dof + [g, g]
    src, dst, dof = (np.concatenate(x or [g_all[:0]]) for x in (src, dst, dof))
    by_pair = np.lexsort((dof, dst, src))
    src, dst, dof = src[by_pair], dst[by_pair], dof[by_pair]
    bounds = np.flatnonzero(np.diff(src * n_ranks + dst, prepend=-1, append=-1))
    peers, indices = [[] for _ in range(n_ranks)], [[] for _ in range(n_ranks)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        peers[int(src[lo])].append(int(dst[lo]))
        indices[int(src[lo])].append(np.searchsorted(gdofs[int(src[lo])], dof[lo:hi]))
    owner = [owner_of[g] == r for r, g in enumerate(gdofs)]
    return gdofs, owner, peers, indices, [dof_level[g].copy() for g in gdofs]


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8])
def test_layout_is_the_per_rank_passes(n_ranks):
    """Random element -> rank maps on a 3D trench (up to eight ranks at a
    DOF, empty ranks) and every backend's product on the same ids."""
    mesh = trench_mesh(6, 4, 3, band_radii=[0.8])
    sem = SemND(mesh, order=2)
    dof_level = np.random.default_rng(n_ranks).integers(1, 4, sem.n_dof)
    for seed in range(3):
        parts = np.random.default_rng(seed).integers(0, n_ranks, mesh.n_elements)
        if n_ranks > 2 and seed == 0:
            parts[parts == 1] = 0  # an empty rank
        lay = build_rank_layout(sem, parts, n_ranks, dof_level=dof_level, backend="matfree")
        gdofs, owner, peers, indices, levels = parent_layout_tables(sem, parts, n_ranks, dof_level)
        for got, want in ((lay.gdofs, gdofs), (lay.owner, owner), (lay.dof_level_local, levels),
                          (sum(lay.channels.indices, []), sum(indices, []))):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert lay.channels.peers == peers
