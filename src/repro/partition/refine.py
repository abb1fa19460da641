"""K-way boundary refinement and balance repair for graph partitions.

A greedy variant of Fiduccia-Mattheyses: sweep boundary vertices, move
each to the neighbouring part with the largest edge-cut gain subject to
the multi-constraint balance bounds (Eq. (19)); repeat until a pass makes
no move.  ``repair_balance`` then enforces the bounds directly, trading
cut for balance — this is the mechanism behind PaToH's ``final_imbal``
knob in the paper's comparison (tighter balance <-> more cut).

The per-vertex sweeps are sequential by nature and run on Python
floats, which round exactly as NumPy float64 does, so each comparison
and sum is the one an array expression would compute.

The graph sweep keeps, per vertex, the count of its adjacency entries
into other parts, updated by each move, so a pass's boundary is the
nonzero counts (ascending: the set a recount finds, so the shuffle draws
the same order).  It caches each vertex's candidate moves ``(b, gain)``
— parts ``b`` other than its own with ``gain >= 0``, in adjacency order
— across passes; a move drops the lists of the mover and its neighbours
(the Fiduccia-Mattheyses gain update), a pass computes the lists its
boundary lacks in one array step with the same left-fold sums, and a
vertex with an empty list is passed over without a call.  Part loads,
their maximum normalized load and ``parts`` itself change in place per
move; a vertex's adjacency is read only when it moves or its list is
rebuilt.  The repair keeps each vertex's connectivity the same way.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.partition.graph import Graph, concat_ranges
from repro.util.errors import PartitionError
from repro.util.validation import require


def part_weights(graph: Graph, parts: np.ndarray, k: int) -> np.ndarray:
    """``(k, P)`` per-part, per-constraint weight totals."""
    return _loads(graph.vweights, parts, k)


def _loads(vw: np.ndarray, parts: np.ndarray, k: int) -> np.ndarray:
    """``(k, P)`` part loads, each summed in vertex order from 0.0 (the
    fold ``np.add.at`` makes, one ``bincount`` per constraint)."""
    return np.stack([np.bincount(parts, weights=w, minlength=k) for w in vw.T], axis=1)


def _shares(vw: np.ndarray, k: int, target_fracs: np.ndarray | None):
    """``(total, maxv, share)``: per-constraint totals and maxima, and
    ``share[part] = total * target_fracs[part]``."""
    total = vw.sum(axis=0)
    fracs = np.full(k, 1.0 / k) if target_fracs is None else np.asarray(target_fracs, np.float64)
    require(fracs.shape == (k,), "target_fracs must be (k,)", PartitionError)
    return total, vw.max(axis=0), fracs[:, None] * total


def balance_bounds_from_weights(
    vweights: np.ndarray, k: int, eps: float, target_fracs: np.ndarray | None = None
) -> np.ndarray:
    """Upper bounds ``Lmax[part, i]`` implementing Eq. (19) feasibly.

    The theoretical bound ``(1+eps) W_i frac`` is widened to always admit
    at least one maximal vertex above the average, otherwise constraints
    with few heavy vertices (tiny fine levels) would make every move
    illegal.  Constraints with zero total weight are inactive (+inf).
    """
    require(k >= 1, "k must be >= 1", PartitionError)
    require(eps >= 0, "eps must be >= 0", PartitionError)
    total, maxv, share = _shares(np.asarray(vweights, dtype=np.float64), k, target_fracs)
    Lmax = np.maximum((1.0 + eps) * share, share + maxv)
    Lmax[:, total <= 0] = np.inf
    return Lmax


def kway_refine(
    graph: Graph,
    parts: np.ndarray,
    k: int,
    eps: float = 0.05,
    rng: np.random.Generator | None = None,
    max_passes: int = 8,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy K-way cut refinement under multi-constraint bounds.

    Mutates and returns ``parts``.  Zero-gain moves are taken only when
    they strictly reduce the maximum normalized part load, which lets the
    sweep walk along plateaus without cycling.
    """
    parts = np.asarray(parts, dtype=np.int64)
    xadj, adjncy, n = graph.xadj, graph.adjncy, graph.n_vertices
    src = np.arange(n, dtype=np.int64).repeat(xadj[1:] - xadj[:-1])
    ext = np.bincount(src[parts[src] != parts[adjncy]], minlength=n)  # entries into other parts
    known = np.zeros(n, dtype=bool)  # cands[v] is current
    cands: list = [None] * n  # a vertex's candidate list; None: stale
    pl = parts.tolist()

    def boundary() -> np.ndarray:
        order = ext.nonzero()[0]
        todo = order[~known[order]]
        if len(todo):
            _candidate_lists(graph, parts, k, todo, cands)
            known[todo] = True
        return order

    def gains(v: int, a: int) -> list[tuple[int, float]]:
        conn = _connectivity(graph, v, pl)
        internal = conn.get(a, 0.0)
        cands[v] = [(b, c - internal) for b, c in conn.items() if b != a and c - internal >= 0.0]
        known[v] = True
        return cands[v]

    def on_move(v: int, a: int, b: int) -> None:
        pl[v] = b
        cands[v] = None
        nbrs = adjncy[xadj[v]:xadj[v + 1]]
        known[v] = False
        known[nbrs] = False
        for u in nbrs.tolist():  # the CSR is symmetric: v's neighbours
            cands[u] = None
            pu = pl[u]
            if pu == a:  # an entry u -> v that now leaves u's part, and back
                ext[u] += 1
                ext[v] += 1
            elif pu == b and u != v:
                ext[u] -= 1
                ext[v] -= 1

    return refine_loop(
        graph.vweights, parts, k, eps, rng, max_passes, boundary, gains, on_move, target_fracs,
        lists=cands,
    )


def _candidate_lists(graph: Graph, parts: np.ndarray, k: int, vs: np.ndarray, cands: list) -> None:
    """``cands[v]`` for the vertices ``vs``, as :func:`_connectivity` would
    lead to them: ``bincount`` folds each (vertex, part) sum in slot
    order, and the slot where a pair first appears orders it."""
    pos, owner = concat_ranges(graph.xadj[vs], graph.xadj[vs + 1])
    cell = owner * k + parts[graph.adjncy[pos]]  # (vertex, part), dense
    conn = np.bincount(cell, weights=graph.eweights[pos], minlength=len(vs) * k)
    first = np.full(len(vs) * k, len(cell))
    np.minimum.at(first, cell, np.arange(len(cell)))
    cell = cell[first[cell] == np.arange(len(cell))]  # by vertex, then first appearance
    o, b = cell // k, cell % k
    a = parts[vs][o]
    gain = conn[cell] - conn[o * k + a]
    keep = (b != a) & (gain >= 0.0)
    for v in vs.tolist():
        cands[v] = ()
    for v, b, g in zip(vs[o[keep]].tolist(), b[keep].tolist(), gain[keep].tolist()):
        cands[v] += ((b, g),)


def refine_loop(
    vw: np.ndarray,
    parts: np.ndarray,
    k: int,
    eps: float,
    rng: np.random.Generator | None,
    max_passes: int,
    boundary: Callable[[], np.ndarray],
    gains: Callable[[int, int], Iterable[tuple[int, float]]],
    on_move: Callable[[int, int, int], None],
    target_fracs: np.ndarray | None = None,
    lists: list | None = None,
) -> np.ndarray:
    """The sweep of :func:`kway_refine`, for any cut model.

    ``boundary()`` lists the vertices to visit (shuffled here; ``parts``
    is current when it is called), ``gains(v, a)`` yields ``(b, gain)``
    for the candidate parts of ``v`` in part ``a`` (an empty sequence
    skips ``v`` at once), and ``on_move(v, a, b)`` updates the caller's
    incremental state.  ``lists[v]``, where not ``None``, is the caller's
    current ``gains(v, ·)``, read in place of the call.  Mutates and
    returns ``parts``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    W = _loads(vw, parts, k).tolist()
    Lmax = balance_bounds_from_weights(vw, k, eps, target_fracs).tolist()
    sizes = np.bincount(parts, minlength=k).tolist()
    total = vw.sum(axis=0)
    norm = np.where(total > 0, total, 1.0).tolist()
    Wn = [max(x / n for x, n in zip(w, norm)) for w in W]  # max(W[p] / norm)
    pl = parts.tolist()
    lists = [None] * len(pl) if lists is None else lists
    for _ in range(max_passes):
        order = boundary()
        if len(order) == 0:
            break
        rng.shuffle(order)
        moved = 0
        for v in order.tolist():
            cands = lists[v]
            if cands is None:
                cands = gains(v, pl[v])
            if not cands:
                continue
            a = pl[v]
            if sizes[a] <= 1:
                continue
            wv = vw[v].tolist()
            best_b, best_gain, best_tie, load_a = -1, 0.0, 0.0, None
            for b, gain in cands:
                if b == a or gain < 0.0 or not fits(W[b], wv, Lmax[b]):
                    continue
                # Tie-break: improvement of the max normalized load of the
                # two parts involved, i.e. max(W / norm) before and after.
                if load_a is None:
                    load_a = max((x - y) / n for x, y, n in zip(W[a], wv, norm))
                after = max(load_a, max((x + y) / n for x, y, n in zip(W[b], wv, norm)))
                tie = max(Wn[a], Wn[b]) - after
                if gain > best_gain or (gain == best_gain and tie > best_tie):
                    best_b, best_gain, best_tie = b, gain, tie
            if best_b >= 0 and (best_gain > 0.0 or best_tie > 1e-15):
                on_move(v, a, best_b)
                W[a] = [x - y for x, y in zip(W[a], wv)]
                W[best_b] = [x + y for x, y in zip(W[best_b], wv)]
                Wn[a], Wn[best_b] = (max(x / n for x, n in zip(W[p], norm)) for p in (a, best_b))
                sizes[a] -= 1
                sizes[best_b] += 1
                pl[v] = parts[v] = best_b
                moved += 1
        if moved == 0:
            break
    return parts


def _connectivity(graph: Graph, v: int, pl: list) -> dict[int, float]:
    """Edge weight from ``v`` to each neighbouring part, in adjacency order."""
    lo, hi = graph.xadj[v], graph.xadj[v + 1]
    conn: dict[int, float] = {}
    for u, w in zip(graph.adjncy[lo:hi].tolist(), graph.eweights[lo:hi].tolist()):
        b = pl[u]
        conn[b] = conn.get(b, 0.0) + w
    return conn


def fits(load: list[float], w: list[float], bound: list[float]) -> bool:
    """``not np.any(load + w > bound)`` on Python floats."""
    return not any(x + y > b for x, y, b in zip(load, w, bound))


def lower_bounds_from_weights(
    vweights: np.ndarray, k: int, eps: float, target_fracs: np.ndarray | None = None
) -> np.ndarray:
    """Lower bounds ``Lmin[part, i]`` complementing Eq. (19).

    Eq. (19) only bounds parts from above, but ``(max-min)/max`` imbalance
    (Eq. (21)) also punishes starved parts, so strict enforcement needs a
    floor: ``(1-eps) W_i frac`` minus one maximal vertex of slack
    (0 where the average share is below one vertex — granularity limit).
    """
    _, maxv, share = _shares(np.asarray(vweights, dtype=np.float64), k, target_fracs)
    return np.maximum(np.minimum((1.0 - eps) * share, share - maxv), 0.0)


def repair_balance(
    graph: Graph,
    parts: np.ndarray,
    k: int,
    eps: float,
    rng: np.random.Generator | None = None,
    max_moves: int | None = None,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """Force every constraint inside its Eq.-(19) band, cheapest cut first.

    Alternates two repairs until clean or the budget runs out: push a
    vertex out of the worst *overloaded* ``(part, constraint)`` to the
    part with the most headroom, and pull a vertex into the worst
    *underloaded* one from the most loaded donor — always choosing the
    move with the least edge-cut damage.  Mutates and returns ``parts``.
    """
    parts = np.asarray(parts, dtype=np.int64)
    pl = parts.tolist()
    conns: dict[int, dict[int, float]] = {}  # dropped by a move of the vertex or a neighbour

    def damages(v: int, src: int) -> Callable[[int], float]:
        conn = conns.get(v)
        if conn is None:
            conn = conns[v] = _connectivity(graph, v, pl)
        internal = conn.get(src, 0.0)
        return lambda dst: internal - conn.get(dst, 0.0)

    def on_move(v: int, src: int, dst: int) -> None:
        pl[v] = dst
        for u in [v, *graph.adjncy[graph.xadj[v]:graph.xadj[v + 1]].tolist()]:
            conns.pop(u, None)

    return repair_loop(
        graph.vweights, parts, k, eps, rng, damages, on_move, max_moves, target_fracs
    )


def repair_loop(
    vw: np.ndarray,
    parts: np.ndarray,
    k: int,
    eps: float,
    rng: np.random.Generator | None,
    damages: Callable[[int, int], Callable[[int], float]],
    on_move: Callable[[int, int, int], None],
    max_moves: int | None = None,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """The push/pull loop of :func:`repair_balance`, for any cut model.

    ``damages(v, src)(dst)`` is the cut cost of moving ``v`` from ``src``
    to ``dst``; ``on_move(v, src, dst)`` updates the caller's incremental
    state.  Mutates and returns ``parts``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    W = _loads(vw, parts, k)
    Lmax = balance_bounds_from_weights(vw, k, eps, target_fracs)
    Lmin = lower_bounds_from_weights(vw, k, eps, target_fracs)
    sizes = np.bincount(parts, minlength=k)
    budget = max_moves if max_moves is not None else len(parts) + 32 * k

    def move(v: int, src: int, dst: int) -> None:
        nonlocal budget
        on_move(v, src, dst)
        W[src] -= vw[v]
        W[dst] += vw[v]
        sizes[src] -= 1
        sizes[dst] += 1
        parts[v] = dst
        budget -= 1

    # Stagnation guard: push/pull repairs can oscillate on granularity-
    # limited constraints (a handful of heavy vertices per part); bail out
    # when the total violation stops shrinking.
    best_violation = np.inf
    stale = 0

    while budget > 0:
        over = np.argwhere(W > Lmax)
        under = np.argwhere(W < Lmin)
        if len(over) == 0 and len(under) == 0:
            break
        violation = float(
            np.maximum(W - Lmax, 0.0).sum() + np.maximum(Lmin - W, 0.0).sum()
        )
        if violation < best_violation - 1e-12:
            best_violation = violation
            stale = 0
        else:
            stale += 1
            if stale > 16:
                break
        moved = False
        Wl = W.tolist()
        if len(over):
            excess = np.array([W[p, i] - Lmax[p, i] for p, i in over])
            p_over, i_con = (int(x) for x in over[int(np.argmax(excess))])
            cand = np.nonzero((parts == p_over) & (vw[:, i_con] > 0))[0]
            if len(cand) and sizes[p_over] > 1:
                if len(cand) > 256:
                    cand = rng.choice(cand, size=256, replace=False)
                # fit[i, b]: moving cand[i] to b worsens no other violation
                fit = ~np.any(W + vw[cand][:, None, :] > np.maximum(Lmax, W), axis=2)
                fit[:, p_over] = False
                best = None  # ((damage, dest_load), v, dest)
                for v, row in zip(cand.tolist(), fit.tolist()):
                    if not any(row):
                        continue
                    damage = damages(v, p_over)
                    for b in range(k):
                        if not row[b]:
                            continue
                        key = (damage(b), Wl[b][i_con])
                        if best is None or key < best[0]:
                            best = (key, v, b)
                if best is not None:
                    _, v, b = best
                    move(v, p_over, b)
                    moved = True
        if not moved and len(under):
            deficit = np.array([Lmin[p, i] - W[p, i] for p, i in under])
            p_under, i_con = (int(x) for x in under[int(np.argmax(deficit))])
            donors = np.argsort(-W[:, i_con])
            best = None
            for d in donors[: max(4, k // 4)].tolist():
                if d == p_under or sizes[d] <= 1 or W[d, i_con] <= W[p_under, i_con]:
                    continue
                cand = np.nonzero((parts == d) & (vw[:, i_con] > 0))[0]
                if len(cand) > 256:
                    cand = rng.choice(cand, size=256, replace=False)
                fit = ~np.any(W[p_under] + vw[cand] > Lmax[p_under], axis=1)
                for v in cand[fit].tolist():
                    key = (damages(v, d)(p_under), -Wl[d][i_con])
                    if best is None or key < best[0]:
                        best = (key, v, d)
            if best is None:
                break
            _, v, d = best
            move(v, d, p_under)
            moved = True
        if not moved:
            break
    return parts
