"""Distributed LTS == serial LTS for *any* level assignment and *any*
element -> rank map, on every tier (the CSR oracle, NumPy, fused).

The executor runs the serial solver's one compact cycle per rank, over
rank-local active sets, so "distributed == serial" compares shared
arithmetic with itself plus an exchange: the literal Algorithm 1
oracle (``tests/oracles/algorithm1.py``) shares no arithmetic with the
partitioned path, and the distributed result is held to it too.  What the serial code never has
to get right is the exchange: a shared DOF that only a *peer's*
gray-halo element writes still receives a nonzero through the halo sum,
so it must be in the rank's active set although no local product
reaches it.  Random partitions of small meshes hit that case constantly
(dropping the exchange-plan indices from the active sets fails this
file), along with cuts through the finest region, DOFs shared by three
and more ranks, ranks with no fine element, ranks with only fine
elements and ranks with no element at all.

One rank is more than close: every rank applies its share of the
serial ``M^{-1} K`` (``1/M`` folded into its product), so a one-rank
layout plans the serial run, and its result is the serial solver's over
the same tier's operator bit for bit, Dirichlet masks included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, LTSPlan, dof_levels_from_elements
from repro.core.operator import _restrict_levels
from repro.mesh import uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld
from repro.sem import (
    AnisotropicElasticSemND, ElasticSemND, SemND,
    fused, point_source, ricker,
)
from oracles import csr

N_CYCLES = 6


def _system(dim: int, dirichlet: bool = False):
    shape, order = ((4, 3), 3) if dim == 2 else ((3, 2, 2), 2)
    mesh = uniform_grid(shape)
    sem = SemND(mesh, order=order, dirichlet=dirichlet)
    return sem, assign_levels(mesh, c_cfl=0.4, order=order).dt


def _draw_levels(data, ne: int) -> np.ndarray:
    """Levels of ``ne`` elements from a random subset of ``{2, 3, 4}``
    over at least one level-1 element."""
    fine = data.draw(st.sets(st.sampled_from([2, 3, 4])), label="fine levels")
    levels = np.array(data.draw(
        st.lists(st.sampled_from([1, *sorted(fine)]), min_size=ne, max_size=ne),
        label="element levels",
    ))
    levels[data.draw(st.integers(0, ne - 1), label="coarse element")] = 1
    return levels


def _tiers():
    return ["assembled", "numpy", "fused"] if fused.available() else ["assembled", "numpy"]


def _assert_matches_serial(sem, dt, levels, parts, n_ranks, force, seed):
    dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
    u0 = np.random.default_rng(seed).standard_normal(sem.n_dof)
    v0 = np.zeros(sem.n_dof)
    oracles = [
        LTSNewmarkSolver(csr.A(sem), dof_level, dt, force=force).run(u0, v0, N_CYCLES),
        algorithm1(csr.A(sem), dof_level, dt, u0, v0, N_CYCLES, force=force),
    ]
    for tier in _tiers():
        layout = csr.tier_layout(sem, parts, n_ranks, tier, dof_level)
        world = MailboxWorld(n_ranks)
        solver = DistributedLTSSolver(layout, dt, world=world, force=force)
        ud, vd = solver.run(u0, v0, N_CYCLES)
        solver.check_no_leaks()
        assert n_ranks > 1 or world.sent_messages == 0
        for us, vs in oracles:
            assert np.abs(ud - us).max() <= 1e-12 * np.abs(us).max(), tier
            assert np.abs(vd - vs).max() <= 1e-12 * max(np.abs(vs).max(), 1.0), tier
        if n_ranks == 1:  # the serial run over the same tier's operator, bitwise
            op = csr.tier_operator(sem, tier)
            us, vs = LTSNewmarkSolver(op, dof_level, dt, force=force).run(u0, v0, N_CYCLES)
            assert ud.tobytes() == us.tobytes() and vd.tobytes() == vs.tobytes(), tier


class TestRandomPartitions:
    """The strategy of ``tests/core/test_lts_newmark.py``'s
    ``TestRandomAssignments`` (levels from a random subset of ``{2, 3,
    4}`` over at least one level-1 element: skipped, single and sparse
    levels, jumps) times a uniformly random element -> rank map on 1-5
    ranks, which on a dozen elements leaves ranks empty, purely fine or
    purely coarse and shares corner DOFs among up to four ranks; one
    rank is the serial cycle behind the executor's plan, nothing sent."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]),
           source=st.sampled_from(["none", "point", "dense"]))
    def test_distributed_matches_serial_optimized(self, data, dim, source):
        sem, dt = _system(dim)
        ne = sem.element_dofs.shape[0]
        levels = _draw_levels(data, ne)
        n_ranks = data.draw(st.integers(1, 5), label="ranks")
        parts = np.array(
            data.draw(
                st.lists(st.integers(0, n_ranks - 1), min_size=ne, max_size=ne),
                label="element ranks",
            )
        )
        force = None
        if source != "none":
            dof = data.draw(st.integers(0, sem.n_dof - 1), label="source dof")
            point = point_source(sem.n_dof, dof, sem.M, ricker(f0=0.5, t0=2 * dt))
            force = point if source == "point" else (lambda t: point(t))
        seed = data.draw(st.integers(0, 2**16), label="field seed")
        _assert_matches_serial(sem, dt, levels, parts, n_ranks, force, seed)


class TestLevelSortedNumbering:
    """What the plan's level-sorted numbering promises, per rank, over
    the same random levels (skipped ones included), partitions on 1-5
    ranks and every tier: each numbering is a permutation of its
    replica, blocks kept ascending; each depth's active set is exactly
    its tail; a fine level's product neither reads nor writes the
    prefix, and its relabelled twin is it on the tail, bitwise; each
    level's exchange indices lie in that level's tail and name the
    DOFs the ascending channels name; the map scatters and gathers
    losslessly."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_every_depth_is_a_tail(self, data, dim):
        sem, _ = _system(dim)
        ne = sem.element_dofs.shape[0]
        levels = _draw_levels(data, ne)
        n_ranks = data.draw(st.integers(1, 5), label="ranks")
        parts = np.array(data.draw(
            st.lists(st.integers(0, n_ranks - 1), min_size=ne, max_size=ne),
            label="element ranks",
        ))
        dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        x = rng.standard_normal(sem.n_dof)
        for tier in _tiers():
            layout = csr.tier_layout(sem, parts, n_ranks, tier, dof_level)
            plan = LTSPlan(layout)
            m = plan.replicas
            assert m.gather(m.scatter(x)).tobytes() == x.tobytes()
            if len(plan.active_levels) == 1:
                assert m is layout
                continue
            self._check_ranks(layout, plan, rng)

    @staticmethod
    def _check_ranks(layout, plan, rng):
        levels, m = plan.active_levels, plan.replicas
        # Every level's product and row support in each rank's ascending
        # numbering, and the exchange channels they make.
        masks = [[lv == k for k in levels] for lv in layout.dof_level_local]
        make, supports = zip(*(
            _restrict_levels(K, mk) for K, mk in zip(layout.K_local, masks)
        ))
        restr = [[build() for build in row] for row in make]
        channels = [layout.exchange_channels([s[j] for s in supports])
                    for j in range(len(levels))]
        for r, nb in enumerate(plan.numberings):
            # Position j of the plan's replica holds local DOF order[j].
            n, order = nb.n, np.searchsorted(layout.gdofs[r], m.gdofs[r])
            assert np.array_equal(np.sort(m.gdofs[r]), layout.gdofs[r])
            assert np.array_equal(m.gdofs[r][m.sorter[r]], layout.gdofs[r])
            assert np.array_equal(m.owner[r], layout.owner[r][order])
            offsets = [0, *(n - d.n for d in nb.depths)]
            for lo, hi in zip(offsets, offsets[1:] + [n]):
                assert np.all(np.diff(order[lo:hi]) > 0)  # each block ascending
            active = np.zeros(n, dtype=bool)
            for j in range(len(levels) - 1, 0, -1):  # finest first
                active |= masks[r][j] | supports[r][j]
                for ix in channels[j].indices[r]:
                    active[ix] = True
                tail = order[offsets[j]:]
                assert np.array_equal(np.sort(tail), np.flatnonzero(active)), (r, j)
            # Products: fine ones confined to their tails, every one its
            # relabelled twin, bitwise.
            xs = rng.standard_normal(n)
            for j, rs in enumerate([nb.restr0, *(d.restr for d in nb.depths)]):
                off = offsets[j]
                outs = []
                for _ in range(2):  # the prefix redrawn: nothing may change
                    xs[:off] = rng.standard_normal(off)
                    xa = np.empty(n)
                    xa[order] = xs
                    outs.append(restr[r][j].apply(xa)[order])
                assert outs[0].tobytes() == outs[1].tobytes()
                assert not outs[0][:off].any()
                assert rs.apply(xs[off:]).tobytes() == outs[0][off:].tobytes()
            # Exchange indices: inside the level's tail, naming the DOFs
            # the ascending channels name, channel by channel.
            for j, k in enumerate(levels):
                for ix, ax in zip(plan.exchange[k].indices[r], channels[j].indices[r]):
                    assert ix.min() >= 0 and ix.max() < n - offsets[j]
                    assert np.array_equal(m.gdofs[r][offsets[j] + ix], layout.gdofs[r][ax])


#: 4 x 3 quads, element ``e = 3 * ix + iy``: a fine block in the middle
#: columns with a level jump next to it.
_BLOCK = [1, 1, 1, 3, 4, 1, 2, 4, 1, 1, 1, 1]
#: One finest element in the corner, a level-2 one beside it (three
#: active levels); element 4 touches the corner one by a corner only.
_CORNER = [3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

_NAMED = {
    # the cut runs through the finest elements (4 and 7 on either side)
    "cut_through_finest": (_BLOCK, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2),
    # rank 1 owns exactly the fine elements, ranks 0 and 2 none of them
    "fine_only_rank": (_BLOCK, [0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 2, 2], 3),
    # rank 2 owns nothing at all
    "empty_rank": (_BLOCK, [0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3], 4),
    # the elements round the interior corner of 3, 4, 6, 7 sit on four
    # ranks: one DOF with three peers
    "four_way_corner": (_BLOCK, [0, 0, 0, 0, 1, 1, 2, 3, 3, 2, 2, 3], 4),
    # the cut runs along the far side of the gray halo: rank 1 has no
    # fine column and no element its fine-level product could write,
    # yet element 4 (rank 0) writes the DOFs they share
    "halo_written_by_peer_only": (_CORNER, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2),
    # Dirichlet rows and columns on one rank: the serial run, bitwise
    "one_rank_dirichlet": (_BLOCK, [0] * 12, 1),
}
#: Cases on the system with a Dirichlet boundary.
_DIRICHLET = {"one_rank_dirichlet"}


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_named_partitions_match_serial(name):
    levels, parts, n_ranks = (np.array(x) for x in _NAMED[name])
    sem, dt = _system(2, dirichlet=name in _DIRICHLET)
    if name == "empty_rank":
        assert 2 not in parts
    if name == "fine_only_rank":
        assert np.all(levels[parts == 1] > 1) and np.all(levels[parts != 1] == 1)
    if name == "halo_written_by_peer_only":  # the inner reconstruct runs
        dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
        assert np.unique(dof_level).tolist() == [1, 2, 3]
    _assert_matches_serial(sem, dt, levels, parts, int(n_ranks), None, seed=7)


#: Every kernel family: name -> (system on a mesh, mesh shape).  The
#: Voigt stiffness is an arbitrary positive-definite one.
_C2 = np.array([[4.0, 1.0, 0.3], [1.0, 3.0, 0.2], [0.3, 0.2, 1.5]])
_PHYSICS = {
    "acoustic1d": (lambda m, d: SemND(m, order=3, dirichlet=d), (12,)),
    "acoustic2d": (lambda m, d: SemND(m, order=3, dirichlet=d), (4, 3)),
    "acoustic3d": (lambda m, d: SemND(m, order=2, dirichlet=d), (3, 2, 2)),
    "elastic2d": (lambda m, d: ElasticSemND(m, order=3, dirichlet=d), (4, 3)),
    "elastic3d": (lambda m, d: ElasticSemND(m, order=2, dirichlet=d), (3, 2, 2)),
    "anisotropic2d": (
        lambda m, d: AnisotropicElasticSemND(m, order=3, C=_C2, dirichlet=d), (4, 3),
    ),
}
_needs_fused = pytest.mark.skipif(
    not fused.available(), reason="no C compiler: fused tier unavailable"
)
_TIERS = ("assembled", "numpy", "fused")


def _one_rank_cases():
    for name in sorted(_PHYSICS):
        for tier in _TIERS:
            if tier == "fused" and name.endswith("1d"):
                continue  # no 1D kernel in the fused tier
            for dirichlet in (False, True):
                marks = [_needs_fused] if tier == "fused" else []
                yield pytest.param(name, tier, dirichlet, False, marks=marks,
                                   id=f"{name}-{tier}-{'dirichlet' if dirichlet else 'free'}")
    # Assembly over several chunks, on per-element random wave speeds
    # (uniform ones sum to the same entries in any grouping).
    for name in ("acoustic2d", "acoustic3d"):
        yield pytest.param(name, "assembled", False, True, id=f"{name}-assembled-chunked")


@pytest.mark.parametrize("name,tier,dirichlet,chunked", _one_rank_cases())
def test_one_rank_is_the_serial_run(name, tier, dirichlet, chunked, monkeypatch):
    """Every kernel family, one component or several: a one-rank layout
    folds the same ``1/M`` (masked on Dirichlet rows) into the same
    product, so its run is the serial run over the tier's operator, bit
    for bit, point source included.  The assembled tier holds it when
    assembly takes several chunks (``chunked``: two elements each):
    the rank's CSR is summed in the serial ``K``'s chunks."""
    make, shape = _PHYSICS[name]
    mesh = uniform_grid(shape)
    if chunked:
        mesh.c = np.random.default_rng(5).uniform(1.0, 3.0, mesh.n_elements)
    sem = make(mesh, dirichlet)
    if chunked:
        monkeypatch.setattr(csr, "_CHUNK_ENTRIES", 2 * sem.element_dofs.shape[1] ** 2)
    dt = assign_levels(mesh, c_cfl=0.4, order=sem.order, assembler=sem).dt
    ne = sem.element_dofs.shape[0]
    dof_level = dof_levels_from_elements(sem.element_dofs, np.resize(_BLOCK, ne), sem.n_dof)
    assert dof_level.max() == 4
    force = point_source(sem.n_dof, sem.n_dof // 2, sem.M, ricker(f0=0.5, t0=2 * dt))
    u0, v0 = np.random.default_rng(3).standard_normal(sem.n_dof), np.zeros(sem.n_dof)

    op = csr.tier_operator(sem, tier)
    us, vs = LTSNewmarkSolver(op, dof_level, dt, force=force).run(u0, v0, N_CYCLES)
    layout = csr.tier_layout(sem, np.zeros(ne, dtype=np.int64), 1, tier, dof_level)
    world = MailboxWorld(1)
    ud, vd = DistributedLTSSolver(layout, dt, world=world, force=force).run(u0, v0, N_CYCLES)
    assert world.sent_messages == 0
    assert np.abs(us).max() > 0 and not np.isnan(us).any()
    assert ud.tobytes() == us.tobytes() and vd.tobytes() == vs.tobytes()
