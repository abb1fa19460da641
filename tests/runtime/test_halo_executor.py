"""Distributed-vs-serial equivalence: the parallelization correctness proof.

The paper's parallel LTS must compute the same scheme as serial LTS for
*any* partition — balanced or not, LTS-aware or not.  These tests pin
that: the mailbox-MPI executor reproduces the serial solvers to float
round-off on 1D and 2D systems, across rank counts and partitioners.
"""

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core import NewmarkSolver
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import refined_interval, uniform_grid
from repro.runtime import (
    DistributedLTSSolver,
    MailboxWorld,
    build_rank_layout,
)
from repro.sem import SemND, fused
from repro.util.errors import PartitionError, SolverError
from oracles import csr


@pytest.fixture(scope="module")
def sys1d():
    """Levels graded round the refined part: three active levels, so the
    recursion's inner reconstruct runs."""
    mesh = refined_interval(12, 8, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4, grade=True)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    assert np.unique(dof_level).tolist() == [1, 2, 3]
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
    v0 = staggered_initial_velocity(csr.A(sem), a.dt, u0, np.zeros_like(u0))
    return mesh, sem, a, dof_level, u0, v0


def block_partition(n_elem: int, k: int) -> np.ndarray:
    return (np.arange(n_elem) * k // n_elem).astype(np.int64)


class TestLayout:
    def test_scatter_gather_roundtrip(self, sys1d):
        mesh, sem, a, dof_level, u0, _ = sys1d
        lay = build_rank_layout(sem, block_partition(mesh.n_elements, 3), 3)
        assert np.array_equal(lay.gather(lay.scatter(u0)), u0)

    def test_owner_masks_partition_dofs(self, sys1d):
        mesh, sem, _, _, _, _ = sys1d
        lay = build_rank_layout(sem, block_partition(mesh.n_elements, 4), 4)
        owned = np.zeros(sem.n_dof, dtype=int)
        for r in range(4):
            np.add.at(owned, lay.gdofs[r][lay.owner[r]], 1)
        assert np.all(owned == 1)

    def test_halo_symmetry(self, sys1d):
        mesh, sem, _, _, _, _ = sys1d
        lay = build_rank_layout(sem, block_partition(mesh.n_elements, 3), 3)
        ch = lay.channels
        for r in range(3):
            for peer, idx in zip(ch.peers[r], ch.indices[r]):
                assert r in ch.peers[peer]
                back = ch.indices[peer][ch.peers[peer].index(r)]
                # Both sides exchange the same number of shared DOFs,
                # referring to the same global ids in the same order.
                assert len(back) == len(idx)
                assert np.array_equal(lay.gdofs[r][idx], lay.gdofs[peer][back])

    @pytest.mark.parametrize("dim,n_ranks", [(2, 2), (2, 5), (3, 4), (3, 7)])
    def test_halo_pairing_matches_per_dof_construction(self, dim, n_ranks):
        """The one-sort pairing of shared DOFs gives the peers and
        indices of the per-DOF dictionary construction it replaced, on
        scattered partitions (corner DOFs shared by many ranks, and with
        7 ranks on 12 elements ranks that own nothing)."""
        from repro.sem import SemND

        sem = (
            SemND(uniform_grid((5, 4)), order=3) if dim == 2
            else SemND(uniform_grid((3, 2, 2)), order=2)
        )
        ne = sem.element_dofs.shape[0]
        parts = np.random.default_rng(n_ranks).integers(0, n_ranks, ne)
        lay = build_rank_layout(sem, parts, n_ranks)

        touching: dict[int, list[int]] = {}
        for r in range(n_ranks):
            for g in lay.gdofs[r]:
                touching.setdefault(int(g), []).append(r)
        shared: dict[tuple[int, int], list[int]] = {}
        for g, ranks in touching.items():
            for a in ranks:
                for b in ranks:
                    if a != b:
                        shared.setdefault((a, b), []).append(g)
        assert max(len(ranks) for ranks in touching.values()) >= min(3, n_ranks)
        for r in range(n_ranks):
            peers = sorted({b for (a, b) in shared if a == r})
            assert lay.channels.peers[r] == peers
            for peer, idx in zip(peers, lay.channels.indices[r]):
                glist = np.array(sorted(shared[(r, peer)]), dtype=np.int64)
                assert np.array_equal(idx, np.searchsorted(lay.gdofs[r], glist))

    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("tier", [
        "assembled", "numpy",
        pytest.param("fused", marks=pytest.mark.skipif(
            not fused.available(), reason="no C compiler: fused tier unavailable")),
    ])
    def test_mass_summed_across_ranks(self, tier, dirichlet):
        """Each rank applies its share of ``M^{-1} K``: ``1/M`` of the
        fully-summed mass (0 on a Dirichlet row) lives in its product,
        so the ranks' partial products, scattered back and summed, are
        the serial ``A u``."""
        sem = SemND(uniform_grid((4, 3)), order=3, dirichlet=dirichlet)
        parts = np.random.default_rng(1).integers(0, 3, 12)
        lay = csr.tier_layout(sem, parts, 3, tier)
        u = np.random.default_rng(2).standard_normal(sem.n_dof)
        total = np.zeros(sem.n_dof)
        for g, K, ul in zip(lay.gdofs, lay.K_local, lay.scatter(u)):
            np.add.at(total, g, K @ ul)
        expect = csr.A(sem) @ u
        assert np.abs(total - expect).max() <= 1e-13 * np.abs(expect).max()
        if dirichlet:
            assert not total[sem.dirichlet_mask == 0].any()

    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_one_rank_csr_share_is_the_serial_A(self, dirichlet):
        """On one rank the oracle's share is :func:`csr.A` entry for
        entry: the same stored order, so the same sums."""
        sem = SemND(uniform_grid((4, 3)), order=3, dirichlet=dirichlet)
        (share,) = csr.rank_layout(sem, np.zeros(12, dtype=np.int64), 1).K_local
        A = csr.A(sem)
        for f in ("indptr", "indices", "data"):
            assert getattr(share, f).tobytes() == getattr(A, f).tobytes(), f

    @pytest.mark.parametrize("n_ranks", [None, 1, 4])
    def test_assembly_batches_stay_bounded(self, n_ranks, monkeypatch):
        """Assembly holds at most one chunk of dense element matrices at
        a time, for the serial ``A`` (``n_ranks=None``) and for every
        rank of an assembled layout, and visits each element once."""
        sem = SemND(uniform_grid((4, 3)), order=3)
        ne, n_loc = sem.element_dofs.shape
        monkeypatch.setattr(csr, "_CHUNK_ENTRIES", 2 * n_loc * n_loc)
        batches = []
        batch = csr.element_system_batch

        def spy(sem, ids=None):
            batches.append(len(ids))
            return batch(sem, ids)

        monkeypatch.setattr(csr, "element_system_batch", spy)
        if n_ranks is None:
            csr.A(sem)
        else:
            csr.rank_layout(sem, np.arange(ne) % n_ranks, n_ranks)
        assert max(batches) <= 2 and sum(batches) == ne

    def test_bad_parts_shape_rejected(self, sys1d):
        _, sem, _, _, _, _ = sys1d
        with pytest.raises(PartitionError):
            build_rank_layout(sem, np.zeros(3, dtype=int), 2)


def _newmark(sem, k, dt, world=None):
    """Distributed Newmark: the LTS solver on a one-level ``k``-rank layout."""
    one_level = np.ones(sem.n_dof, dtype=np.int64)
    parts = block_partition(sem.mesh.n_elements, k)
    lay = build_rank_layout(sem, parts, k, dof_level=one_level)
    return DistributedLTSSolver(lay, dt, world=world)


class TestDistributedNewmark:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_serial(self, sys1d, k):
        mesh, sem, a, _, u0, v0 = sys1d
        dt = a.dt_min
        us, vs = NewmarkSolver(csr.A(sem), dt).run(u0, v0, 12)
        ud, vd = _newmark(sem, k, dt).run(u0, v0, 12)
        assert np.max(np.abs(us - ud)) < 1e-12
        assert np.max(np.abs(vs - vd)) < 1e-12

    def test_no_pending_messages_after_run(self, sys1d):
        mesh, sem, a, _, u0, v0 = sys1d
        world = MailboxWorld(3)
        _newmark(sem, 3, a.dt_min, world=world).run(u0, v0, 4)
        assert world.pending() == 0
        assert world.sent_messages > 0

    def test_leak_check_names_channels(self, sys1d):
        """run() ends with a mailbox-drained assertion; a stray message
        fails it with the leaked channel named."""
        from repro.util.errors import CommError

        mesh, sem, a, _, u0, v0 = sys1d
        world = MailboxWorld(2)
        solver = _newmark(sem, 2, a.dt_min, world=world)
        solver.check_no_leaks()  # clean world passes
        world.comm(0).Send(np.zeros(3), dest=1, tag=77)
        with pytest.raises(CommError, match=r"undelivered.*tag=77"):
            solver.check_no_leaks()
        with pytest.raises(CommError, match="undelivered"):
            solver.run(u0, v0, 2)


class TestDistributedLTS:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_serial_reference(self, sys1d, k):
        mesh, sem, a, dof_level, u0, v0 = sys1d
        us, vs = algorithm1(csr.A(sem), dof_level, a.dt, u0, v0, 8)
        lay = build_rank_layout(
            sem, block_partition(mesh.n_elements, k), k, dof_level=dof_level
        )
        ud, vd = DistributedLTSSolver(lay, a.dt).run(u0, v0, 8)
        assert np.max(np.abs(us - ud)) < 1e-11
        assert np.max(np.abs(vs - vd)) < 1e-9

    def test_matches_serial_for_lts_aware_partition(self, sys1d):
        """Partition from the real partitioner, not just block splits."""
        from repro.partition import partition_scotch_p

        mesh, sem, a, dof_level, u0, v0 = sys1d
        parts = partition_scotch_p(mesh, a, 3, seed=1)
        lay = build_rank_layout(sem, parts, 3, dof_level=dof_level)
        ud, _ = DistributedLTSSolver(lay, a.dt).run(u0, v0, 6)
        us, _ = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt).run(u0, v0, 6)
        assert np.max(np.abs(us - ud)) < 1e-11

    def test_2d_velocity_contrast(self):
        mesh = uniform_grid((5, 5))
        mesh.c = mesh.c.copy()
        mesh.c[12] = 4.0
        sem = SemND(mesh, order=3)
        a = assign_levels(mesh, c_cfl=0.4, order=3)
        dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
        u0 = np.exp(-((sem.node_coords[:, 0] - 2.5) ** 2 + (sem.node_coords[:, 1] - 2.5) ** 2))
        v0 = staggered_initial_velocity(csr.A(sem), a.dt, u0, np.zeros_like(u0))
        us, _ = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt).run(u0, v0, 6)
        parts = (np.arange(mesh.n_elements) % 4).astype(np.int64)
        lay = build_rank_layout(sem, parts, 4, dof_level=dof_level)
        ud, _ = DistributedLTSSolver(lay, a.dt).run(u0, v0, 6)
        assert np.max(np.abs(us - ud)) < 1e-11

    @pytest.mark.parametrize("physics", ["acoustic", "elastic"])
    def test_matfree_layout_backend_matches_assembled(self, physics):
        """Rank-local matrix-free stiffness (no rank ever assembles a
        matrix) reproduces the assembled-layout distributed solution."""
        mesh = uniform_grid((5, 5))
        mesh.c = mesh.c.copy()
        mesh.c[12] = 4.0
        if physics == "acoustic":
            sem = SemND(mesh, order=3)
        else:
            from repro.sem import ElasticSemND, IsotropicElastic

            sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=2.0, mu=1.0))
            mesh.c = sem.p_velocity()
        a = assign_levels(mesh, c_cfl=0.4, order=3)
        dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(sem.n_dof) * 0.1
        v0 = np.zeros(sem.n_dof)
        parts = (np.arange(mesh.n_elements) % 3).astype(np.int64)
        sols = {}
        for tier in ("assembled", "matfree"):
            lay = csr.tier_layout(sem, parts, 3, tier, dof_level)
            sols[tier], _ = DistributedLTSSolver(lay, a.dt).run(u0, v0, 4)
        assert np.max(np.abs(sols["matfree"] - sols["assembled"])) < 1e-11

    @pytest.mark.parametrize("tier", ["assembled", "matfree"])
    def test_3d_hex_trench_matches_serial(self, small_trench, tier):
        """The paper's workload class end-to-end: a 3D hex trench mesh
        runs a full distributed LTS cycle on both operator backends and
        reproduces the serial scheme to float round-off."""
        from repro.sem import SemND

        mesh = small_trench
        sem = SemND(mesh, order=2)
        a = assign_levels(mesh, c_cfl=0.4, order=2)
        assert a.n_levels >= 3  # multi-level recursion actually exercised
        dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(sem.n_dof) * 0.1
        v0 = np.zeros(sem.n_dof)
        us, _ = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt).run(u0, v0, 3)
        parts = (np.arange(mesh.n_elements) % 4).astype(np.int64)
        lay = csr.tier_layout(sem, parts, 4, tier, dof_level)
        ud, _ = DistributedLTSSolver(lay, a.dt).run(u0, v0, 3)
        assert np.max(np.abs(us - ud)) < 1e-11

    def test_matfree_backend_restricts_per_level(self):
        """The matfree LTS executor applies level-restricted operators
        (element subsets), not masked full products."""
        mesh = uniform_grid((5, 5))
        mesh.c = mesh.c.copy()
        mesh.c[12] = 4.0
        sem = SemND(mesh, order=3)
        a = assign_levels(mesh, c_cfl=0.4, order=3)
        dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
        parts = np.zeros(mesh.n_elements, dtype=np.int64)
        lay = build_rank_layout(sem, parts, 1, dof_level=dof_level, backend="matfree")
        solver = DistributedLTSSolver(lay, a.dt)
        finest = solver._states[0].depths[-1]
        assert finest.level == max(solver.active_levels)
        # the finest level touches only a few elements -> much cheaper
        assert finest.restr.ops < lay.K_local[0].nnz

    def test_requires_dof_levels(self, sys1d):
        mesh, sem, a, _, _, _ = sys1d
        lay = build_rank_layout(sem, block_partition(mesh.n_elements, 2), 2)
        with pytest.raises(SolverError, match="dof level"):
            DistributedLTSSolver(lay, a.dt)

    def test_step_validates_its_replicas_first(self, sys1d):
        """Every per-rank loop of the cycle is a ``zip``: a replica list
        one rank short would leave that rank unstepped while its peers
        consume its stale halo values, a local vector one entry short
        would fail halfway through the ranks.  Both are refused before
        anything is applied, sent or advanced."""
        mesh, sem, a, dof_level, u0, v0 = sys1d
        lay = build_rank_layout(
            sem, block_partition(mesh.n_elements, 4), 4, dof_level=dof_level
        )
        world = MailboxWorld(4)
        solver = DistributedLTSSolver(lay, a.dt, world=world)
        m = solver.plan.replicas
        u, v = m.scatter(u0), m.scatter(v0)
        short = [x[:-1] if r == 2 else x for r, x in enumerate(u)]
        for bad_u, bad_v in ((u[:3], v[:3]), (u, v[:3]), (short, v)):
            with pytest.raises(SolverError, match="shape mismatch"):
                solver.step(bad_u, bad_v)
        assert world.sent_messages == 0 and solver.n_cycles_taken == 0
        for x, x0 in zip(u + v, m.scatter(u0) + m.scatter(v0)):
            assert np.array_equal(x, x0)

    def test_message_count_scales_with_levels(self, sys1d):
        """Finer levels synchronize more often (the Fig. 2 cost model).

        Each level-k application exchanges over that level's coalesced
        plan, so the expected count sums 2^(k-1) applications times the
        messages the level's plan actually keeps — levels whose support
        never reaches the rank interface contribute zero messages."""
        mesh, sem, a, dof_level, u0, v0 = sys1d
        parts = block_partition(mesh.n_elements, 2)
        world = MailboxWorld(2)
        lay = build_rank_layout(sem, parts, 2, dof_level=dof_level)
        solver = DistributedLTSSolver(lay, a.dt, world=world)
        solver.run(u0, v0, 1)
        expected = sum(
            2 ** (k - 1) * solver._plans[k].messages_per_exchange()
            for k in solver.active_levels
        )
        assert world.sent_messages == expected
        # Coalescing must never send more than the seed's
        # every-channel-every-apply schedule, and at least one level must
        # actually reach the rank interface.
        full = solver.layout.exchange_channels().fork().messages_per_exchange()
        assert 0 < expected <= full * sum(
            2 ** (k - 1) for k in solver.active_levels
        )


class _LoggingWorld(MailboxWorld):
    """Records ``(src, dst, tag, doubles)`` of every send, in order."""

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.log = []

    def _push(self, src, dst, tag, payload):
        self.log.append((src, dst, tag, payload.size))
        super()._push(src, dst, tag, payload)


def _level_schedule(levels):
    """The order Algorithm 1 applies the active levels in one cycle."""

    def below(i, n_steps):
        for _ in range(n_steps):
            yield levels[i]
            if i + 1 < len(levels):
                yield from below(i + 1, 2 ** (levels[i + 1] - levels[i]))

    yield levels[0]
    if len(levels) > 1:
        yield from below(1, 2 ** (levels[1] - 1))


@pytest.mark.parametrize("tier", ["assembled", "matfree"])
def test_cycle_sends_the_level_schedule_in_order(small_trench, tier):
    """One cycle sends, apply by apply in Algorithm 1's order, exactly
    each level's exchange plan — rank by rank, peer by peer, tag 0 —
    so ``sum_k applies_k x plan_k`` messages and doubles: a
    :class:`~repro.runtime.faults.FaultPlan` position (superstep,
    message index) names the same message whatever the recursion does
    between exchanges."""
    from repro.sem import SemND

    sem = SemND(small_trench, order=2)
    a = assign_levels(small_trench, c_cfl=0.4, order=2)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    parts = (np.arange(small_trench.n_elements) % 4).astype(np.int64)
    lay = csr.tier_layout(sem, parts, 4, tier, dof_level)
    world = _LoggingWorld(4)
    solver = DistributedLTSSolver(lay, a.dt, world=world)
    assert len(solver.active_levels) >= 3
    m = solver.plan.replicas
    u = m.scatter(np.random.default_rng(0).standard_normal(sem.n_dof))
    v = m.scatter(np.zeros(sem.n_dof))
    solver.step(u, v)
    expected = [
        (r, peer, 0, len(idx))
        for k in _level_schedule(solver.active_levels)
        for r in range(4)
        for peer, idx in zip(solver._plans[k].peers[r], solver._plans[k].indices[r])
    ]
    assert world.log == expected
    applies = {k: 2 ** (k - 1) for k in solver.active_levels}
    assert world.sent_messages == sum(
        n * solver._plans[k].messages_per_exchange() for k, n in applies.items()
    )
    assert world.sent_volume == sum(
        n * solver._plans[k].total_doubles() for k, n in applies.items()
    )
    solver.check_no_leaks()
