"""Hot-path discipline of the distributed executors: coalesced exchange
plans, empty-channel skipping, and per-step allocation budgets.

The coalesced halo exchange packs through persistent per-channel
buffers and — with level-restricted supports — drops channel positions
that can only carry structural zeros.  A channel left empty disappears
*symmetrically* (neither side sends), so no zero-length messages are
ever queued and ``check_no_leaks()`` still holds.  The allocation test
mirrors the serial budgets of ``tests/core/test_hotpath_alloc.py`` for
the distributed LTS executor: every message is a view of the plan's
payload buffer sent with ``Isend`` and received as itself, so a clean
cycle copies no payload — the transient peak is bounded by the
mailbox's queue nodes — the compact recursion allocates no rank-local
temporary, and the *net surviving* allocations per cycle must stay
small and fixed.
"""

import numpy as np
import pytest

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core.newmark import staggered_initial_velocity
from repro.core.workspace import measure_hot_path
from repro.mesh import refined_interval, uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld, build_rank_layout
from repro.runtime.executor import _HaloSum
from repro.sem import SemND, fused
from oracles import csr

#: Net tracemalloc blocks allowed to survive a steady-state LTS cycle.
ALLOC_BUDGET = 16
#: Bytes allowed per in-flight message: the mailbox's queue node and
#: channel key (the payload is the sender's buffer, not a copy).
MESSAGE_OVERHEAD = 1024


def block_partition(n_elem: int, k: int) -> np.ndarray:
    return (np.arange(n_elem) * k // n_elem).astype(np.int64)


@pytest.fixture(scope="module")
def sys1d():
    """Refinement in the middle of the interval: under a 3-way block
    partition the middle rank holds only fine-level elements, so the
    coarse level's support cannot reach the rank-0/rank-1 interface."""
    mesh = refined_interval(12, 8, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
    v0 = staggered_initial_velocity(csr.A(sem), a.dt, u0, np.zeros_like(u0))
    return mesh, sem, a, dof_level, u0, v0


@pytest.fixture(scope="module")
def sys2d():
    mesh = uniform_grid((8, 8))
    mesh.c = mesh.c.copy()
    mesh.c[27] = 4.0
    mesh.c[36] = 2.0
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords - sem.node_coords.mean(axis=0)) ** 2).sum(axis=1))
    v0 = staggered_initial_velocity(csr.A(sem), a.dt, u0, np.zeros_like(u0))
    return mesh, sem, a, dof_level, u0, v0


class TestEmptyChannelSkip:
    """Regression: a level whose support reaches no DOF shared by a peer
    pair must drop that channel outright instead of exchanging
    zero-length (or all-zero) messages."""

    def _solver(self, sys1d, k=3):
        mesh, sem, a, dof_level, _, _ = sys1d
        lay = build_rank_layout(
            sem, block_partition(mesh.n_elements, k), k, dof_level=dof_level
        )
        world = MailboxWorld(k)
        return DistributedLTSSolver(lay, a.dt, world=world), lay, world

    def test_coarse_level_plan_drops_far_channels(self, sys1d):
        solver, lay, _ = self._solver(sys1d)
        full = lay.exchange_channels().fork()
        coarsest = min(solver.active_levels)
        assert max(solver.active_levels) > coarsest
        coarse_plan = solver._plans[coarsest]
        # The middle rank holds only fine elements, so the coarse level
        # shares no reachable DOF across the rank-0/rank-1 interface:
        # the channel present in the full plan must be gone (both ways).
        assert 1 in full.peers[0] and 0 in full.peers[1]
        assert 1 not in coarse_plan.peers[0]
        assert 0 not in coarse_plan.peers[1]
        assert coarse_plan.messages_per_exchange() < full.messages_per_exchange()

    def test_no_zero_length_channels_in_any_plan(self, sys1d):
        solver, lay, _ = self._solver(sys1d)
        plans = [lay.exchange_channels().fork(), *solver._plans.values()]
        for plan in plans:
            for per_rank in plan.indices:
                for idx in per_rank:
                    assert len(idx) > 0

    def test_run_matches_serial_and_leaks_nothing(self, sys1d):
        mesh, sem, a, dof_level, u0, v0 = sys1d
        solver, _, world = self._solver(sys1d)
        u, v = solver.run(u0.copy(), v0.copy(), 4)  # run() checks leaks
        assert world.pending() == 0
        serial = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        m = serial.plan.replicas  # step runs in the plan's numbering
        (us,), (vs,) = m.scatter(u0), m.scatter(v0)
        for _ in range(4):
            us, vs = serial.step(us, vs)
        us = m.gather([us])
        assert np.abs(u - us).max() / np.abs(us).max() < 1e-12

    def test_skipping_reduces_messages(self, sys1d):
        """Per-level plans must send strictly fewer messages than the
        full-interface plan would across an LTS cycle: one full exchange
        per apply (a fine level's plan indexes its depth's compact
        output, so the full plan cannot simply be swapped in)."""
        mesh, sem, a, dof_level, u0, v0 = sys1d
        solver, lay, world = self._solver(sys1d)
        exchanges = []
        sum_shared = solver._sum_shared
        solver._sum_shared = lambda level: exchanges.append(level) or sum_shared(level)
        solver.run(u0.copy(), v0.copy(), 2)
        assert len(exchanges) == 2 * sum(2 ** (k - 1) for k in solver.active_levels)
        full = lay.exchange_channels().fork().messages_per_exchange()
        assert world.sent_messages < len(exchanges) * full


class _RecordingWorld(MailboxWorld):
    """A mailbox that keeps every payload it is handed."""

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.payloads = []

    def _push(self, src, dst, tag, payload):
        self.payloads.append(payload)
        super()._push(src, dst, tag, payload)


def test_clean_exchange_sends_views_of_the_payload(sys2d):
    """Every message of a clean cycle is a view of its level's payload
    buffer, handed over as is: nothing is copied to send it."""
    mesh, sem, a, dof_level, u0, v0 = sys2d
    k = 3
    lay = build_rank_layout(sem, block_partition(mesh.n_elements, k), k, dof_level=dof_level)
    world = _RecordingWorld(k)
    solver = DistributedLTSSolver(lay, a.dt, world=world)
    solver.run(u0, v0, 2)
    buffers = [p.payload for p in solver._plans.values()]
    assert len(world.payloads) == world.sent_messages > 0
    assert all(any(m.base is b for b in buffers) for m in world.payloads)


@pytest.mark.parametrize("compiled", [True, False], ids=["c_exchange", "numpy_exchange"])
@pytest.mark.parametrize("tier", ["assembled", "numpy", "fused"])
def test_distributed_lts_allocation_budget(sys2d, tier, compiled):
    """On the fused tier the ranks' vector phases are the C ones, and
    either exchange path sums the levels: the same budgets hold."""
    mesh, sem, a, dof_level, u0, v0 = sys2d
    if (tier == "fused" or compiled) and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    k = 3
    lay = csr.tier_layout(sem, block_partition(mesh.n_elements, k), k, tier, dof_level)
    solver = DistributedLTSSolver(lay, a.dt, world=MailboxWorld(k))
    solver._sums = {
        lv: _HaloSum(p, solver._outputs[lv], solver.comms, compiled)
        for lv, p in solver._plans.items()
    }
    assert len(solver.active_levels) >= 2
    assert all((st._c_begin is not None) == (tier == "fused") for st in solver._states)
    u_locals = solver.plan.replicas.scatter(u0)
    v_locals = solver.plan.replicas.scatter(v0)

    def step():
        solver.step(u_locals, v_locals)

    stats = measure_hot_path(step, n_steps=5, warmup=3)
    assert stats.allocs_per_step <= ALLOC_BUDGET, (tier, stats)
    # Transient peak: the mailbox's queue nodes for one exchange's
    # messages (sent before any is received) and nothing else — no
    # payload copy, which here would be ~1.5 kB per level on top, and
    # not one rank-local temporary (~3 kB).
    in_flight = MESSAGE_OVERHEAD * max(
        plan.messages_per_exchange() for plan in solver._plans.values()
    )
    assert stats.alloc_peak_bytes_per_step <= in_flight, (tier, stats)
    assert solver.workspace_bytes() > 0
    solver.check_no_leaks()
