"""Deterministic fault injection over the mailbox runtime."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.mesh import refined_interval, uniform_grid
from repro.runtime import (
    DistributedLTSSolver,
    FaultEvent,
    FaultPlan,
    FaultyWorld,
    build_rank_layout,
)
from repro.runtime.executor import _HaloSum
from repro.sem import SemND, fused
from repro.util.errors import CommError, RankFailure
from oracles import csr


@pytest.fixture(scope="module", params=["1d_assembled", "2d_fused"])
def system(request):
    """A 2-rank 1D assembled layout (every channel one DOF wide) and a
    3-rank 2D fused layout (three levels, channels of each level's own
    width)."""
    if request.param == "1d_assembled":
        mesh = refined_interval(12, 8, refinement=4, coarse_h=0.125)
        sem = SemND(mesh, order=4)
        n_ranks, u0 = 2, np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
        kw = {}
    else:
        if not fused.available():
            pytest.skip("no C compiler: fused tier unavailable")
        mesh = uniform_grid((8, 8))
        mesh.c = mesh.c.copy()
        mesh.c[27], mesh.c[36] = 4.0, 2.0
        sem = SemND(mesh, order=4)
        n_ranks = 3
        u0 = np.exp(-((sem.node_coords - sem.node_coords.mean(axis=0)) ** 2).sum(axis=1))
        kw = {"backend": "matfree", "use_fused": True}
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    parts = (np.arange(mesh.n_elements) * n_ranks // mesh.n_elements).astype(np.int64)
    lay = build_rank_layout(sem, parts, n_ranks, dof_level=dof_level, **kw)
    return SimpleNamespace(sem=sem, dt=a.dt, dof_level=dof_level, lay=lay, u0=u0,
                           n_ranks=n_ranks)


#: Exchange paths this machine can run: the NumPy passes, and the C
#: passes where the fused build loads.
PATHS = [False, True] if fused.available() else [False]


@pytest.fixture(params=PATHS, ids=lambda c: "c" if c else "numpy")
def compiled(request):
    return request.param


def _solver(system, world, compiled: bool) -> DistributedLTSSolver:
    """A solver over ``world`` whose halo sums run the given path."""
    solver = DistributedLTSSolver(system.lay, system.dt, world=world)
    solver._sums = {
        k: _HaloSum(p, solver._outputs[k], solver.comms, compiled)
        for k, p in solver._plans.items()
    }
    return solver


class TestFaultEvent:
    def test_roundtrip_omits_defaults(self):
        e = FaultEvent("crash", superstep=3, rank=1)
        assert e.to_dict() == {"kind": "crash", "superstep": 3, "rank": 1}
        assert FaultEvent.from_dict(e.to_dict()) == e

    def test_unknown_kind_rejected(self):
        with pytest.raises(CommError, match="unknown fault kind"):
            FaultEvent("meteor")

    def test_crash_requires_rank(self):
        with pytest.raises(CommError, match="rank"):
            FaultEvent("crash", superstep=1)

    def test_unknown_key_rejected(self):
        with pytest.raises(CommError, match="unknown FaultEvent key"):
            FaultEvent.from_dict({"kind": "drop", "supersteep": 1})

    def test_bit_range_checked(self):
        with pytest.raises(CommError, match="bit"):
            FaultEvent("bitflip", bit=64)


class TestFaultPlan:
    def test_coerces_dicts(self):
        plan = FaultPlan(({"kind": "drop", "superstep": 2},))
        assert plan.events[0] == FaultEvent("drop", superstep=2)

    def test_for_attempt_filters(self):
        plan = FaultPlan(
            (
                FaultEvent("crash", rank=0, attempt=0),
                FaultEvent("crash", rank=1, attempt=1),
            )
        )
        assert [e.rank for e in plan.for_attempt(0)] == [0]
        assert [e.rank for e in plan.for_attempt(1)] == [1]
        assert plan.for_attempt(2) == ()

    def test_seeded_is_reproducible(self):
        a = FaultPlan.seeded(42, n_ranks=4, max_superstep=10)
        b = FaultPlan.seeded(42, n_ranks=4, max_superstep=10)
        assert a == b
        assert len(a.events) == 4  # one per rank by default
        assert {e.attempt for e in a.events} == {0, 1, 2, 3}
        assert FaultPlan.seeded(43, n_ranks=4, max_superstep=10) != a

    def test_seeded_message_kinds(self):
        plan = FaultPlan.seeded(
            7, n_ranks=3, max_superstep=5, kinds=("drop", "bitflip"), n_events=6
        )
        assert all(e.kind in ("drop", "bitflip") for e in plan.events)


class TestFaultyWorld:
    def test_empty_plan_is_transparent(self, system, compiled):
        v0 = np.zeros_like(system.u0)
        world = FaultyWorld(system.n_ranks, FaultPlan())
        ud, _ = _solver(system, world, compiled).run(system.u0, v0, 4)
        us, _ = LTSNewmarkSolver(csr.A(system.sem), system.dof_level, system.dt).run(
            system.u0, v0, 4
        )
        assert np.max(np.abs(us - ud)) < 1e-11 * max(1.0, np.abs(us).max())
        assert world.injected == []

    def test_crash_raises_rank_failure_at_superstep(self, system, compiled):
        world = FaultyWorld(system.n_ranks, FaultPlan.crash(rank=1, superstep=2))
        solver = _solver(system, world, compiled)
        with pytest.raises(RankFailure, match="rank 1 crashed at superstep 2") as exc:
            solver.run(system.u0, np.zeros_like(system.u0), 6)
        assert exc.value.rank == 1
        assert exc.value.superstep == 2
        assert solver.n_cycles_taken == 2  # cycles 0 and 1 completed

    def test_crash_is_a_comm_error(self):
        assert issubclass(RankFailure, CommError)

    def test_crash_only_fires_in_its_attempt(self, system, compiled):
        plan = FaultPlan.crash(rank=0, superstep=1, attempt=0)
        world = FaultyWorld(system.n_ranks, plan, attempt=1)
        ud, _ = _solver(system, world, compiled).run(
            system.u0, np.zeros_like(system.u0), 4
        )
        assert np.all(np.isfinite(ud))
        assert world.injected == []

    def test_drop_surfaces_as_enriched_comm_error(self, system, compiled):
        plan = FaultPlan((FaultEvent("drop", superstep=1, src=0, dst=1),))
        world = FaultyWorld(system.n_ranks, plan)
        with pytest.raises(CommError, match="pending for rank"):
            _solver(system, world, compiled).run(system.u0, np.zeros_like(system.u0), 4)
        assert world.injected[0]["kind"] == "drop"

    def test_duplicate_trips_leak_check(self, system, compiled):
        """The duplicate stays queued ahead of the channel's next
        message, one message behind to the end: the leak check trips.
        Where the channel's next exchange is another level's, the stale
        message is the wrong width for its slot and the receive fails
        first, a ``CommError`` too."""
        plan = FaultPlan((FaultEvent("duplicate", superstep=0, src=0, dst=1),))
        world = FaultyWorld(system.n_ranks, plan)
        solver = _solver(system, world, compiled)
        widths = {
            len(ix) for p in solver._plans.values()
            for peer, ix in zip(p.peers[1], p.indices[1]) if peer == 0
        }
        match = "undelivered" if len(widths) == 1 else "rank 1 receive from 0: message shape"
        with pytest.raises(CommError, match=match):
            solver.run(system.u0, np.zeros_like(system.u0), 2)

    def test_bitflip_perturbs_solution_deterministically(self, system):
        """The same plan corrupts identically, on either exchange path."""
        v0 = np.zeros_like(system.u0)
        clean, _ = LTSNewmarkSolver(csr.A(system.sem), system.dof_level, system.dt).run(
            system.u0, v0, 4
        )

        def flipped_run(compiled):
            plan = FaultPlan((FaultEvent("bitflip", superstep=1, bit=60),))
            world = FaultyWorld(system.n_ranks, plan)
            u, _ = _solver(system, world, compiled).run(system.u0, v0, 4)
            return u.tobytes(), world.injected

        runs = [flipped_run(c) for c in PATHS for _ in range(2)]
        assert all(r == runs[0] for r in runs), "same plan must corrupt identically"
        u1, log1 = runs[0]
        assert log1[0]["kind"] == "bitflip"
        assert u1 != clean.tobytes(), "a high-exponent flip must show"

    def test_count_bounds_multiple_messages(self, system, compiled):
        plan = FaultPlan((FaultEvent("drop", superstep=0, count=2),))
        world = FaultyWorld(system.n_ranks, plan)
        with pytest.raises(CommError):
            _solver(system, world, compiled).run(system.u0, np.zeros_like(system.u0), 2)
        assert sum(1 for f in world.injected if f["kind"] == "drop") == 2
