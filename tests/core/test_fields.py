"""One field view: every run steps replica lists laid out by a
:class:`~repro.core.newmark.ReplicaMap` (the identity serially, a rank
layout partitioned), reads its receivers off the owning replica, and
resumes by one rule (:meth:`~repro.core.newmark.Fields.start`)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, SimulationConfig
from repro.core import assign_levels
from repro.core.lts_newmark import LTSPlan, dof_levels_from_elements
from repro.core.newmark import Fields, ReplicaMap, run_cycles
from repro.mesh import uniform_grid
from repro.runtime import CheckpointState, DistributedLTSSolver, build_rank_layout
from repro.sem import SemND
from repro.util.errors import ConfigError, SolverError


def test_identity_map_is_one_owning_replica(rng):
    """Its one replica is the global vector: scatter copies once, gather
    hands the replica back."""
    m = ReplicaMap.identity(7)
    u = rng.standard_normal(7)
    (local,) = m.scatter(u)
    assert m.n_ranks == 1 and m.whole
    assert local is not u and np.array_equal(local, u)
    assert m.gather([local]) is local


def test_serial_plan_caches_its_identity_map():
    plan = LTSPlan(np.eye(4) * 2.0, np.ones(4, dtype=np.int64))
    assert plan.replicas is plan.replicas
    assert plan.replicas.n_ranks == 1 and plan.replicas.n_dof_global == 4


def test_receiver_outside_the_mesh_refused():
    with pytest.raises(SolverError, match="receiver"):
        Fields(ReplicaMap.identity(3), [np.zeros(3)], [np.zeros(3)], np.array([5]))


class TestTraceRows:
    """3 ranks on a 2D mesh, two levels: a trace row reads the owner
    replica, bitwise, at every DOF three ranks share and at one that
    lies inside a rank.

    The ranks run in diagonal stripes, so three of them meet at every
    interior vertex, and each such replica sums the three partial
    products in its own order (its own first, then its peers
    ascending).  With fields of one magnitude those orders round
    differently at several of the nine vertices, which is what makes the
    owner's replica the one to read."""

    @pytest.fixture(scope="class")
    def run(self):
        mesh = uniform_grid((4, 4))
        sem = SemND(mesh, order=2)
        dt = assign_levels(mesh, c_cfl=0.4, order=2).dt
        gen = np.random.default_rng(3)
        levels = gen.integers(1, 3, mesh.n_elements)
        e = np.arange(mesh.n_elements)
        parts = (e // 4 + e % 4) % 3  # element (ix, iy) on rank (ix + iy) % 3
        dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
        lay = build_rank_layout(sem, parts, 3, dof_level=dof_level)
        holders = np.zeros(sem.n_dof, dtype=np.int64)
        for g in lay.gdofs:
            holders[g] += 1
        rec = np.append(np.flatnonzero(holders == 3), np.flatnonzero(holders == 1)[0])
        u0 = gen.standard_normal(sem.n_dof)
        solver = DistributedLTSSolver(lay, dt)
        m = solver.plan.replicas  # the solver's level-sorted numbering
        assert m.sorter is not None
        fields = Fields(m, m.scatter(u0), m.scatter(np.zeros(sem.n_dof)), rec)
        n = 6
        traces, snaps = np.zeros((n, len(rec))), {}
        run_cycles(
            solver, fields, n, traces=traces,
            checkpoint_every=1, on_checkpoint=lambda c, us, vs: snaps.__setitem__(c, us),
        )
        return lay, rec, traces, snaps

    def test_rows_are_the_owner_replica(self, run):
        lay, rec, traces, snaps = run
        assert sorted(snaps) == list(range(1, len(traces) + 1))
        for j, g in enumerate(rec):
            (r,) = [r for r in range(3) if g in lay.gdofs[r][lay.owner[r]]]
            i = int(np.searchsorted(lay.gdofs[r], g))
            for c, us in snaps.items():
                assert traces[c - 1, j].tobytes() == us[r][i].tobytes()

    def test_shared_replicas_differ_so_the_owner_matters(self, run):
        lay, rec, _, snaps = run
        copies = {
            (c, g): {us[r][np.searchsorted(lay.gdofs[r], g)] for r in range(3) if g in lay.gdofs[r]}
            for c, us in snaps.items() for g in rec[:-1]
        }
        assert any(len(v) > 1 for v in copies.values())


#: sha256 of serial façade traces: reading a serial run's receivers off
#: its one replica gives the bits a read of the global vector gives.
SERIAL_TRACE_PINS = {
    "1d_matfree_numpy": (
        {
            "mesh": {"family": "refined_interval",
                     "params": {"n_coarse": 16, "n_fine": 8, "refinement": 4}},
            "time": {"n_cycles": 10},
            "source": {"position": [0.3], "f0": 4.0},
            "receivers": {"positions": [[0.7], [0.2]]},
        },
        "92f2f5d00e6463d0660bba4c51b214ee0a11ddc580f1903a8372c0e3cacf2f0e",
    ),
    "2d_matfree_numpy": (
        {
            "mesh": {"family": "uniform_grid", "params": {"shape": [6, 5]}},
            "order": 3,
            "time": {"n_cycles": 6},
            "source": {"position": [0.4, 0.5], "f0": 2.0},
            "receivers": {"positions": [[0.7, 0.2], [0.1, 0.9]]},
            "backend": {"stiffness": "matfree", "fused": False},
        },
        "7ab22b62138a6dd5f4b5ee8439f2c2722d56577bd68dc0f354f9b387894fdee9",
    ),
}


@pytest.mark.parametrize("case", sorted(SERIAL_TRACE_PINS))
def test_serial_facade_traces_match_pin(case):
    cfg, digest = SERIAL_TRACE_PINS[case]
    traces = Simulation(SimulationConfig.from_dict(cfg)).run().traces
    assert hashlib.sha256(traces.tobytes()).hexdigest() == digest


class TestStartRule:
    """:meth:`Fields.start` on what the façade matrix
    (``tests/api/test_resilience.py``) cannot reach: matching replicas
    are copied, not aliased, and replicas of the right count but other
    lengths are refused like a wrong count."""

    MAP3 = ReplicaMap(
        5, [np.array([0, 1, 2]), np.array([2, 3]), np.array([3, 4])],
        [np.array([1, 1, 1], bool), np.array([0, 1], bool), np.array([0, 1], bool)],
    )

    def state(self, held):
        u = np.arange(5.0)
        return CheckpointState(cycle=1, t=0.1, u=u, v=-u, u_locals=held,
                               v_locals=[-x for x in held])

    def test_matching_replicas_are_copied(self):
        held = [np.array([9.0, 8, 7]), np.array([6.0, 5]), np.array([4.0, 3])]
        f = Fields.start(self.MAP3, self.state(held))
        assert all(np.array_equal(a, b) and a is not b for a, b in zip(f.u, held))

    @pytest.mark.parametrize("lengths", [[3, 2], [2, 3, 2]])
    def test_other_layouts_refused(self, lengths):
        st = self.state([np.zeros(n) for n in lengths])
        with pytest.raises(ConfigError, match="replicas"):
            Fields.start(self.MAP3, st)


# ----------------------------------------------------------------------
# Gather: one read through the owner-copy index
# ----------------------------------------------------------------------
def replica_scatter_gather(m, u_locals):
    """``ReplicaMap.gather`` as it was before :attr:`owner_copy`: a
    :attr:`~ReplicaMap.whole` map's replica as is, else each replica's
    owned entries scattered in turn onto zeros."""
    if m.whole:
        return u_locals[0] if m.sorter is None else u_locals[0][m.sorter[0]]
    out = np.zeros(m.n_dof_global)
    for g, own, u in zip(m.gdofs, m.owner, u_locals):
        out[g[own]] = u[own]
    return out


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), n_replicas=st.integers(1, 4), reorder=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_gather_is_the_replica_by_replica_scatter(n, n_replicas, reorder, seed):
    """Random maps — DOFs held by several replicas or none, owned by
    one, several (the later wins) or none (0.0), whole or not, ascending
    or in a plan's order: the gather and a checkpoint's global fields
    are the scatter's, bitwise."""
    rng = np.random.default_rng(seed)
    gdofs = [np.flatnonzero(rng.random(n) < p) for p in rng.random(n_replicas)]
    m = ReplicaMap(n, gdofs, [rng.random(len(g)) < 0.7 for g in gdofs])
    if reorder:
        perms = [rng.permutation(len(g)).astype(np.int32) for g in gdofs]
        m = m.reorder([(o, np.argsort(o).astype(np.int32)) for o in perms])
    us = [rng.standard_normal(len(g)) for g in m.gdofs]
    vs = [rng.standard_normal(len(g)) for g in m.gdofs]
    want = replica_scatter_gather(m, us)
    assert m.gather(us).tobytes() == want.tobytes()
    assert m.owner_copy.dtype == np.int32
    fields = Fields(m, [u.copy() for u in us], [v.copy() for v in vs])
    saved = fields.checkpoint_arrays(*fields.snapshot())
    assert saved["u"].tobytes() == want.tobytes()
    assert saved["v"].tobytes() == replica_scatter_gather(m, vs).tobytes()
