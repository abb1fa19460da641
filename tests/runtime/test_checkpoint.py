"""Checkpoint/restart: atomic persistence, and kill-and-resume determinism."""

import numpy as np
import pytest

from repro.core import LTSNewmarkSolver, NewmarkSolver, assign_levels
from repro.core.lts_newmark import dof_levels_from_elements
from repro.core.newmark import Fields, run_cycles
from repro.mesh import refined_interval
from repro.runtime import (
    CheckpointState,
    DistributedLTSSolver,
    build_rank_layout,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.runtime.checkpoint import CHECKPOINT_VERSION
from repro.sem import SemND
from repro.util.errors import SolverError
from oracles import csr


@pytest.fixture(scope="module")
def sys1d():
    mesh = refined_interval(12, 8, refinement=4, coarse_h=0.125)
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
    return sem, a, dof_level, u0


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        state = CheckpointState(
            cycle=7,
            t=0.7,
            u=rng.standard_normal(20),
            v=rng.standard_normal(20),
            traces=rng.standard_normal((7, 2)),
            dt=0.1,
            n_cycles_total=12,
            config_hash="abc123",
        )
        path = save_checkpoint(tmp_path / "ck.npz", state)
        back = load_checkpoint(path)
        assert back.cycle == 7 and back.t == 0.7
        assert np.array_equal(back.u, state.u)
        assert np.array_equal(back.v, state.v)
        assert np.array_equal(back.traces, state.traces)
        assert back.dt == 0.1 and back.n_cycles_total == 12
        assert back.config_hash == "abc123"
        # A serial state's one replica is its global field.
        assert back.n_ranks == 1
        assert back.u_locals[0] is back.u and back.v_locals[0] is back.v

    def test_roundtrip_distributed_replicas(self, tmp_path, rng):
        u_locals = [rng.standard_normal(5), rng.standard_normal(7)]
        v_locals = [rng.standard_normal(5), rng.standard_normal(7)]
        state = CheckpointState(
            cycle=2, t=0.2, u=rng.standard_normal(10), v=rng.standard_normal(10),
            u_locals=u_locals, v_locals=v_locals,
        )
        back = load_checkpoint(save_checkpoint(tmp_path / "ck", state))
        assert back.n_ranks == 2
        for a, b in zip(back.u_locals, u_locals):
            assert np.array_equal(a, b)
        for a, b in zip(back.v_locals, v_locals):
            assert np.array_equal(a, b)

    def test_mismatched_replicas_rejected(self, tmp_path):
        state = CheckpointState(
            cycle=1, t=0.1, u=np.zeros(3), v=np.zeros(3),
            u_locals=[np.zeros(2)], v_locals=None,
        )
        with pytest.raises(SolverError, match="pair up"):
            save_checkpoint(tmp_path / "ck", state)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SolverError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_file_raises(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz at all")
        with pytest.raises(SolverError, match="corrupt|unreadable"):
            load_checkpoint(bad)

    def test_future_version_rejected(self, tmp_path):
        state = CheckpointState(cycle=1, t=0.1, u=np.zeros(2), v=np.zeros(2), version=99)
        path = save_checkpoint(tmp_path / "ck", state)
        with pytest.raises(SolverError, match="version 99"):
            load_checkpoint(path)

    def test_version_round_trips(self, tmp_path):
        """A state keeps the version its fields are in through a save."""
        for version in (1, CHECKPOINT_VERSION):
            state = CheckpointState(cycle=1, t=0.1, u=np.zeros(2), v=np.zeros(2), version=version)
            path = save_checkpoint(tmp_path / f"ck{version}", state)
            assert load_checkpoint(path).version == version
        assert CheckpointState(cycle=1, t=0.1, u=np.zeros(2), v=np.zeros(2)).version == CHECKPOINT_VERSION

    def test_latest_and_prune(self, tmp_path):
        assert latest_checkpoint(tmp_path / "absent") is None
        state = CheckpointState(cycle=0, t=0.0, u=np.zeros(1), v=np.zeros(1))
        for cycle in (2, 10, 6):
            save_checkpoint(checkpoint_path(tmp_path, cycle), state)
        assert latest_checkpoint(tmp_path).name == "ckpt_00000010.npz"
        removed = prune_checkpoints(tmp_path, keep=2)
        assert [p.name for p in removed] == ["ckpt_00000002.npz"]
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == [
            "ckpt_00000006.npz",
            "ckpt_00000010.npz",
        ]


class TestKillAndResume:
    def test_serial_lts_resume_is_bitwise(self, sys1d, tmp_path):
        """The core restart guarantee: run 12 cycles straight vs run 7,
        checkpoint, rebuild everything from the file, run 5 — identical
        bits out."""
        sem, a, dof_level, u0 = sys1d
        v0 = np.zeros_like(u0)

        ref_solver = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        u_ref, v_ref = ref_solver.run(u0, v0, 12)

        first = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        u, v = first.run(u0, v0, 7)
        st = first.state()
        path = save_checkpoint(
            tmp_path / "ck", CheckpointState(cycle=st["cycle"], t=st["t"], u=u, v=v)
        )

        back = load_checkpoint(path)  # "new process": only the file survives
        second = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        second.restore(back.solver_state())
        assert second.n_cycles_taken == 7
        u2, v2 = second.run(back.u, back.v, 5)
        assert np.array_equal(u2, u_ref)
        assert np.array_equal(v2, v_ref)
        assert second.t == ref_solver.t

    def test_serial_newmark_resume_is_bitwise(self, sys1d):
        sem, a, _, u0 = sys1d
        v0 = np.zeros_like(u0)
        dt = a.dt_min
        u_ref, v_ref = NewmarkSolver(csr.A(sem), dt).run(u0, v0, 10)
        first = NewmarkSolver(csr.A(sem), dt)
        u, v = first.run(u0, v0, 4)
        second = NewmarkSolver(csr.A(sem), dt)
        second.restore(first.state())
        u2, v2 = second.run(u, v, 6)
        assert np.array_equal(u2, u_ref) and np.array_equal(v2, v_ref)

    def test_distributed_resume_via_replicas_is_bitwise(self, sys1d, tmp_path):
        """Restoring the exact per-rank replicas keeps the distributed
        resume bitwise (scatter-from-global would round-off-perturb
        shared DOFs)."""
        sem, a, dof_level, u0 = sys1d
        v0 = np.zeros_like(u0)
        parts = (np.arange(sem.mesh.n_elements) * 3 // sem.mesh.n_elements).astype(
            np.int64
        )
        lay = build_rank_layout(sem, parts, 3, dof_level=dof_level)

        ref = DistributedLTSSolver(lay, a.dt)
        u_ref, v_ref = ref.run(u0, v0, 8)

        captured = {}

        def grab(cycle, u_locals, v_locals):
            captured["state"] = CheckpointState(
                cycle=cycle, t=cycle * a.dt, u=lay.gather(u_locals),
                v=lay.gather(v_locals),
                u_locals=[x.copy() for x in u_locals],
                v_locals=[x.copy() for x in v_locals],
            )

        DistributedLTSSolver(lay, a.dt).run(
            u0, v0, 8, checkpoint_every=5, on_checkpoint=grab
        )
        back = load_checkpoint(
            save_checkpoint(tmp_path / "ck", captured["state"])
        )

        solver = DistributedLTSSolver(lay, a.dt)
        solver.restore(back.solver_state())
        # Stored replicas are ascending; the solver steps its plan's numbering.
        m = solver.plan.replicas
        u_locals, v_locals = m.numbered(back.u_locals), m.numbered(back.v_locals)
        for _ in range(3):
            solver.step(u_locals, v_locals)
        assert np.array_equal(m.gather(u_locals), u_ref)
        assert np.array_equal(m.gather(v_locals), v_ref)

    @pytest.mark.parametrize("ranks", [1, 3])
    def test_ascending_replicas_resume_bitwise(self, sys1d, tmp_path, ranks):
        """Solvers step a level-sorted numbering, but replicas leave a
        run ascending in global DOF id — ``on_checkpoint``'s and a
        checkpoint's ``u_locals``, as every earlier version wrote them
        (``[u[g] for g in layout.gdofs]``) — and such a state resumes
        bitwise equal to the uninterrupted run."""
        sem, a, dof_level, u0 = sys1d
        v0 = np.zeros_like(u0)
        parts = (np.arange(sem.mesh.n_elements) * 3 // sem.mesh.n_elements).astype(np.int64)
        lay = build_rank_layout(sem, parts, 3, dof_level=dof_level)

        def solver():
            if ranks == 1:
                return LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
            return DistributedLTSSolver(lay, a.dt)

        gdofs = lay.gdofs if ranks > 1 else [np.arange(sem.n_dof)]
        assert solver().plan.replicas.sorter is not None  # several levels: reordered
        u_ref, v_ref = solver().run(u0, v0, 8)
        grabbed = []
        u5, v5 = solver().run(
            u0, v0, 5, checkpoint_every=5,
            on_checkpoint=lambda cycle, us, vs: grabbed.append((us, vs)),
        )
        ascending = [u5[g] for g in gdofs], [v5[g] for g in gdofs]
        for got, want in zip(grabbed[0], ascending):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

        state = CheckpointState(cycle=5, t=5 * a.dt, u=u5, v=v5,
                                u_locals=ascending[0], v_locals=ascending[1])
        back = load_checkpoint(save_checkpoint(tmp_path / "ck", state))
        resumed = solver()
        resumed.restore(back.solver_state())
        fields = Fields.start(resumed.plan.replicas, back)
        written = {}  # what a checkpoint at the last cycle would store
        u, v = run_cycles(
            resumed, fields, 3, checkpoint_every=8,
            on_checkpoint=lambda c, us, vs: written.update(fields.checkpoint_arrays(us, vs)),
        )
        assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert written["u"].tobytes() == u.tobytes()
        for x, g in zip(written["u_locals"], gdofs):
            assert x.tobytes() == u[g].tobytes()

    def test_checkpoint_cadence_uses_absolute_cycles(self, sys1d):
        """A restored solver checkpoints at the same cycles the
        uninterrupted run would."""
        sem, a, dof_level, u0 = sys1d
        fired = []
        solver = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        solver.restore({"t": 5 * a.dt, "cycle": 5})
        solver.run(
            u0, np.zeros_like(u0), 7, checkpoint_every=4,
            on_checkpoint=lambda cycle, u, v: fired.append(cycle),
        )
        assert fired == [8, 12]
