"""Tests for the explicit Newmark reference scheme (Eqs. (5)-(6)).

``NewmarkSolver`` is the one-level LTS cycle, and a level over every
column is the operator's own product.  The golden pins below were
recorded when Newmark still had a stepper of its own; the one-level
cycle must reproduce them bit for bit, on every tier and on ranks.
"""

import hashlib

import numpy as np
import pytest

from repro.core import AssembledOperator, NewmarkSolver, assign_levels
from repro.core.lts_newmark import LTSPlan, dof_levels_from_elements
from repro.core.newmark import staggered_initial_velocity
from repro.core.workspace import reachable_buffers
from repro.mesh import uniform_grid, uniform_interval
from repro.runtime import DistributedLTSSolver
from repro.sem import (
    AnisotropicElasticSemND,
    ElasticSemND,
    IsotropicElastic,
    SemND,
    fused,
    hexagonal_stiffness,
    point_source,
    ricker,
)
from repro.sem.materials import rotate_voigt, rotation_about_y
from repro.util.errors import SolverError
from oracles import csr


@pytest.fixture(scope="module")
def system():
    mesh = uniform_interval(24)
    sem = SemND(mesh, order=4, dirichlet=True)
    L = mesh.coords[:, 0].max()
    k = np.pi / L
    return sem, k


class TestHarmonicOscillator:
    """Scalar u'' = -w^2 u has the exact solution cos(w t)."""

    def test_second_order_convergence(self):
        w2 = np.array([[4.0]])
        errs = []
        T = 3.0
        for n in (64, 128, 256):
            dt = T / n
            u0 = np.array([1.0])
            v0 = staggered_initial_velocity(w2, dt, u0, np.zeros(1))
            u, _ = NewmarkSolver(w2, dt).run(u0, v0, n)
            errs.append(abs(u[0] - np.cos(2.0 * T)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 1.8 for o in orders), orders


class TestWaveEquation:
    def test_standing_wave_accuracy(self, system):
        sem, k = system
        u0 = np.sin(k * sem.node_coords[:, 0])
        T, n = 1.0, 400
        dt = T / n
        v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
        u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
        assert np.max(np.abs(u - u0 * np.cos(k * T))) < 1e-4

    def test_energy_bounded_long_run(self, system):
        sem, k = system
        from repro.sem import discrete_energy

        u = np.sin(k * sem.node_coords[:, 0])
        dt = 5e-4
        v = staggered_initial_velocity(csr.A(sem), dt, u, np.zeros_like(u))
        solver = NewmarkSolver(csr.A(sem), dt)
        energies = []
        for _ in range(300):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(sem.M, csr.K(sem), u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6

    def test_run_does_not_mutate_inputs(self, system):
        sem, k = system
        u0 = np.sin(k * sem.node_coords[:, 0])
        v0 = np.zeros_like(u0)
        u0c, v0c = u0.copy(), v0.copy()
        NewmarkSolver(csr.A(sem), 1e-4).run(u0, v0, 3)
        assert np.array_equal(u0, u0c) and np.array_equal(v0, v0c)

    def test_force_injection_moves_solution(self, system):
        sem, _ = system
        n = sem.n_dof
        f = np.zeros(n)
        f[n // 2] = 1.0
        u, _ = NewmarkSolver(csr.A(sem), 1e-4, force=lambda t: f).run(np.zeros(n), np.zeros(n), 50)
        assert np.abs(u[n // 2]) > 0

    def test_step_counts_time(self, system):
        sem, _ = system
        s = NewmarkSolver(csr.A(sem), 0.5)
        s.run(np.zeros(sem.n_dof), np.zeros(sem.n_dof), 4)
        assert s.n_cycles_taken == 4
        assert s.t == pytest.approx(2.0)


class TestValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(SolverError):
            NewmarkSolver(np.eye(2), dt=0.0)

    def test_rejects_negative_steps(self):
        with pytest.raises(SolverError):
            NewmarkSolver(np.eye(2), dt=0.1).run(np.zeros(2), np.zeros(2), -1)


# ----------------------------------------------------------------------
# Golden pins: sha256 of u and v after 30 steps
# ----------------------------------------------------------------------
# Every fused kernel has a pin (el_apply3, an_apply3 and ac_apply3 at
# order 4, the order with a literal-n1 instance; ac_apply at order 8 on
# the runtime-n1 instance), recorded on the runtime-order loops the
# instances must reproduce.  The three-rank pins (``newmark3``, ``lts3``)
# are recorded with ``1/M`` in every rank's product, the halo sum adding
# scaled partials.  Every elastic pin is the stress form's.  Against the
# block form it replaced, u and v moved by at most 2.1e-15 and 2.5e-15
# of their largest entry in el_apply3's pin, and by at most 1.8e-14 and
# 2.3e-14 (NumPy) and 1.2e-14 and 1.4e-14 (fused, an_apply) in the 2D
# elastic pins.
N_STEPS = 30

GOLDEN = {
    "1d/assembled": "4f5d7ec21b3640fb4ca4896bce83b1408e164691ec5eba147965d88bf01130b9",
    "2d/assembled/point": "a3412b8ec951f0f368e863a1d2bb82da3d1d909082d6e1eef2d13fecb556405d",
    "2d/assembled/dense": "a3412b8ec951f0f368e863a1d2bb82da3d1d909082d6e1eef2d13fecb556405d",
    "2d/numpy/point": "65f256ad962ca8ef946005a498c8f157720ab8dbd76044297d6f75f86591d878",
    "2d/numpy/dense": "65f256ad962ca8ef946005a498c8f157720ab8dbd76044297d6f75f86591d878",
    "2d/fused/point": "0d0ceba57c4dee8e4a0e17429e8635ba1abf217b5d203f492ebab4849a0bbe39",
    "2d/fused/dense": "0d0ceba57c4dee8e4a0e17429e8635ba1abf217b5d203f492ebab4849a0bbe39",
    "2d-dirichlet/numpy/point": "f54ab2a637da5a1ac4105fe183ca227aac4c9682a75cf43516da5e143c628d3e",
    "2d-dirichlet/fused/point": "1ba788df9035a3174c0703570fa7656d10f4a9b019fe932cc364af53b4c690ee",
    "2d-o8/fused/point": "31f1cdacd63ea0adcaefdc8eb6d5ca679a04172de3be55d0ca677bf5e54b7ceb",
    "3d/fused/point": "43f078336e43cd59ef596f7ba931a3a052920fe493f8e6a431dd6257805e4ed7",
    "3d-o4/fused/point": "d50d2e475e4c8db25d43485a66b69f76aa0c6ed317cd3a4854e098ba4626fa9f",
    "elastic/numpy/point": "2e962f2cfb8a1337c326486503ae42c32397f4301fbb9f41c89ac10d32d687ce",
    "elastic/fused/point": "e6aa12ad17ea4da203c3890e61abd40111589154767f20a5f0481bb6927be4be",
    "elastic3d/fused/point": "1cb6310af7775e3a874b037ae04596bceaebbad1db4140d69091b2ce7b6f3427",
    "aniso/fused/point": "1225e79ce405b6131686f960003305620152e6c22deee043a8de4710135a205a",
    "aniso3d/fused/point": "677ee057a8d90aae8dbbcfdde7a5dc2e113ad8f0a381b4e66a6f29e85e072ee2",
    "newmark3/assembled": "74c88e0994673725667bfc169f842f2d29f4fd085f4d7b4e88e39e6c7f2ddd9e",
    "newmark3/numpy": "65f4926d498077ebebdc780ee22547acea512e8eef1791eb7572875ce2393935",
    "newmark3/fused": "1ebe437a6ab0c24e1d5fb0ae5c7a8ffbd9c8f53536a98f8fc75d0c9ad80c8879",
    "lts3/assembled": "ee5c40036ba205aadb9de6f3278b19d59d905efc9086347d3a367bf2e84403d4",
    "lts3/numpy": "005078903b5d9b5f832007614b324cc1a30156def8c5657c74bb7100f75cc613",
    "lts3/fused": "0b9e9e0c8b7012d027e2b111a87832fad80e4c907e638469140deeaae32c8193",
}


def _bump(x):
    return np.exp(-8.0 * ((x - x.mean(axis=0)) ** 2).sum(axis=1))


def _serial_pin(kind, tier, source):
    """``NewmarkSolver`` on a small serial system: ``(u, v)`` after the pin's steps."""
    if kind == "1d":
        sem = SemND(uniform_interval(16), order=4, dirichlet=True)
        dt = 1e-3
        u0 = np.sin(np.pi * sem.node_coords[:, 0] / sem.node_coords[:, 0].max())
        v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
        return NewmarkSolver(csr.A(sem), dt).run(u0, v0, N_STEPS)
    velocity = None
    if kind in ("3d", "3d-o4"):
        mesh, order = (uniform_grid((3, 2, 2)), 2) if kind == "3d" else (uniform_grid((2, 2, 2)), 4)
        sem = SemND(mesh, order=order)
        x = sem.node_coords
    elif kind == "elastic":
        mesh, order = uniform_grid((4, 3)), 3
        sem = ElasticSemND(mesh, order=order)
        x = np.repeat(sem.node_coords, 2, axis=0)
    elif kind in ("elastic3d", "aniso", "aniso3d"):
        # The vector kernels at their pins' orders: 3D elastic and 3D
        # stress form at order 4, 2D stress form at order 3.
        mesh, order = uniform_grid((2, 2, 2)), 4
        if kind == "elastic3d":
            material = IsotropicElastic(lam=2.0, mu=1.0)
            sem = ElasticSemND(mesh, order=order, material=material)
        elif kind == "aniso":
            mesh, order = uniform_grid((4, 3)), 3
            C = [[4.0, 1.5, 0.3], [1.5, 3.0, 0.2], [0.3, 0.2, 1.2]]
            sem = AnisotropicElasticSemND(mesh, order=order, C=C)
        else:
            C = rotate_voigt(hexagonal_stiffness(4.0, 3.0, 1.2, 1.0, 1.3), rotation_about_y(0.4))
            sem = AnisotropicElasticSemND(mesh, order=order, C=C)
        x = np.repeat(sem.node_coords, sem.n_comp, axis=0)
        velocity = sem.max_velocity()
    else:
        # 2d-o8: a 2D-only order (the runtime-n1 instance)
        mesh, order = (uniform_grid((2, 2)), 8) if kind == "2d-o8" else (uniform_grid((5, 4)), 3)
        sem = SemND(mesh, order=order, dirichlet=kind == "2d-dirichlet")
        x = sem.node_coords
    dt = assign_levels(mesh, c_cfl=0.4, order=order, velocity=velocity).dt_min
    point = point_source(sem.n_dof, sem.n_dof // 3, sem.M, ricker(f0=0.5, t0=2 * dt))
    force = point if source == "point" else (lambda t: point(t))
    A = csr.A(sem) if tier == "assembled" else sem.operator(use_fused=tier == "fused")
    u0 = _bump(x)
    return NewmarkSolver(A, dt, force=force).run(u0, np.zeros_like(u0), N_STEPS)


def _ranks_pin(kind, tier):
    """Three row blocks of an 8 x 8 grid: one-level Newmark, or LTS with
    a fast corner (``lts3``) that leaves rank 0 only level-1 DOFs."""
    mesh = uniform_grid((8, 8))
    mesh.c = mesh.c.copy()
    if kind == "lts3":
        mesh.c[[43, 44, 51]] = [4.0, 2.0, 2.0]
    sem = SemND(mesh, order=3)
    a = assign_levels(mesh, c_cfl=0.4, order=3)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    layout = csr.tier_layout(sem, np.arange(64) // 22, 3, tier, dof_level)
    point = point_source(sem.n_dof, sem.n_dof // 2, sem.M, ricker(f0=0.5, t0=2 * a.dt))
    if kind == "newmark3":  # a one-level layout: the distributed Newmark run
        assert a.n_levels == 1 and a.dt == a.dt_min
        solver = DistributedLTSSolver(layout, a.dt_min, force=point)
    else:
        assert a.n_levels > 1 and layout.dof_level_local[0].max() == 1
        solver = DistributedLTSSolver(layout, a.dt, force=point)
    u0 = _bump(sem.node_coords)
    return solver.run(u0, np.zeros_like(u0), N_STEPS)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_pin(case):
    kind, tier, *source = case.split("/")
    if tier == "fused" and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    if kind in ("newmark3", "lts3"):
        u, v = _ranks_pin(kind, tier)
    else:
        u, v = _serial_pin(kind, tier, source[0] if source else None)
    assert hashlib.sha256(u.tobytes() + v.tobytes()).hexdigest() == GOLDEN[case]


# ----------------------------------------------------------------------
# A level over every column is the operator's own product
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid():
    mesh = uniform_grid((4, 3))
    return mesh, SemND(mesh, order=3), SemND(mesh, order=3, dirichlet=True)


class TestWholeColumnRule:
    def test_assembled_applies_the_matrix_as_given(self, grid):
        _, sem, _ = grid
        A = csr.A(sem).copy()
        op = AssembledOperator(A)
        restr = op.restrict(np.arange(sem.n_dof))
        u = np.random.default_rng(0).standard_normal(sem.n_dof)
        out = np.empty(sem.n_dof)
        restr.apply(u, out=out)
        assert out.tobytes() == (A @ u).tobytes()
        assert restr.apply(u).tobytes() == out.tobytes()
        assert restr.workspace_bytes == 0  # no gather buffer
        assert "_A_csc" not in vars(op)  # and no CSC twin
        A.data *= 2.0  # the product reads the caller's entries, not a copy
        assert restr.apply(u, out=out).tobytes() == (A @ u).tobytes()
        assert np.shares_memory(op.A.data, A.data)

    def test_one_level_plan_builds_no_csc_twin(self, grid):
        _, sem, _ = grid
        plan = LTSPlan(csr.A(sem), np.ones(sem.n_dof, dtype=np.int64))
        assert "_A_csc" not in vars(plan.op)
        plan.op.reach(np.ones(sem.n_dof, dtype=bool))  # a reach builds it
        assert "_A_csc" in vars(plan.op)

    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("tier", ["numpy", pytest.param("fused", marks=pytest.mark.skipif(
        not fused.available(), reason="no C compiler: fused tier unavailable"))])
    def test_matrix_free_whole_restriction_is_the_operator(self, grid, tier, dirichlet):
        _, sem, sem_d = grid
        s = sem_d if dirichlet else sem
        """Every column is the operator's own product: the NumPy tier's
        is the operator itself, the fused tier's its raw twin (tables and
        plan shared, no ``Minv``), which ``row_scale`` scales bitwise into
        the operator's apply."""
        op = s.operator("matfree", use_fused=tier == "fused")
        u = np.random.default_rng(1).standard_normal(s.n_dof)
        whole = op.restrict(np.arange(s.n_dof)).apply(u)
        twin = op.masked_subset(np.ones(s.n_dof, dtype=bool))
        if tier == "numpy":
            assert op.row_scale is None and twin is op
        else:
            assert twin is not op and twin.Minv is None and twin.row_scale is None
            assert twin._plan is op._plan and twin.element_dofs is op.element_dofs
            whole *= op.row_scale
        assert whole.tobytes() == op.apply(u).tobytes()

    def test_proper_subset_still_masks(self, grid):
        _, sem, _ = grid
        op = sem.operator("matfree", use_fused=False)
        mask = np.ones(sem.n_dof, dtype=bool)
        mask[0] = False
        sub = op.masked_subset(mask)
        assert sub is not op and sub.gmask is not None

    def test_newmark_holds_two_vectors_beyond_the_matrix(self):
        """After a step, a NewmarkSolver holds, beyond the arrays of
        ``A``: the apply output (also the step's scratch) and the level's
        column list — nothing of ``A``'s size."""
        mesh = uniform_grid((16, 16))
        sem = SemND(mesh, order=4)
        solver = NewmarkSolver(csr.A(sem), assign_levels(mesh, c_cfl=0.4, order=4).dt)
        solver.step(np.ones(sem.n_dof), np.zeros(sem.n_dof))
        own = reachable_buffers(csr.A(sem))
        extra = [b for k, b in reachable_buffers(solver).items() if k not in own]
        assert sorted(extra)[-2:] == [8 * sem.n_dof] * 2
        assert sum(extra) < 2 * 8 * sem.n_dof + 4096

