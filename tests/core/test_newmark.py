"""Tests for the explicit Newmark reference scheme (Eqs. (5)-(6))."""

import numpy as np
import pytest

from repro.core.newmark import NewmarkSolver, newmark_run, staggered_initial_velocity
from repro.sem import Sem1D
from repro.mesh import uniform_interval
from repro.util.errors import SolverError


@pytest.fixture(scope="module")
def system():
    mesh = uniform_interval(24)
    sem = Sem1D(mesh, order=4, dirichlet=True)
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
            u, _ = newmark_run(w2, dt, u0, v0, n)
            errs.append(abs(u[0] - np.cos(2.0 * T)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 1.8 for o in orders), orders


class TestWaveEquation:
    def test_standing_wave_accuracy(self, system):
        sem, k = system
        u0 = np.sin(k * sem.x)
        T, n = 1.0, 400
        dt = T / n
        v0 = staggered_initial_velocity(sem.A, dt, u0, np.zeros_like(u0))
        u, _ = newmark_run(sem.A, dt, u0, v0, n)
        assert np.max(np.abs(u - u0 * np.cos(k * T))) < 1e-4

    def test_energy_bounded_long_run(self, system):
        sem, k = system
        from repro.sem import discrete_energy

        u = np.sin(k * sem.x)
        dt = 5e-4
        v = staggered_initial_velocity(sem.A, dt, u, np.zeros_like(u))
        solver = NewmarkSolver(sem.A, dt)
        energies = []
        for _ in range(300):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(sem.M, sem.K, u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6

    def test_run_does_not_mutate_inputs(self, system):
        sem, k = system
        u0 = np.sin(k * sem.x)
        v0 = np.zeros_like(u0)
        u0c, v0c = u0.copy(), v0.copy()
        newmark_run(sem.A, 1e-4, u0, v0, 3)
        assert np.array_equal(u0, u0c) and np.array_equal(v0, v0c)

    def test_force_injection_moves_solution(self, system):
        sem, _ = system
        n = sem.n_dof
        f = np.zeros(n)
        f[n // 2] = 1.0
        u, _ = newmark_run(sem.A, 1e-4, np.zeros(n), np.zeros(n), 50, force=lambda t: f)
        assert np.abs(u[n // 2]) > 0

    def test_step_counts_time(self, system):
        sem, _ = system
        s = NewmarkSolver(sem.A, 0.5)
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
