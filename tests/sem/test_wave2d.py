"""2D wave-propagation accuracy tests on the assembled SEM system."""

import numpy as np
import pytest

from repro.core import NewmarkSolver
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import uniform_grid
from repro.sem import SemND, discrete_energy
from oracles import csr


@pytest.fixture(scope="module")
def square():
    mesh = uniform_grid((6, 6), (1.0, 1.0))
    return SemND(mesh, order=4)


class TestStandingWave2D:
    """u = cos(pi x) cos(pi y) cos(omega t) is a Neumann eigenmode with
    omega = sqrt(2) pi for c = 1."""

    def test_accuracy(self, square):
        sem = square
        om = np.sqrt(2.0) * np.pi
        u0 = sem.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        T = 0.8
        n = 600
        dt = T / n
        v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
        u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
        exact = u0 * np.cos(om * T)
        assert np.max(np.abs(u - exact)) < 5e-4

    def test_temporal_convergence_second_order(self, square):
        sem = square
        om = np.sqrt(2.0) * np.pi
        u0 = sem.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        T = 0.4
        errs = []
        for n in (150, 300, 600):
            dt = T / n
            v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
            u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
            errs.append(np.max(np.abs(u - u0 * np.cos(om * T))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o > 1.8 for o in orders), (errs, orders)

    def test_spectral_spatial_accuracy(self):
        """At fixed tiny dt, raising the order slashes the spatial error."""
        om = np.sqrt(2.0) * np.pi
        errs = {}
        for order in (2, 4):
            sem = SemND(uniform_grid((4, 4), (1.0, 1.0)), order=order)
            u0 = sem.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
            T, n = 0.2, 800
            dt = T / n
            v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
            u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
            errs[order] = np.max(np.abs(u - u0 * np.cos(om * T)))
        assert errs[4] < errs[2] / 10

    def test_energy_conserved(self, square):
        sem = square
        u = sem.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        dt = 5e-4
        v = staggered_initial_velocity(csr.A(sem), dt, u, np.zeros_like(u))
        solver = NewmarkSolver(csr.A(sem), dt)
        energies = []
        for _ in range(200):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(sem.M, csr.K(sem), u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6


class TestHeterogeneous2D:
    def test_fast_inclusion_shrinks_stable_step(self):
        from repro.core import stable_timestep_from_operator

        uniform = SemND(uniform_grid((4, 4)), order=3)
        contrast_mesh = uniform_grid((4, 4))
        contrast_mesh.c = contrast_mesh.c.copy()
        contrast_mesh.c[5] = 4.0
        contrast = SemND(contrast_mesh, order=3)
        dt_u = stable_timestep_from_operator(csr.A(uniform))
        dt_c = stable_timestep_from_operator(csr.A(contrast))
        assert dt_c < dt_u / 2  # 4x velocity ~ 4x smaller step
