"""Tests for the 2D P-SV elastic SEM (the paper's Eqs. (1)-(2))."""

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core import NewmarkSolver
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import uniform_grid
from repro.sem import IsotropicElastic, discrete_energy
from repro.sem import ElasticSemND
from repro.util.errors import SolverError
from oracles import csr


@pytest.fixture(scope="module")
def elastic():
    return ElasticSemND(
        uniform_grid((4, 4), (1.0, 1.0)), order=4,
        material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.0),
    )


class TestAssembly:
    def test_dof_count(self, elastic):
        assert elastic.n_dof == 2 * (4 * 4 + 1) ** 2

    def test_stiffness_symmetric_psd(self, elastic):
        K = csr.K(elastic).toarray()
        assert np.allclose(K, K.T, atol=1e-10)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8

    def test_rigid_body_translations_in_kernel(self, elastic):
        for comp in (0, 1):
            u = np.zeros(elastic.n_dof)
            u[comp::2] = 1.0
            assert np.max(np.abs(csr.K(elastic) @ u)) < 1e-9

    def test_infinitesimal_rotation_in_kernel(self, elastic):
        """(u, v) = (y, -x) has zero strain: the elastic energy kernel."""
        u = elastic.interpolate(lambda x, y: y, lambda x, y: -x)
        assert np.max(np.abs(csr.K(elastic) @ u)) < 1e-8

    def test_mass_positive_and_totals_rho_area(self, elastic):
        assert np.all(elastic.M > 0)
        assert elastic.M.sum() == pytest.approx(2.0 * 1.0)  # 2 comps x rho x area

    def test_p_and_s_velocities(self, elastic):
        assert np.allclose(elastic.p_velocity(), 2.0)  # sqrt((2+2)/1)
        assert np.allclose(elastic.s_velocity(), 1.0)

    def test_rejects_bad_materials(self):
        with pytest.raises(SolverError):
            ElasticSemND(uniform_grid((2, 2)), material=IsotropicElastic(mu=-1.0))


class TestEigenstructure:
    def test_plane_p_mode_at_zero_lambda(self):
        """With lambda = 0, ux = cos(pi x) (uniform in y) is traction-free
        on all four sides and is an exact eigenmode with
        omega^2 = (pi cp)^2, cp = sqrt(2 mu / rho).  (For lambda != 0 the
        lateral boundaries carry sigma_yy, so no plane mode exists — which
        is why this test pins the lambda = 0 case.)"""
        sem = ElasticSemND(
            uniform_grid((4, 4), (1.0, 1.0)), order=4,
            material=IsotropicElastic(lam=0.0, mu=1.0),
        )
        vals = np.sort(np.real(np.linalg.eigvals(csr.A(sem).toarray())))
        vals = vals[vals > 1e-6]
        target = 2.0 * np.pi**2  # (pi cp)^2, cp = sqrt(2)
        assert np.min(np.abs(vals - target)) / target < 1e-4

    def test_spectrum_scales_with_moduli(self, elastic):
        """A is linear in (lambda, mu)/rho: scaling both by 4 scales every
        eigenvalue by 4 (homogeneity check of the assembly)."""
        sem4 = ElasticSemND(
            uniform_grid((4, 4), (1.0, 1.0)), order=4,
            material=IsotropicElastic(lam=8.0, mu=4.0, rho=1.0),
        )
        diff = (csr.A(sem4) - 4.0 * csr.A(elastic))
        assert np.max(np.abs(diff.toarray())) < 1e-9


class TestDynamics:
    def test_p_plane_wave_evolution(self):
        """ux = cos(pi x) cos(pi cp t) is exact for lambda = 0."""
        sem = ElasticSemND(
            uniform_grid((4, 4), (1.0, 1.0)), order=4,
            material=IsotropicElastic(lam=0.0, mu=1.0),
        )
        cp = np.sqrt(2.0)
        u0 = sem.interpolate(lambda x, y: np.cos(np.pi * x), lambda x, y: 0 * x)
        T, n = 0.5, 800
        dt = T / n
        v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
        u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
        exact = u0 * np.cos(np.pi * cp * T)
        assert np.max(np.abs(u - exact)) < 5e-4

    def test_energy_conserved(self, elastic):
        u = elastic.interpolate(
            lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y), lambda x, y: 0 * x
        )
        dt = 2e-4
        v = staggered_initial_velocity(csr.A(elastic), dt, u, np.zeros_like(u))
        solver = NewmarkSolver(csr.A(elastic), dt)
        energies = []
        for _ in range(200):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(elastic.M, csr.K(elastic), u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6


class TestElasticLTS:
    def test_lts_matches_algorithm1_on_stiff_inclusion(self):
        """LTS levels from a stiff (fast) inclusion, graded so every level
        between is active; optimized == Algorithm 1."""
        mesh = uniform_grid((4, 4), (1.0, 1.0))
        lam = np.full(16, 2.0)
        mu = np.full(16, 1.0)
        lam[5] = 128.0
        mu[5] = 64.0  # cp factor-8 inclusion
        sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=lam, mu=mu))
        mesh.c = sem.p_velocity()
        levels = assign_levels(mesh, c_cfl=0.35, order=3, grade=True)
        dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
        assert np.unique(dof_level).tolist() == [1, 2, 3, 4]
        u0 = sem.interpolate(
            lambda x, y: np.exp(-8 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)),
            lambda x, y: 0 * x,
        )
        v0 = staggered_initial_velocity(csr.A(sem), levels.dt, u0, np.zeros_like(u0))
        u1, _ = algorithm1(csr.A(sem), dof_level, levels.dt, u0, v0, 5)
        u2, _ = LTSNewmarkSolver(csr.A(sem), dof_level, levels.dt).run(u0, v0, 5)
        assert np.max(np.abs(u1 - u2)) < 1e-12
        assert np.all(np.isfinite(u1))

    def test_distributed_elastic_lts_matches_serial(self):
        from repro.runtime import DistributedLTSSolver, build_rank_layout

        mesh = uniform_grid((4, 4), (1.0, 1.0))
        lam = np.full(16, 2.0)
        mu = np.full(16, 1.0)
        lam[10] = 128.0
        mu[10] = 64.0  # cp factor-8 inclusion, graded: four active levels
        sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=lam, mu=mu))
        mesh.c = sem.p_velocity()
        levels = assign_levels(mesh, c_cfl=0.35, order=3, grade=True)
        dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
        assert np.unique(dof_level).tolist() == [1, 2, 3, 4]
        u0 = sem.interpolate(
            lambda x, y: np.exp(-8 * ((x - 0.3) ** 2 + (y - 0.6) ** 2)),
            lambda x, y: 0 * x,
        )
        v0 = staggered_initial_velocity(csr.A(sem), levels.dt, u0, np.zeros_like(u0))
        us, _ = algorithm1(csr.A(sem), dof_level, levels.dt, u0, v0, 4)
        parts = (np.arange(16) % 3).astype(np.int64)
        layout = build_rank_layout(sem, parts, 3, dof_level=dof_level)
        ud, _ = DistributedLTSSolver(layout, levels.dt).run(u0, v0, 4)
        assert np.max(np.abs(us - ud)) < 1e-11
