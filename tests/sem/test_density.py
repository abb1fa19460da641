"""Variable-density acoustics: ``rho u_tt = div(rho c^2 grad u)``.

The acoustic assemblers historically hardwired ``rho = 1``; the material
layer exposes it.  With the modulus ``kappa = rho c^2`` the wave speed
stays ``c``, constant density cancels out of ``A = M^{-1} K`` entirely,
and density *contrast* changes the operator — verified here against a
closed-form two-layer eigenmode with spectral convergence."""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import IsotropicAcoustic, SemND
from repro.util.errors import SolverError
from oracles import csr


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


class TestDensityScaling:
    def test_default_matches_explicit_unit_density(self):
        mesh = uniform_grid((4, 3))
        a = SemND(mesh, order=3)
        b = SemND(mesh, order=3, material=IsotropicAcoustic(mesh.c, rho=1.0))
        assert np.array_equal(a.M, b.M)
        assert (csr.K(a) != csr.K(b)).nnz == 0
        assert (csr.A(a) != csr.A(b)).nnz == 0

    def test_constant_density_cancels_in_operator(self):
        """kappa = rho c^2 scales K by rho and M by rho, so a constant
        density leaves A = M^{-1} K (and every wave solution) unchanged."""
        mesh = uniform_grid((4, 3))
        a = SemND(mesh, order=3)
        b = SemND(mesh, order=3, material=IsotropicAcoustic(mesh.c, rho=2.5))
        assert np.allclose(b.M, 2.5 * a.M)
        u = np.random.default_rng(0).standard_normal(a.n_dof)
        assert _rel_err(csr.A(b) @ u, csr.A(a) @ u) < 1e-13

    @pytest.mark.parametrize("grid", [(6,), (4, 3), (2, 2, 2)])
    def test_heterogeneous_density_backend_equivalence(self, grid):
        mesh = uniform_grid(grid)
        rng = np.random.default_rng(0)
        rho = 1.0 + rng.random(mesh.n_elements)
        sem = SemND(mesh, order=3, material=IsotropicAcoustic(mesh.c, rho=rho))
        u = rng.standard_normal(sem.n_dof)
        assert _rel_err(sem.operator("matfree") @ u, csr.A(sem) @ u) < 1e-12

    def test_rejects_nonpositive_density(self):
        mesh = uniform_grid((2, 2))
        with pytest.raises(SolverError):
            SemND(mesh, material=IsotropicAcoustic(mesh.c, rho=0.0))
        with pytest.raises(SolverError):
            SemND(mesh, material=IsotropicAcoustic(mesh.c, rho=-1.0))

    def test_max_velocity_is_material_speed(self):
        mesh = uniform_grid((3, 2))
        mesh.c = np.linspace(1.0, 2.0, mesh.n_elements)
        sem = SemND(mesh, order=2, material=IsotropicAcoustic(mesh.c, rho=2.0))
        assert np.array_equal(sem.max_velocity(), mesh.c)


class TestHeterogeneousDensityConvergence:
    """Closed-form two-layer Neumann eigenmode with a 4x density jump.

    kappa = rho c^2 = 4 on both layers; c = 2 (rho = 1) for x < 1/3 and
    c = 4 (rho = 1/4) beyond.  With omega = 3 pi the piecewise mode

        u = cos(3 pi x / 2)            x <= 1/3
        u = -2 cos(3 pi (1 - x) / 4)   x >= 1/3

    is continuous with continuous flux and satisfies
    -(1/rho)(kappa u')' = omega^2 u with Neumann ends, so the free-
    surface operator must reproduce A u = omega^2 u spectrally (the
    interface is mesh-aligned at x = 1/3).
    """

    OMEGA = 3 * np.pi

    @staticmethod
    def _mode(x):
        return np.where(
            x <= 1 / 3,
            np.cos(1.5 * np.pi * x),
            -2.0 * np.cos(0.75 * np.pi * (1 - x)),
        )

    def _residual(self, order: int) -> float:
        mesh = uniform_grid((6, 2), (1.0, 1.0))
        left = mesh.coords[mesh.elements].mean(axis=1)[:, 0] < 1 / 3
        mesh.c = np.where(left, 2.0, 4.0)
        rho = np.where(left, 1.0, 0.25)
        sem = SemND(mesh, order=order, material=IsotropicAcoustic(mesh.c, rho=rho))
        uI = sem.interpolate(lambda x, y: self._mode(x))
        return _rel_err(csr.A(sem) @ uI, self.OMEGA**2 * uI)

    def test_spectral_convergence_in_order(self):
        res = [self._residual(order) for order in (2, 3, 4, 5, 6)]
        assert all(a > b for a, b in zip(res, res[1:]))  # monotone decay
        assert res[0] > 1e-3  # genuinely coarse at order 2...
        assert res[-1] < 1e-7  # ...spectrally accurate by order 6

    def test_unit_density_does_not_solve_the_layered_problem(self):
        """Dropping the density contrast must change the operator: the
        same mode is *not* an eigenfunction of the rho = 1 operator."""
        mesh = uniform_grid((6, 2), (1.0, 1.0))
        left = mesh.coords[mesh.elements].mean(axis=1)[:, 0] < 1 / 3
        mesh.c = np.where(left, 2.0, 4.0)
        sem = SemND(mesh, order=6)  # rho = 1 everywhere
        uI = sem.interpolate(lambda x, y: self._mode(x))
        assert _rel_err(csr.A(sem) @ uI, self.OMEGA**2 * uI) > 1e-2
