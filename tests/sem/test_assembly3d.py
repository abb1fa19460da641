"""3D hexahedral SEM: entity numbering, conformity, and spectral accuracy.

The delicate part of the 3D continuous SEM is the *shared-face interior
numbering*: two elements seeing the same face must map its (order-1)^2
interior nodes identically for any conforming orientation.  These tests
pin that (structured node counts, per-element coordinate consistency,
invariance under random node relabelling) plus the physics (eigenmode
residuals decaying spectrally with order, standing-wave accuracy in
time) mirroring the 2D tier-1 suite.
"""

import numpy as np
import pytest

from repro.core import NewmarkSolver
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import uniform_grid
from repro.mesh.mesh import Mesh
from repro.sem import SemND, discrete_energy
from repro.util.errors import SolverError
from oracles import csr


def _contrast_mesh(shape=(3, 3, 2)):
    mesh = uniform_grid(shape, (1.0, 1.3, 0.8))
    mesh.c = mesh.c.copy()
    mesh.c[mesh.n_elements // 2] = 3.0
    return mesh


def _relabel_nodes(mesh: Mesh, seed: int) -> Mesh:
    """The same mesh with a random permutation of the node numbering.

    Conformity is unchanged, but corner-id-derived entity frames (edge
    traversal direction, face canonical frames) all change — exercising
    the orientation machinery far beyond what a structured grid does.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)  # new id of old node i
    coords = np.empty_like(mesh.coords)
    coords[perm] = mesh.coords
    return Mesh(
        dim=3,
        coords=coords,
        elements=perm[mesh.elements],
        h=mesh.h.copy(),
        c=mesh.c.copy(),
        name=mesh.name,
    )


class TestNumbering:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 4)])
    def test_structured_dof_count(self, order, shape):
        """On an n-cell structured grid the continuous space has exactly
        prod(n_a * order + 1) nodes — any duplicate or missed sharing
        would change the count."""
        sem = SemND(uniform_grid(shape), order=order)
        assert sem.n_dof == np.prod([n * order + 1 for n in shape])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dof_count_invariant_under_node_relabelling(self, seed):
        base = uniform_grid((3, 2, 2))
        sem = SemND(base, order=4)
        sem_p = SemND(_relabel_nodes(base, seed), order=4)
        assert sem_p.n_dof == sem.n_dof

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_nodes_coincide_geometrically(self, seed):
        """Every element's view of its GLL nodes must agree with the
        global coordinate table — shared edge/face nodes included, under
        arbitrary node relabelling (all canonical face frames)."""
        mesh = _relabel_nodes(uniform_grid((3, 2, 2), (1.0, 0.7, 1.9)), seed)
        sem = SemND(mesh, order=4)
        from repro.sem.gll import gll_points_weights

        xi, _ = gll_points_weights(4)
        gx = (xi + 1.0) / 2.0
        n1 = 5
        flat = np.arange(n1**3)
        p0 = mesh.coords[mesh.elements[:, 0]]
        for a in range(3):
            ia = (flat // n1 ** (2 - a)) % n1
            expect = (p0[:, a : a + 1] + gx[None, :] * sem.h_axes[:, a : a + 1])[:, ia]
            got = sem.node_coords[sem.element_dofs, a]
            assert np.abs(got - expect).max() < 1e-12

    def test_boundary_dofs_are_the_geometric_boundary(self):
        sem = SemND(uniform_grid((2, 3, 2), (1.0, 1.0, 1.0)), order=3)
        xc = sem.node_coords
        on_bnd = (
            np.isclose(xc, 0.0) | np.isclose(xc, 1.0)
        ).any(axis=1)
        assert np.array_equal(np.sort(sem.boundary_dofs()), np.nonzero(on_bnd)[0])

    def test_rejects_bad_geometry(self):
        mesh = uniform_grid((2, 2, 2))
        mesh.coords = mesh.coords.copy()
        mesh.coords[0] += 0.1  # break the axis-aligned box assumption
        with pytest.raises(SolverError):
            SemND(mesh, order=2)


class TestOperator:
    def test_mass_sums_to_volume(self):
        sem = SemND(uniform_grid((3, 2, 2), (1.0, 0.7, 1.9)), order=3)
        assert sem.M.sum() == pytest.approx(1.0 * 0.7 * 1.9, rel=1e-12)

    def test_stiffness_symmetric_with_constant_nullspace(self):
        sem = SemND(_contrast_mesh(), order=3)
        assert abs(csr.K(sem) - csr.K(sem).T).max() < 1e-10
        assert np.abs(csr.K(sem) @ np.ones(sem.n_dof)).max() < 1e-10

    def test_element_system_matches_assembled(self):
        """Summing dense element systems reproduces the global K and M."""
        sem = SemND(_contrast_mesh((2, 2, 2)), order=2)
        Ke, Me = csr.element_system_batch(sem)
        K = np.zeros((sem.n_dof, sem.n_dof))
        M = np.zeros(sem.n_dof)
        for e in range(sem.mesh.n_elements):
            d = sem.element_dofs[e]
            K[np.ix_(d, d)] += Ke[e]
            M[d] += Me[e]
        assert np.abs(K - csr.K(sem).toarray()).max() < 1e-12
        assert np.abs(M - sem.M).max() < 1e-12

    def test_dirichlet_masks_boundary_rows_and_cols(self):
        sem = SemND(uniform_grid((2, 2, 2)), order=2, dirichlet=True)
        bnd = sem.boundary_dofs()
        A = csr.A(sem).toarray()
        assert np.abs(A[bnd, :]).max() == 0.0
        assert np.abs(A[:, bnd]).max() == 0.0


class TestSpectralAccuracy3D:
    """u = cos(pi x) cos(pi y) cos(pi z) is a Neumann eigenmode of
    ``-div(c^2 grad .)`` with eigenvalue 3 pi^2 for c = 1."""

    def _mode(self, sem):
        return sem.interpolate(
            lambda x, y, z: np.cos(np.pi * x) * np.cos(np.pi * y) * np.cos(np.pi * z)
        )

    def test_plane_wave_eigen_residual_converges_spectrally(self):
        """Order sweep at fixed mesh: the operator residual on the
        eigenmode must fall by orders of magnitude per order increment
        (spectral convergence — the 3D analogue of the 2D suite)."""
        errs = {}
        for order in (2, 3, 4, 5, 6):
            sem = SemND(uniform_grid((2, 2, 2), (1.0, 1.0, 1.0)), order=order)
            u = self._mode(sem)
            errs[order] = np.abs(csr.A(sem) @ u - 3 * np.pi**2 * u).max()
        # monotone decay, and at least ~4 orders of magnitude over the sweep
        assert all(errs[o + 1] < errs[o] for o in (2, 3, 4, 5)), errs
        assert errs[6] < 1e-4 * errs[2], errs

    def test_standing_wave_time_accuracy(self):
        sem = SemND(uniform_grid((2, 2, 2), (1.0, 1.0, 1.0)), order=5)
        om = np.sqrt(3.0) * np.pi
        u0 = self._mode(sem)
        T, n = 0.5, 800
        dt = T / n
        v0 = staggered_initial_velocity(csr.A(sem), dt, u0, np.zeros_like(u0))
        u, _ = NewmarkSolver(csr.A(sem), dt).run(u0, v0, n)
        assert np.max(np.abs(u - u0 * np.cos(om * T))) < 5e-4

    def test_energy_conserved(self):
        sem = SemND(_contrast_mesh((2, 2, 2)), order=3)
        u = self._mode(sem)
        dt = 5e-3
        v = staggered_initial_velocity(csr.A(sem), dt, u, np.zeros_like(u))
        solver = NewmarkSolver(csr.A(sem), dt)
        energies = []
        for _ in range(100):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(sem.M, csr.K(sem), u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6
