"""Tests for 1D/2D SEM assembly: mass lumping, stiffness, eigenstructure."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mesh import refined_interval, uniform_grid, uniform_interval
from repro.sem import Sem1D, Sem2D
from repro.util.errors import SolverError


class TestSem1D:
    def test_dof_count(self):
        sem = Sem1D(uniform_interval(5), order=4)
        assert sem.n_dof == 21

    def test_mass_is_positive_and_sums_to_length(self):
        sem = Sem1D(uniform_interval(4, length=3.0), order=4)
        assert np.all(sem.M > 0)
        assert sem.M.sum() == pytest.approx(3.0)

    def test_stiffness_symmetric_positive_semidefinite(self):
        sem = Sem1D(uniform_interval(4), order=3)
        K = sem.K.toarray()
        assert np.allclose(K, K.T, atol=1e-12)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-10

    def test_stiffness_kills_constants(self):
        """Neumann stiffness annihilates the constant mode."""
        sem = Sem1D(uniform_interval(6), order=4)
        assert np.max(np.abs(sem.K @ np.ones(sem.n_dof))) < 1e-10

    def test_eigenvalue_of_first_mode(self):
        """Smallest nonzero eigenvalue of A ~ (pi*c/L)^2 for Neumann."""
        L, c = 2.0, 3.0
        sem = Sem1D(uniform_interval(16, length=L, c=c), order=4)
        vals = np.sort(np.real(np.linalg.eigvals(sem.A.toarray())))
        target = (np.pi * c / L) ** 2
        nonzero = vals[vals > 1e-8]
        assert nonzero[0] == pytest.approx(target, rel=1e-6)

    def test_dirichlet_zeroes_boundary_rows(self):
        sem = Sem1D(uniform_interval(4), order=3, dirichlet=True)
        A = sem.A.toarray()
        assert np.allclose(A[0], 0) and np.allclose(A[-1], 0)

    def test_refined_mesh_coordinates_monotone(self):
        sem = Sem1D(refined_interval(4, 4, refinement=4), order=4)
        assert np.all(np.diff(sem.x) > 0)

    def test_element_system_reassembles_global(self):
        mesh = refined_interval(3, 3, refinement=2)
        sem = Sem1D(mesh, order=3)
        K = np.zeros((sem.n_dof, sem.n_dof))
        M = np.zeros(sem.n_dof)
        for e in range(mesh.n_elements):
            Ke, Me = sem.element_system(e)
            d = sem.element_dofs[e]
            K[np.ix_(d, d)] += Ke
            M[d] += Me
        assert np.allclose(K, sem.K.toarray(), atol=1e-12)
        assert np.allclose(M, sem.M, atol=1e-12)

    def test_rejects_2d_mesh(self):
        with pytest.raises(SolverError):
            Sem1D(uniform_grid((2, 2)))

    def test_nearest_dof(self):
        sem = Sem1D(uniform_interval(10), order=2)
        assert sem.x[sem.nearest_dof(0.5)] == pytest.approx(0.5)


class TestSem2D:
    def test_dof_count_structured(self):
        sem = Sem2D(uniform_grid((3, 2)), order=4)
        assert sem.n_dof == (4 * 3 + 1) * (4 * 2 + 1)

    def test_mass_sums_to_area(self):
        sem = Sem2D(uniform_grid((3, 3), (2.0, 2.0)), order=3)
        assert sem.M.sum() == pytest.approx(4.0)

    def test_stiffness_symmetric(self):
        sem = Sem2D(uniform_grid((2, 3)), order=2)
        K = sem.K.toarray()
        assert np.allclose(K, K.T, atol=1e-12)

    def test_stiffness_kills_constants(self):
        sem = Sem2D(uniform_grid((3, 3)), order=3)
        assert np.max(np.abs(sem.K @ np.ones(sem.n_dof))) < 1e-9

    def test_first_neumann_eigenvalue(self):
        """lambda_1 = (pi c / L)^2 for the (1,0) mode on a square."""
        L = 1.0
        sem = Sem2D(uniform_grid((4, 4), (L, L)), order=4)
        vals = np.sort(np.real(np.linalg.eigvals(sem.A.toarray())))
        nonzero = vals[vals > 1e-7]
        assert nonzero[0] == pytest.approx(np.pi**2, rel=1e-4)

    def test_shared_edge_nodes_consistent(self):
        """Neighbouring elements must agree on shared GLL node ids/coords."""
        sem = Sem2D(uniform_grid((2, 1)), order=4)
        d0 = set(sem.element_dofs[0])
        d1 = set(sem.element_dofs[1])
        shared = d0 & d1
        assert len(shared) == 5  # a full edge of order-4 nodes
        for d in shared:
            assert sem.xy[d, 0] == pytest.approx(1.0)

    def test_global_coordinates_unique(self):
        sem = Sem2D(uniform_grid((3, 3)), order=3)
        xy = np.round(sem.xy, 12)
        assert len(np.unique(xy, axis=0)) == sem.n_dof

    def test_element_system_reassembles_global(self):
        mesh = uniform_grid((2, 2))
        mesh.c = mesh.c.copy()
        mesh.c[0] = 2.0
        sem = Sem2D(mesh, order=3)
        K = np.zeros((sem.n_dof, sem.n_dof))
        M = np.zeros(sem.n_dof)
        for e in range(mesh.n_elements):
            Ke, Me = sem.element_system(e)
            d = sem.element_dofs[e]
            K[np.ix_(d, d)] += Ke
            M[d] += Me
        assert np.allclose(K, sem.K.toarray(), atol=1e-10)
        assert np.allclose(M, sem.M, atol=1e-12)

    def test_boundary_dofs_on_boundary(self):
        sem = Sem2D(uniform_grid((3, 3), (1.0, 1.0)), order=3)
        b = sem.boundary_dofs()
        xy = sem.xy[b]
        on_edge = (
            np.isclose(xy[:, 0], 0) | np.isclose(xy[:, 0], 1)
            | np.isclose(xy[:, 1], 0) | np.isclose(xy[:, 1], 1)
        )
        assert np.all(on_edge)

    def test_rejects_1d_mesh(self):
        with pytest.raises(SolverError):
            Sem2D(uniform_interval(3))

    def test_mass_lumping_diagonal_invertible(self):
        sem = Sem2D(uniform_grid((2, 2)), order=4)
        assert np.all(sem.M > 0)
        assert sp.issparse(sem.A)


class TestNearestDof:
    """``SemND.nearest_dof`` measures only the nodes of elements whose
    box can hold the nearest one; it must pick the DOF the brute-force
    row-sum ``argmin`` picks — on exact ties (points equidistant from
    several nodes) the lowest id."""

    @staticmethod
    def _sem(kind):
        from repro.sem import ElasticSem2D, ElasticSem3D, Sem3D
        from repro.sem.materials import IsotropicElastic

        mesh = uniform_grid((4, 4) if kind.endswith("2d") else (3, 3, 3))
        if kind.startswith("acoustic"):
            return (Sem2D if kind.endswith("2d") else Sem3D)(mesh, order=3)
        cls = ElasticSem2D if kind.endswith("2d") else ElasticSem3D
        return cls(mesh, order=3, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.3))

    @pytest.mark.parametrize("kind", ["acoustic2d", "acoustic3d", "elastic2d", "elastic3d"])
    def test_same_dof_as_the_row_sum_formula(self, kind):
        sem = self._sem(kind)
        lo, hi = sem.node_coords.min(axis=0), sem.node_coords.max(axis=0)
        rng = np.random.default_rng(7)
        ties = [lo + 0.5, lo + 1.5, hi - 0.5]  # element centres: 2**dim nearest nodes
        points = ties + [lo, hi, 0.5 * (lo + hi)]
        points += list(rng.uniform(lo - 0.3, hi + 0.3, size=(12, sem.dim)))
        n_comp = int(getattr(sem, "n_comp", 1))
        for p in points:
            d2 = ((sem.node_coords - p) ** 2).sum(axis=1)
            if any(p is t for t in ties):
                assert np.count_nonzero(d2 == d2.min()) > 1
            for comp in range(n_comp):
                got = sem.nearest_dof(*p) if n_comp == 1 else sem.nearest_dof(*p, comp=comp)
                assert got == n_comp * int(np.argmin(d2)) + comp

    @staticmethod
    def _graded(dim):
        """A box grid whose spacing grows geometrically along every axis,
        so node coordinates are not short binary fractions."""
        mesh = uniform_grid((5, 4, 3)[:dim])
        for a in range(dim):
            n = int(mesh.coords[:, a].max())
            ticks = np.concatenate([[0.0], np.cumsum(0.37 * 1.3 ** np.arange(n))])
            mesh.coords[:, a] = ticks[mesh.coords[:, a].astype(int)]
        return mesh

    @staticmethod
    def _points(sem, rng):
        """Nodes, element corners, face and element centres, midpoints of
        neighbouring nodes (half-grid ties), random points in and out."""
        mesh, nc, dim = sem.mesh, sem.node_coords, sem.dim
        P = mesh.coords[mesh.elements]  # (n_elem, 2**dim, dim)
        e = rng.integers(0, mesh.n_elements, 6)
        bits = (np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
        dofs = sem.scalar_dofs[e]
        lo, hi = nc.min(axis=0), nc.max(axis=0)
        outside = rng.uniform(lo, hi, size=(8, dim))
        axis = rng.integers(0, dim, 8)
        outside[np.arange(8), axis] += (hi - lo + 1.0)[axis] * rng.choice([-1.0, 1.0], 8)
        return np.concatenate([
            nc[rng.integers(0, len(nc), 6)],
            mesh.coords[rng.integers(0, mesh.n_nodes, 6)],
            *[P[e][:, bits[:, a] == b].mean(axis=1) for a in range(dim) for b in (0, 1)],
            P[e].mean(axis=1),
            0.5 * (nc[dofs[:, 0]] + nc[dofs[:, 1]]),
            0.5 * (nc[dofs[:, 0]] + nc[dofs[:, sem.order + 2]]),
            rng.uniform(lo, hi, size=(8, dim)),
            outside,
            [lo - 1.0, hi + 1.0],
        ])

    @pytest.mark.parametrize("family", ["trench", "crust", "graded2d", "graded3d"])
    @pytest.mark.parametrize("order", [3, 4])
    def test_box_pruned_search_equals_brute_force(self, family, order):
        """The element-box search returns the brute-force row-sum
        ``argmin`` (lowest id on ties) for every component of acoustic
        and elastic physics, at nodes, ties and points outside the mesh."""
        from repro.mesh import crust_mesh, trench_mesh
        from repro.sem import ElasticSem2D, ElasticSem3D, Sem3D
        from repro.sem.materials import IsotropicElastic

        mesh = {
            "trench": lambda: trench_mesh(8, 6, 3, band_radii=(0.8, 1.8)),
            "crust": lambda: crust_mesh(5, 4, 4),
            "graded2d": lambda: self._graded(2),
            "graded3d": lambda: self._graded(3),
        }[family]()
        elastic = IsotropicElastic(lam=2.0, mu=1.0, rho=1.3)
        sems = [
            (Sem2D if mesh.dim == 2 else Sem3D)(mesh, order=order),
            (ElasticSem2D if mesh.dim == 2 else ElasticSem3D)(mesh, order=order, material=elastic),
        ]
        points = self._points(sems[0], np.random.default_rng(order))
        n_ties = 0
        for p in points:
            d2 = ((sems[0].node_coords - p) ** 2).sum(axis=1)
            n_ties += np.count_nonzero(d2 == d2.min()) > 1
            best = int(np.argmin(d2))
            assert sems[0].nearest_dof(*p) == best
            for comp in range(mesh.dim):
                assert sems[1].nearest_dof(*p, comp=comp) == mesh.dim * best + comp
        assert n_ties > 0  # the tie-break is exercised

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_refused(self, bad):
        from repro.sem import ElasticSem2D
        from repro.sem.materials import IsotropicElastic

        mesh = uniform_grid((3, 3))
        elastic = ElasticSem2D(mesh, order=2, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.0))
        with pytest.raises(SolverError, match="finite"):
            Sem2D(mesh, order=2).nearest_dof(1.0, bad)
        with pytest.raises(SolverError, match="finite"):
            elastic.nearest_dof(bad, 1.0, comp=1)
        with pytest.raises(SolverError, match="finite"):
            Sem1D(uniform_interval(3), order=2).nearest_dof(bad)
