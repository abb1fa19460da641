"""Tests for 1D/2D SEM assembly: mass lumping, stiffness, eigenstructure."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mesh import Mesh, refined_interval, uniform_grid, uniform_interval
from repro.sem import SemND
from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix
from repro.util.errors import SolverError
from oracles import csr


class TestSem1D:
    def test_dof_count(self):
        sem = SemND(uniform_interval(5), order=4)
        assert sem.n_dof == 21

    def test_mass_is_positive_and_sums_to_length(self):
        sem = SemND(uniform_interval(4, length=3.0), order=4)
        assert np.all(sem.M > 0)
        assert sem.M.sum() == pytest.approx(3.0)

    def test_stiffness_symmetric_positive_semidefinite(self):
        sem = SemND(uniform_interval(4), order=3)
        K = csr.K(sem).toarray()
        assert np.allclose(K, K.T, atol=1e-12)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-10

    def test_stiffness_kills_constants(self):
        """Neumann stiffness annihilates the constant mode."""
        sem = SemND(uniform_interval(6), order=4)
        assert np.max(np.abs(csr.K(sem) @ np.ones(sem.n_dof))) < 1e-10

    def test_eigenvalue_of_first_mode(self):
        """Smallest nonzero eigenvalue of A ~ (pi*c/L)^2 for Neumann."""
        L, c = 2.0, 3.0
        sem = SemND(uniform_interval(16, length=L, c=c), order=4)
        vals = np.sort(np.real(np.linalg.eigvals(csr.A(sem).toarray())))
        target = (np.pi * c / L) ** 2
        nonzero = vals[vals > 1e-8]
        assert nonzero[0] == pytest.approx(target, rel=1e-6)

    def test_dirichlet_zeroes_boundary_rows(self):
        sem = SemND(uniform_interval(4), order=3, dirichlet=True)
        A = csr.A(sem).toarray()
        ends = sem.boundary_dofs()
        assert sorted(sem.node_coords[:, 0][ends]) == [0.0, 1.0]
        assert np.allclose(A[ends], 0) and np.allclose(A[:, ends], 0)

    def test_refined_mesh_coordinates_monotone(self):
        """Each element's DOFs list its GLL nodes left to right."""
        mesh = refined_interval(4, 4, refinement=4)
        sem = SemND(mesh, order=4)
        xi, _ = gll_points_weights(4)
        for e, (a, b) in enumerate(mesh.elements):
            left, right = mesh.coords[a, 0], mesh.coords[b, 0]
            nodes = left + (xi + 1.0) * 0.5 * (right - left)
            assert np.array_equal(sem.node_coords[:, 0][sem.element_dofs[e]], nodes)
            assert np.all(np.diff(nodes) > 0)

    def test_element_system_reassembles_global(self):
        mesh = refined_interval(3, 3, refinement=2)
        sem = SemND(mesh, order=3)
        K = np.zeros((sem.n_dof, sem.n_dof))
        M = np.zeros(sem.n_dof)
        Kes, Mes = csr.element_system_batch(sem)
        for d, Ke, Me in zip(sem.element_dofs, Kes, Mes):
            K[np.ix_(d, d)] += Ke
            M[d] += Me
        assert np.allclose(K, csr.K(sem).toarray(), atol=1e-12)
        assert np.allclose(M, sem.M, atol=1e-12)

    def test_nearest_dof(self):
        sem = SemND(uniform_interval(10), order=2)
        assert sem.node_coords[:, 0][sem.nearest_dof(0.5)] == pytest.approx(0.5)


def _chain_assembly(mesh, order, dirichlet):
    """The retired 1D assembler, kept as an oracle: elements sorted into
    a chain by left endpoint, DOFs numbered left to right along it
    (element ``e`` at chain position ``p`` owns ``p*order .. p*order +
    order``), one dense element matrix per loop iteration scattered as
    COO, endpoints clamped by a row/column mask.  Returns ``(x,
    element_dofs, M, K, A)``."""
    xi, w = gll_points_weights(order)
    D = lagrange_derivative_matrix(order)
    n_elem, n_loc = mesh.n_elements, order + 1
    left = mesh.coords[mesh.elements[:, 0], 0]
    right = mesh.coords[mesh.elements[:, 1], 0]
    n_dof = n_elem * order + 1
    element_dofs = np.empty((n_elem, n_loc), dtype=np.int64)
    x = np.empty(n_dof)
    for pos, e in enumerate(np.argsort(left, kind="stable")):
        element_dofs[e] = pos * order + np.arange(n_loc)
        x[element_dofs[e]] = left[e] + (xi + 1.0) * 0.5 * (right[e] - left[e])
    M = np.zeros(n_dof)
    rows, cols, vals = [], [], []
    for e in range(n_elem):
        jac = 0.5 * (right[e] - left[e])
        Ke = (float(mesh.c[e]) ** 2 / jac) * (D.T * w) @ D
        dofs = element_dofs[e]
        M[dofs] += jac * w
        rows.append(np.repeat(dofs, n_loc))
        cols.append(np.tile(dofs, n_loc))
        vals.append(Ke.ravel())
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dof, n_dof),
    ).tocsr()
    K.sum_duplicates()
    A = sp.diags(1.0 / M) @ K
    if dirichlet:
        mask = np.ones(n_dof)
        mask[0] = mask[-1] = 0.0
        A = sp.diags(mask) @ A @ sp.diags(mask)
    return x, element_dofs, M, K, sp.csr_matrix(A)


def _shuffled(mesh, seed):
    """``mesh`` with its elements in random order and its corner nodes
    relabelled at random."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(mesh.n_elements)
    relabel = rng.permutation(mesh.n_nodes)
    coords = np.empty_like(mesh.coords)
    coords[relabel] = mesh.coords
    return Mesh(1, coords, relabel[mesh.elements[order]], mesh.h[order], mesh.c[order])


class TestSem1DMatchesChainOracle:
    """``SemND`` on a 1D mesh: its entity numbering (mesh corners, then
    element interiors) is a permutation of the chain numbering, and
    under it ``node_coords``, ``M``, ``K`` and ``A`` are the chain
    loop's.  ``K`` and ``A`` are bitwise where the element scale
    ``s = 2 c^2 / h`` is a power of two; elsewhere they may differ in
    the last bit, because the loop formed ``(s D^T W) D`` and ``SemND``
    forms ``s (D^T W D)``."""

    DYADIC = {
        "uniform": lambda: uniform_interval(8),
        "refined": lambda: refined_interval(12, 8, refinement=4),
        "refined-left": lambda: refined_interval(5, 6, refinement=2, fine_position="left"),
        "shuffled": lambda: _shuffled(refined_interval(6, 4, refinement=4), 3),
    }
    GENERAL = {
        "uniform": lambda: uniform_interval(7, length=2.3, c=1.7),
        "shuffled": lambda: _shuffled(refined_interval(5, 9, 3, coarse_h=0.37, c=2.9), 5),
    }

    @staticmethod
    def _pair(mesh, order, dirichlet):
        sem = SemND(mesh, order=order, dirichlet=dirichlet)
        x, ed, M, K, A = _chain_assembly(mesh, order, dirichlet)
        chain = np.empty(sem.n_dof, dtype=np.int64)
        chain[sem.element_dofs.ravel()] = ed.ravel()  # new DOF -> chain DOF
        assert sem.n_dof == len(M)
        assert np.array_equal(np.sort(chain), np.arange(sem.n_dof))
        return sem, chain, (x, M, K, A)

    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(DYADIC))
    def test_bitwise_under_the_permutation(self, kind, order, dirichlet):
        sem, p, (x, M, K, A) = self._pair(self.DYADIC[kind](), order, dirichlet)
        assert np.array_equal(sem.node_coords[:, 0], x[p])
        assert np.array_equal(sem.M, M[p])
        for got, ref in ((csr.K(sem), K), (csr.A(sem), A)):
            ref = ref[p][:, p]
            assert (got != ref).nnz == 0
            assert np.array_equal(got.toarray(), ref.toarray())

    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(GENERAL))
    def test_equal_to_round_off_on_any_mesh(self, kind, order, dirichlet):
        sem, p, (x, M, K, A) = self._pair(self.GENERAL[kind](), order, dirichlet)
        assert np.array_equal(sem.node_coords[:, 0], x[p])
        assert np.array_equal(sem.M, M[p])
        for got, ref in ((csr.K(sem), K), (csr.A(sem), A)):
            ref = ref[p][:, p]
            assert np.abs(got - ref).max() <= 4e-16 * np.abs(ref).max()


class TestSem2D:
    def test_dof_count_structured(self):
        sem = SemND(uniform_grid((3, 2)), order=4)
        assert sem.n_dof == (4 * 3 + 1) * (4 * 2 + 1)

    def test_mass_sums_to_area(self):
        sem = SemND(uniform_grid((3, 3), (2.0, 2.0)), order=3)
        assert sem.M.sum() == pytest.approx(4.0)

    def test_stiffness_symmetric(self):
        sem = SemND(uniform_grid((2, 3)), order=2)
        K = csr.K(sem).toarray()
        assert np.allclose(K, K.T, atol=1e-12)

    def test_stiffness_kills_constants(self):
        sem = SemND(uniform_grid((3, 3)), order=3)
        assert np.max(np.abs(csr.K(sem) @ np.ones(sem.n_dof))) < 1e-9

    def test_first_neumann_eigenvalue(self):
        """lambda_1 = (pi c / L)^2 for the (1,0) mode on a square."""
        L = 1.0
        sem = SemND(uniform_grid((4, 4), (L, L)), order=4)
        vals = np.sort(np.real(np.linalg.eigvals(csr.A(sem).toarray())))
        nonzero = vals[vals > 1e-7]
        assert nonzero[0] == pytest.approx(np.pi**2, rel=1e-4)

    def test_shared_edge_nodes_consistent(self):
        """Neighbouring elements must agree on shared GLL node ids/coords."""
        sem = SemND(uniform_grid((2, 1)), order=4)
        d0 = set(sem.element_dofs[0])
        d1 = set(sem.element_dofs[1])
        shared = d0 & d1
        assert len(shared) == 5  # a full edge of order-4 nodes
        for d in shared:
            assert sem.node_coords[d, 0] == pytest.approx(1.0)

    def test_global_coordinates_unique(self):
        sem = SemND(uniform_grid((3, 3)), order=3)
        xy = np.round(sem.node_coords, 12)
        assert len(np.unique(xy, axis=0)) == sem.n_dof

    def test_element_system_reassembles_global(self):
        mesh = uniform_grid((2, 2))
        mesh.c = mesh.c.copy()
        mesh.c[0] = 2.0
        sem = SemND(mesh, order=3)
        K = np.zeros((sem.n_dof, sem.n_dof))
        M = np.zeros(sem.n_dof)
        Kes, Mes = csr.element_system_batch(sem)
        for d, Ke, Me in zip(sem.element_dofs, Kes, Mes):
            K[np.ix_(d, d)] += Ke
            M[d] += Me
        assert np.allclose(K, csr.K(sem).toarray(), atol=1e-10)
        assert np.allclose(M, sem.M, atol=1e-12)

    def test_boundary_dofs_on_boundary(self):
        sem = SemND(uniform_grid((3, 3), (1.0, 1.0)), order=3)
        b = sem.boundary_dofs()
        xy = sem.node_coords[b]
        on_edge = (
            np.isclose(xy[:, 0], 0) | np.isclose(xy[:, 0], 1)
            | np.isclose(xy[:, 1], 0) | np.isclose(xy[:, 1], 1)
        )
        assert np.all(on_edge)

    def test_mass_lumping_diagonal_invertible(self):
        sem = SemND(uniform_grid((2, 2)), order=4)
        assert np.all(sem.M > 0)
        assert sp.issparse(csr.A(sem))


class TestNearestDof:
    """``SemND.nearest_dof`` measures only the nodes of elements whose
    box can hold the nearest one; it must pick the DOF the brute-force
    row-sum ``argmin`` picks — on exact ties (points equidistant from
    several nodes) the lowest id."""

    @staticmethod
    def _sem(kind):
        from repro.sem import ElasticSemND
        from repro.sem.materials import IsotropicElastic

        mesh = uniform_grid((4, 4) if kind.endswith("2d") else (3, 3, 3))
        if kind.startswith("acoustic"):
            return SemND(mesh, order=3)
        return ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.3))

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
        from repro.sem import ElasticSemND
        from repro.sem.materials import IsotropicElastic

        mesh = {
            "trench": lambda: trench_mesh(8, 6, 3, band_radii=(0.8, 1.8)),
            "crust": lambda: crust_mesh(5, 4, 4),
            "graded2d": lambda: self._graded(2),
            "graded3d": lambda: self._graded(3),
        }[family]()
        elastic = IsotropicElastic(lam=2.0, mu=1.0, rho=1.3)
        sems = [
            SemND(mesh, order=order),
            ElasticSemND(mesh, order=order, material=elastic),
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
        from repro.sem import ElasticSemND
        from repro.sem.materials import IsotropicElastic

        mesh = uniform_grid((3, 3))
        elastic = ElasticSemND(mesh, order=2, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.0))
        with pytest.raises(SolverError, match="finite"):
            SemND(mesh, order=2).nearest_dof(1.0, bad)
        with pytest.raises(SolverError, match="finite"):
            elastic.nearest_dof(bad, 1.0, comp=1)
        with pytest.raises(SolverError, match="finite"):
            SemND(uniform_interval(3), order=2).nearest_dof(bad)
