"""The assembler's setup arrays equal their eager formulas, bitwise.

``SemND.node_coords`` is built on first access and ``nearest_dof``
computes only the nodes of the few elements a point can be nearest to,
each from its last writer.  The oracle (``tests/oracles/assembler.py``)
writes the whole table at setup as every element computes it, the last
write winning, and locates a point by the brute-force ``argmin`` over
it.  Meshes are graded box grids with permuted node labels and element
order, so the last writer of a shared node is no particular neighbour,
and decimal ticks, so writers disagree on some nodes in the last bit;
with ``slack`` their corners also sit off their boxes by up to about
half the tolerance setup admits, so writers disagree by far more.
The per-axis element sizes the coordinates are computed from are held
to the oracle's one-gather formula, refusals included, and the vector
physics' interleaved layout and mass to the repeat-and-tile formulas.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.assembler import element_axis_sizes as oracle_sizes
from oracles.assembler import nearest_dof as oracle_nearest, node_coords as oracle_coords
from oracles.assembler import permuted_grid

import repro
from repro.mesh import uniform_grid
from repro.mesh.mesh import Mesh
from repro.sem import ElasticSemND, SemND
from repro.sem.gll import gll_points_weights
from repro.sem.materials import IsotropicElastic
from repro.sem.tensor import element_axis_sizes
from repro.util.errors import SolverError
from oracles import csr


def _assemblers(mesh, order):
    sems = [SemND(mesh, order=order)]
    if mesh.dim > 1:
        elastic = IsotropicElastic(lam=2.0, mu=1.0, rho=1.3)
        sems.append(ElasticSemND(mesh, order=order, material=elastic))
    return sems


def _points(sem, coords, rng):
    """Nodes, nodes jittered (some into a coarser neighbour, whose own
    nodes are farther), mesh corners, element and face centres, midpoints
    of neighbouring nodes (exact ties), random points inside and outside."""
    mesh, dim = sem.mesh, sem.dim
    P = mesh.coords[mesh.elements]  # (n_elem, 2**dim, dim)
    e = rng.integers(0, mesh.n_elements, 5)
    bits = (np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    corner = sem.scalar_dofs[:, 0]  # each element's corner 0, and its next node per axis
    step = sem.scalar_dofs[:, (sem.order + 1) ** np.arange(dim)]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    outside = rng.uniform(lo, hi, size=(6, dim))
    axis = rng.integers(0, dim, 6)
    outside[np.arange(6), axis] += (hi - lo + 1.0)[axis] * rng.choice([-1.0, 1.0], 6)
    return np.concatenate([
        coords[rng.integers(0, len(coords), 5)],
        coords[rng.integers(0, len(coords), 12)] + rng.uniform(-0.3, 0.3, size=(12, dim)),
        mesh.coords[rng.integers(0, mesh.n_nodes, 4)],
        P[e].mean(axis=1),
        *[P[e][:, bits[:, a] == 1].mean(axis=1) for a in range(dim)],
        *[0.5 * (coords[corner] + coords[step[:, a]]) for a in range(dim)],
        rng.uniform(lo, hi, size=(6, dim)),
        outside,
        [lo - 1.0, hi + 1.0],
    ])


@st.composite
def graded_cases(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4 if dim < 3 else 3), min_size=dim, max_size=dim)))
    return permuted_grid(shape, draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 5))


@given(graded_cases())
@settings(max_examples=40, deadline=None)
def test_node_coords_and_interpolate_equal_the_eager_table(case):
    mesh, order = case
    for sem in _assemblers(mesh, order):
        expected = oracle_coords(sem)
        got = sem.node_coords
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert sem.node_coords is got  # built once
        f = lambda *x: np.sin(x[0]) + sum((a + 1) * xa for a, xa in enumerate(x))
        cols = [expected[:, a] for a in range(mesh.dim)]
        if sem.n_comp == 1:
            assert np.array_equal(sem.interpolate(f), f(*cols))
        else:
            fs = [lambda *x, c=c: f(*x) * (c + 1) for c in range(sem.n_comp)]
            want = np.stack([g(*cols) for g in fs], axis=1).ravel()
            assert np.array_equal(sem.interpolate(*fs), want)


def _near_ties(sem, coords, rng, n):
    """Up to ``n`` points between neighbouring nodes on an axis along which
    the elements holding one of them compute it apart: their midpoint
    moved along that axis by fractions of that spread, where the value a
    node gets decides which of the two is nearer."""
    dim, N = sem.dim, sem.order
    idx = np.indices((N + 1,) * dim).reshape(dim, -1)
    gx = (gll_points_weights(N)[0] + 1.0) * 0.5
    p0 = sem.mesh.coords[sem.mesh.elements[:, 0]]
    dofs = sem.scalar_dofs
    points = []
    for a in range(dim):
        vals = (p0[:, a : a + 1] + gx * sem.h_axes[:, a : a + 1])[:, idx[a]]
        lo, hi = np.full(sem.n_scalar, np.inf), np.full(sem.n_scalar, -np.inf)
        np.minimum.at(lo, dofs.ravel(), vals.ravel())
        np.maximum.at(hi, dofs.ravel(), vals.ravel())
        on = np.flatnonzero(idx[a] < N)  # each node and its +axis neighbour
        A, B = dofs[:, on].ravel(), dofs[:, on + (N + 1) ** (dim - 1 - a)].ravel()
        spread = hi - lo
        gap = np.maximum(spread[A], spread[B])
        A, B, gap = A[gap > 0], B[gap > 0], gap[gap > 0]
        for f in (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0):
            p = 0.5 * (coords[A] + coords[B])
            p[:, a] += f * gap
            points.append(p)
    points = np.unique(np.concatenate(points), axis=0)
    return points[rng.permutation(len(points))[:n]]


def _assert_nearest_dof_is_the_brute_force(mesh, order, seed):
    """Acoustic and elastic, at nodes, ties, near ties and points outside
    the mesh: the DOF the brute-force ``argmin`` over the eager table
    picks (lowest id on ties), and the table is never built for it."""
    sems = _assemblers(mesh, order)
    coords = oracle_coords(sems[0])
    rng = np.random.default_rng(seed)
    points = np.concatenate([_points(sems[0], coords, rng), _near_ties(sems[0], coords, rng, 400)])
    for p in points:
        best = oracle_nearest(coords, p)
        assert sems[0].nearest_dof(*p) == best
        for comp in range(mesh.dim):
            assert sems[1].nearest_dof(*p, comp=comp) == mesh.dim * best + comp
    for sem in sems:
        assert "node_coords" not in vars(sem)


@pytest.mark.parametrize("order", [1, 3, 4])
@pytest.mark.parametrize("shape", [(6, 5), (4, 3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_nearest_dof_equals_brute_force_over_the_eager_table(shape, order, seed):
    """2D and 3D, elements disagreeing on shared nodes in the last bit."""
    _assert_nearest_dof_is_the_brute_force(permuted_grid(shape, seed), order, seed)


@pytest.mark.parametrize("order", [1, 3, 4])
@pytest.mark.parametrize("shape", [(6, 5), (4, 3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_nearest_dof_equals_brute_force_with_corners_off_their_boxes(shape, order, seed):
    """Corners off their boxes by up to 0.45 of the tolerance setup
    accepts, so elements sharing a node compute it apart by far more than
    the last bit: the pad of the boxes and of the bound must cover that
    (without the pad the near ties pick other nodes)."""
    mesh = permuted_grid(shape, seed, slack=0.45)
    _assert_nearest_dof_is_the_brute_force(mesh, order, seed)


def test_nearest_dof_ties_on_a_permuted_unit_grid():
    """Unit spacing makes element centres and node midpoints exact ties;
    the lowest id wins as in the brute force."""
    grid = uniform_grid((4, 3, 3))
    rng = np.random.default_rng(5)
    perm = rng.permutation(grid.n_nodes)
    coords = np.empty_like(grid.coords)
    coords[perm] = grid.coords
    elements = perm[grid.elements][rng.permutation(grid.n_elements)]
    mesh = Mesh(dim=3, coords=coords, elements=elements, h=grid.h, c=grid.c)
    sem = SemND(mesh, order=3)
    table = oracle_coords(sem)
    n_ties = 0
    for p in _points(sem, table, rng):
        d2 = ((table - p) ** 2).sum(axis=1)
        n_ties += np.count_nonzero(d2 == d2.min()) > 1
        assert sem.nearest_dof(*p) == oracle_nearest(table, p)
    assert n_ties > 0


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 4)])
@pytest.mark.parametrize("shift", [0.0, 1e-9, 1e-3, np.nan, np.inf, -np.inf])
def test_axis_sizes_equal_the_oracle(shape, shift):
    """Sizes bitwise the oracle's where it accepts; refused where it
    refuses: a corner off its box by more than ``np.allclose`` admits,
    a non-finite corner."""
    mesh = permuted_grid(shape, seed=len(shape))
    mesh.coords[mesh.elements[2, -1], -1] += shift
    outcomes = []
    for sizes in (oracle_sizes, element_axis_sizes):
        with np.errstate(invalid="ignore"):  # 0 * inf in the expected corners
            try:
                outcomes.append(sizes(mesh))
            except SolverError:
                outcomes.append(None)
    if shift in (0.0, 1e-9):
        assert outcomes[1] is not None
    assert (outcomes[0] is None) == (outcomes[1] is None)
    if outcomes[0] is not None:
        assert outcomes[1].dtype == outcomes[0].dtype
        assert np.array_equal(outcomes[1], outcomes[0])


def test_setup_never_builds_node_coords():
    """A bare assembler and a façade run (source, receivers, solver)
    leave the table unbuilt."""
    for sem in _assemblers(uniform_grid((3, 2, 2)), 4):
        assert "node_coords" not in vars(sem)
    config = {
        "name": "on-demand",
        "mesh": {"family": "uniform_grid", "params": {"shape": [8, 8]}},
        "material": {"model": "acoustic", "c": 1.0,
                     "regions": [{"box": [[3, 5], [3, 5]], "values": {"c": 2.0}}]},
        "order": 3,
        "time": {"n_cycles": 2, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": [2.3, 2.6], "f0": 0.5},
        "receivers": {"positions": [[6.1, 6.2], [1.5, 6.5]]},
        "partition": {"n_ranks": 2, "strategy": "SCOTCH-P"},
    }
    sim = repro.Simulation(config)
    sim.run()
    assert sim.assembler.n_dof > 0
    assert "node_coords" not in vars(sim.assembler)


def test_racing_first_access_gets_identical_arrays():
    mesh = permuted_grid((5, 4, 3), seed=9)
    expected = oracle_coords(SemND(mesh, order=4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sem = SemND(mesh, order=4)
            start, got = threading.Barrier(4), [None] * 4

            def read(i):
                start.wait(timeout=30)
                got[i] = sem.node_coords

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for g in got:
                assert np.array_equal(g, expected)
            assert np.array_equal(sem.node_coords, expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", [(4, 3), (3, 2, 4)])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_vector_layout_and_mass_equal_the_interleaved_formulas(shape, order):
    """``element_dofs`` is ``n_comp * node + comp`` per local node and
    component; ``M`` sums every element's repeated mass on the
    interleaved numbering (the same summands, in the same order, as the
    per-node sum each component repeats)."""
    mesh = permuted_grid(shape, seed=order)
    rho = np.random.default_rng(order).uniform(0.5, 2.0, mesh.n_elements)
    sem = ElasticSemND(mesh, order=order, material=IsotropicElastic(lam=2.0, mu=1.0, rho=rho))
    nc, n_loc = sem.n_comp, sem.scalar_dofs.shape[1]
    ed = nc * np.repeat(sem.scalar_dofs, nc, axis=1) + np.tile(np.arange(nc), n_loc)[None, :]
    assert sem.element_dofs.dtype == ed.dtype and np.array_equal(sem.element_dofs, ed)
    M = np.bincount(ed.ravel(), weights=csr.element_mass_batch(sem).ravel(), minlength=sem.n_dof)
    assert sem.M.dtype == M.dtype and np.array_equal(sem.M, M)
