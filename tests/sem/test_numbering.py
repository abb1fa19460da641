"""The entity numbering equals its ``np.unique`` formulation, field by field.

``number_dofs`` deduplicates edges and faces with ``unique_rows``; the
oracle is the same numbering with ``np.unique`` along ``axis=0`` in its
place.  Meshes are graded box grids whose node labels (and element
order) are randomly permuted, so corner ids carry no grid order.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh import uniform_grid
from repro.mesh.mesh import Mesh
from repro.sem import tensor
from repro.sem.tensor import TensorDofLayout, number_dofs


def _np_unique_rows(rows):
    return np.unique(rows, axis=0, return_index=True, return_inverse=True)


@st.composite
def permuted_grids(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4 if dim < 3 else 3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = uniform_grid(shape)  # unit spacing: integer corner coordinates
    coords = np.empty_like(grid.coords)
    for a, n in enumerate(shape):  # graded: random spacing per axis
        ticks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, n))])
        coords[:, a] = ticks[grid.coords[:, a].astype(int)]
    perm = rng.permutation(len(coords))  # old label i -> new label perm[i]
    new_coords = np.empty_like(coords)
    new_coords[perm] = coords
    elements = perm[grid.elements][rng.permutation(grid.n_elements)]
    n = len(elements)
    mesh = Mesh(dim=dim, coords=new_coords, elements=elements, h=np.ones(n), c=np.ones(n))
    return mesh, draw(st.integers(1, 5))


@given(permuted_grids())
@settings(max_examples=60, deadline=None)
def test_numbering_equals_np_unique_formulation(case):
    mesh, order = case
    got = number_dofs(mesh, order)
    with mock.patch.object(tensor, "unique_rows", _np_unique_rows):
        expected = number_dofs(mesh, order)
    for name in TensorDofLayout.__dataclass_fields__:
        g, e = getattr(got, name), getattr(expected, name)
        if e is None:
            assert g is None, name
            continue
        g, e = np.asarray(g), np.asarray(e)
        assert g.dtype == e.dtype and g.shape == e.shape, name
        assert np.array_equal(g, e), name
    assert np.array_equal(got.boundary_dofs(), expected.boundary_dofs())
    # A valid numbering: every id in 0..n_dof-1 is used.
    assert np.array_equal(np.unique(got.element_dofs), np.arange(got.n_dof))
