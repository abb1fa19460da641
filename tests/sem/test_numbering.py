"""The entity numbering equals its oracle, field by field, dtype included.

``number_dofs`` deduplicates edges and faces on packed integer keys and
writes the element table position-major; the oracle
(``tests/oracles/assembler.py``) sorts each corner tuple, numbers the
distinct rows with ``unique_rows`` and writes column by column.  Meshes
are graded box grids whose node labels (and element order) are randomly
permuted, so corner ids carry no grid order; dims 1-3, orders 1-6.
The boundary DOFs equal the oracle's ``np.unique`` of the boundary
entities' ids, dtype included.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.assembler import boundary_dofs as boundary_oracle
from oracles.assembler import number_dofs as oracle, permuted_grid

from repro.mesh import uniform_grid
from repro.sem.tensor import TensorDofLayout, number_dofs
from repro.util.errors import SolverError


@st.composite
def permuted_grids(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4 if dim < 3 else 3), min_size=dim, max_size=dim)))
    return permuted_grid(shape, draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 6))


def assert_layouts_equal(got: TensorDofLayout, expected: TensorDofLayout) -> None:
    for name in TensorDofLayout.__dataclass_fields__:
        g, e = getattr(got, name), getattr(expected, name)
        if e is None:
            assert g is None, name
            continue
        assert type(g) is type(e), name
        g, e = np.asarray(g), np.asarray(e)
        assert g.dtype == e.dtype and g.shape == e.shape, name
        assert np.array_equal(g, e), name
    b, eb = got.boundary_dofs(), boundary_oracle(expected)
    assert b.dtype == eb.dtype and np.array_equal(b, eb)


@given(permuted_grids())
@settings(max_examples=80, deadline=None)
def test_numbering_equals_oracle(case):
    mesh, order = case
    got = number_dofs(mesh, order)
    assert_layouts_equal(got, oracle(mesh, order))
    # A valid numbering: every id in 0..n_dof-1 is used.
    assert np.array_equal(np.unique(got.element_dofs), np.arange(got.n_dof))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 4)])
def test_every_order_and_dimension(shape, order):
    mesh = permuted_grid(shape, seed=order)
    assert_layouts_equal(number_dofs(mesh, order), oracle(mesh, order))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 4)])
def test_boundary_mark_equals_the_unique_oracle(shape, order):
    """``boundary_dofs`` marks one boolean over the DOFs; the oracle
    concatenates every boundary entity's ids and takes ``np.unique``."""
    layout = number_dofs(permuted_grid(shape, seed=10 + order), order)
    got, expected = layout.boundary_dofs(), boundary_oracle(layout)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)


def test_packed_key_bound_is_refused():
    """``n_corner**2 < 2**63`` is required, not worked around: a mesh
    with more nodes is refused before any key is formed."""
    grid = uniform_grid((2, 2))
    big = SimpleNamespace(dim=2, n_nodes=3_037_000_500, n_elements=grid.n_elements,
                          elements=grid.elements)  # sqrt(2**63) = 3_037_000_499.97
    with pytest.raises(SolverError, match="64-bit"):
        number_dofs(big, 2)
