"""The fused 3D elastic kernel (``el_apply3``, stress form) equals the
assembled CSR at 1e-12 relative.

``el_block3`` regroups the element stiffness by divergence axis: nine
gradients, a pointwise stress from the 15 per-element coefficients, nine
weighted divergences.  The assembled ``A`` (``oracles.csr``) is built from
the dense isotropic elastic element matrices, block by block, so it
shares none of that arithmetic.  Meshes are graded boxes: every axis
has its own growing spacing, so each element carries its own
``(hx, hy, hz)`` and every geometry factor of a pair differs from its
mirror; ``lam`` and ``mu`` are drawn per element.  Order 4 runs the
literal-``n1`` instance, orders 2 and 7 the runtime one; each full, on
a level's input mask, and as one rank's ``stiffness_share``.
"""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import ElasticSemND, IsotropicElastic, fused
from repro.sem.matfree import inverse_mass, stiffness_share
from oracles.scale import as_scaled
from oracles import csr

pytestmark = pytest.mark.skipif(not fused.available(), reason="no C compiler: fused tier unavailable")

#: Elements per axis, per order: fewer at order 7 keeps the CSR small.
SHAPES = {2: (4, 3, 3), 4: (3, 2, 2), 7: (2, 2, 1)}


def graded_sem(order: int) -> ElasticSemND:
    shape = SHAPES[order]
    mesh = uniform_grid(shape)
    for a, growth in enumerate((1.3, 1.7, 0.6)):
        n = shape[a]
        ticks = np.concatenate([[0.0], np.cumsum((0.4 + 0.3 * a) * growth ** np.arange(n))])
        mesh.coords[:, a] = ticks[mesh.coords[:, a].astype(int)]
    rng = np.random.default_rng(order)
    ne = mesh.n_elements
    material = IsotropicElastic(
        lam=rng.uniform(0.5, 4.0, ne), mu=rng.uniform(0.3, 2.5, ne), rho=rng.uniform(0.8, 1.3, ne)
    )
    sem = ElasticSemND(mesh, order=order, material=material)
    h = sem.h_axes
    for a in range(3):  # graded: every axis has as many sizes as elements along it
        assert len(np.unique(h[:, a])) == shape[a]
    return sem


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.fixture(scope="module", params=[4, 2, 7])
def sem(request):
    return graded_sem(request.param)


def test_full_apply(sem):
    op = sem.operator("matfree", use_fused=True)
    assert isinstance(op._plan, fused.Elastic3DPlan) and op._plan.n1 == sem.order + 1
    u = np.random.default_rng(1).standard_normal(sem.n_dof)
    assert rel_err(op @ u, csr.A(sem) @ u) < 1e-12


def test_level_mask(sem):
    """A level's product: the elements touching the masked columns,
    their input masked (``A[:, cols] u[cols]``)."""
    rng = np.random.default_rng(2)
    mask = rng.random(sem.n_dof) < 0.3
    full = sem.operator("matfree", use_fused=True)
    op = full.masked_subset(mask)
    assert op._plan._gmask is not None
    u = rng.standard_normal(sem.n_dof)
    assert rel_err(as_scaled(full, op @ u), csr.A(sem) @ (u * mask)) < 1e-12


def test_rank_share(sem):
    """One rank's share on its local numbering equals the partial CSR
    of the oracle's rank layout."""
    ne = sem.mesh.n_elements
    ids = np.arange(0, ne, 2)
    gd = np.unique(sem.element_dofs[ids])
    ld = np.searchsorted(gd, sem.element_dofs[ids])
    minv = inverse_mass(sem)[gd]
    K = stiffness_share(sem, minv, ids, ld, use_fused=True)
    assert isinstance(K._plan, fused.Elastic3DPlan)
    A = csr.mass_scaled(csr.stiffness_csr(sem, ids, ld, len(gd)), minv)
    u = np.random.default_rng(3).standard_normal(len(gd))
    assert rel_err(K @ u, A @ u) < 1e-12
