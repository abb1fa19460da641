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
a level's input mask, and as one rank's ``stiffness_share``.  The 15
coefficients the plan takes from the stress-form tensor are pinned byte
for byte to the ``lam``/``mu`` products with the geometry scales, the
values every ``el_apply3`` result so far was computed with.
"""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import ElasticSemND, IsotropicElastic, fused
from repro.sem.matfree import inverse_mass, stiffness_share
from repro.sem.tensor import elastic_pair_scales
from oracles.scale import as_scaled
from oracles import csr

pytestmark = pytest.mark.skipif(not fused.available(), reason="no C compiler: fused tier unavailable")

#: Elements per axis, per order: fewer at order 7 keeps the CSR small.
SHAPES = {2: (4, 3, 3), 4: (3, 2, 2), 7: (2, 2, 1)}


def graded_sem(order: int, fluid: int | None = None) -> ElasticSemND:
    """A graded box of per-element materials; element ``fluid`` (if any)
    gets ``mu = 0``."""
    shape = SHAPES[order]
    mesh = uniform_grid(shape)
    for a, growth in enumerate((1.3, 1.7, 0.6)):
        n = shape[a]
        ticks = np.concatenate([[0.0], np.cumsum((0.4 + 0.3 * a) * growth ** np.arange(n))])
        mesh.coords[:, a] = ticks[mesh.coords[:, a].astype(int)]
    rng = np.random.default_rng(order)
    ne = mesh.n_elements
    mu = rng.uniform(0.3, 2.5, ne)
    if fluid is not None:
        mu[fluid] = 0.0
    material = IsotropicElastic(lam=rng.uniform(0.5, 4.0, ne), mu=mu, rho=rng.uniform(0.8, 1.3, ne))
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


@pytest.mark.parametrize("order", sorted(SHAPES))
def test_packed_coefficients_are_the_block_forms(order):
    """``Elastic3DPlan`` packs per element the 9 axis scales
    ``(lam + 2 mu) s_c`` (own axis) and ``mu s_d``, then ``lam g_cd`` and
    ``mu g_cd`` for the pairs (0,1), (0,2), (1,2): the formula of the
    block-form kernel, compared as bytes (a ``mu = 0`` element included).
    Padding rows are zero."""
    sem = graded_sem(order, fluid=1)
    lam, mu = sem.material.lam, sem.material.mu
    assert mu[1] == 0.0
    s, g = csr.elastic_axis_scales(sem.h_axes), elastic_pair_scales(sem.h_axes)
    ne = sem.mesh.n_elements
    ds = np.empty((ne, 3, 3))
    for c in range(3):
        ds[:, c, :] = mu[:, None] * s
        ds[:, c, c] = (lam + 2.0 * mu) * s[:, c]
    pairs = [(0, 1), (0, 2), (1, 2)]
    lam_g = np.stack([lam * g[:, c, d] for c, d in pairs], axis=1)
    mu_g = np.stack([mu * g[:, c, d] for c, d in pairs], axis=1)
    ref = np.concatenate([ds.reshape(ne, 9), lam_g, mu_g], axis=1)
    plan = sem.operator("matfree", use_fused=True)._plan
    assert isinstance(plan, fused.Elastic3DPlan)
    assert plan._coef.shape == (plan._ne, 15) and plan._coef.dtype == np.float64
    assert plan._coef[:ne].tobytes() == ref.tobytes()
    assert not plan._coef[ne:].any()
