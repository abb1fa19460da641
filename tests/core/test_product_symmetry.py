"""Every product an LTS plan steps is symmetric as a bilinear form.

``K`` is symmetric, so each of its shares is: a level product
``K[:, cols] u[cols]`` read on vectors supported on its columns (and off
the Dirichlet rows, whose columns every product masks) is ``K`` there.
The fused tier hands out raw shares ``K_p``; the NumPy tier's carry the
row scale, so its form is ``M A_p``.  Here every product of a plan —
the operator's full one, each level's, relabelled onto its numbering's
tail, serially and rank-local on two ranks — is held to

    x . K_p y == y . K_p x      (1e-13 relative)

for acoustic, isotropic elastic and anisotropic elastic physics in 2D
and 3D.  A transposed block, a wrong mask or a scale applied where the
plan does not expect one breaks it.
"""

import numpy as np
import pytest

from repro.core.lts_newmark import LTSPlan, dof_levels_from_elements
from repro.mesh import uniform_grid
from repro.runtime import build_rank_layout
from repro.sem import AnisotropicElasticSemND, ElasticSemND, IsotropicElastic, SemND, fused
from repro.sem.materials import hexagonal_stiffness, rotate_voigt, rotation_about_y

TIERS = ["numpy", pytest.param("fused", marks=pytest.mark.skipif(
    not fused.available(), reason="no C compiler: fused tier unavailable"))]


def _sem(physics: str, dim: int, dirichlet: bool):
    mesh = uniform_grid((4, 3) if dim == 2 else (3, 2, 2))
    order = 3 if dim == 2 else 2
    if physics == "acoustic":
        return SemND(mesh, order=order, dirichlet=dirichlet)
    if physics == "elastic":
        return ElasticSemND(mesh, order=order, dirichlet=dirichlet,
                            material=IsotropicElastic(lam=2.3, mu=1.1))
    C = ([[4.0, 1.5, 0.3], [1.5, 3.0, 0.2], [0.3, 0.2, 1.2]] if dim == 2 else
         rotate_voigt(hexagonal_stiffness(4.0, 3.0, 1.2, 1.0, 1.3), rotation_about_y(0.4)))
    return AnisotropicElasticSemND(mesh, order=order, C=C, dirichlet=dirichlet)


def _plans(sem, tier: str):
    """A three-level serial plan and the same levels on two ranks."""
    ne = sem.mesh.n_elements
    levels = np.ones(ne, dtype=np.int64)
    levels[ne // 3: ne // 2 + 1] = 2
    levels[ne // 2] = 3
    dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
    use_fused = tier == "fused"
    op = sem.operator("matfree", use_fused=use_fused)
    layout = build_rank_layout(sem, np.arange(ne) % 2, 2, dof_level=dof_level,
                               backend="matfree", use_fused=use_fused)
    return op, [LTSPlan(op, dof_level), LTSPlan(layout)]


def _products(plan):
    """Per numbering: its global ids in its order, its row scale, and
    every product with the offset of the tail it acts on."""
    for gd, nb in zip(plan.replicas.gdofs, plan.numberings):
        yield gd, nb.Minv, [(0, nb.restr0), *((nb.n - d.n, d.restr) for d in nb.depths)]


def _assert_symmetric(apply, cols, free, mass, rng, what):
    """``x . K_p y == y . K_p x`` for random ``x``, ``y`` on the free
    columns; ``mass`` turns a scaled product back into ``K_p``."""
    x, y = np.zeros((2, len(free)))
    on = np.zeros(len(free), dtype=bool)
    on[cols] = True
    on &= free
    x[on], y[on] = rng.standard_normal((2, int(on.sum())))
    kx, ky = apply(x), apply(y)
    if mass is not None:
        kx, ky = mass * kx, mass * ky
    scale = max(np.linalg.norm(x) * np.linalg.norm(ky), np.linalg.norm(y) * np.linalg.norm(kx))
    assert scale > 0, what
    assert abs(x @ ky - y @ kx) <= 1e-13 * scale, what


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("dirichlet", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("physics", ["acoustic", "elastic", "anisotropic"])
def test_every_product_is_symmetric(physics, dim, dirichlet, tier):
    sem = _sem(physics, dim, dirichlet)
    free_all = np.ones(sem.n_dof, dtype=bool)
    if dirichlet:
        free_all = sem.dirichlet_mask != 0
    op, plans = _plans(sem, tier)
    rng = np.random.default_rng(7)
    # The operator's own full product: raw on the fused tier.
    full = op.restrict(np.arange(sem.n_dof))
    assert (op.row_scale is None) == (tier == "numpy")
    _assert_symmetric(full.apply, full.cols, free_all,
                      sem.M if op.row_scale is None else None, rng, "full")
    for p, plan in enumerate(plans):
        assert len(plan.active_levels) == 3
        for r, (gd, minv, products) in enumerate(_products(plan)):
            assert (minv is None) == (tier == "numpy")
            for k, (off, restr) in enumerate(products):
                tail = gd[off:]
                mass = sem.M[tail] if minv is None else None
                _assert_symmetric(restr.apply, restr.cols, free_all[tail], mass, rng,
                                  ("serial" if p == 0 else f"rank {r}", f"level {k + 1}"))
