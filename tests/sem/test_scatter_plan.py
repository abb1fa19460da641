"""Determinism of the pooled scatter plan (hot-path PR regression suite).

The NumPy matrix-free kernels scatter through a precomputed
single-entry-column CSC plan (:class:`repro.sem.matfree._ScatterPlan`)
instead of a per-call ``np.bincount``, with the ``M^{-1}`` coefficient
folded into the accumulation.  Three properties keep that substitution
safe:

* **bitwise vs bincount** — the CSC kernel runs exactly bincount's
  accumulation loop, so a plan with unit coefficients is bitwise-equal
  to ``np.bincount``;
* **run-to-run bitwise determinism** — repeated applies, and applies
  through independently constructed operators, produce identical bits
  (no ordering or workspace-content dependence);
* **<= 1e-12 agreement with the assembled CSR** — folding ``M^{-1}``
  into the plan data commutes through the sum only to rounding
  (~1 ulp), so the NumPy tier must stay within 1e-12 of ``csr.A(sem) @ u``
  and ``csr.A(sem)[:, cols] @ u[cols]``, for full and level-restricted
  applies, 2D/3D, all three physics.

The last class pins the ``Restriction.apply(u, out=buf)`` contract the
LTS solver relies on: ``buf`` is overwritten whole, the product on the
restriction's row support and zero off it, sparse support or dense.
"""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import (
    AnisotropicElasticSemND,
    ElasticSemND,
    ElasticSemND,
    IsotropicElastic,
    SemND,
    SemND,
    fused,
    isotropic_stiffness,
)
from repro.sem.matfree import _ScatterPlan
from oracles.scale import as_scaled
from oracles import csr

#: Kernel tiers to pin: the NumPy tier always, the fused C tier when a
#: compiler is present.
TIERS = [False, True] if fused.available() else [False]


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


def _make_sem(physics: str, dim: int):
    grid = (4, 3) if dim == 2 else (3, 2, 2)
    mesh = uniform_grid(grid, tuple(1.0 + 0.2 * a for a in range(dim)))
    mesh.c = mesh.c.copy()
    mesh.c[mesh.n_elements // 2] = 3.0
    order = 4 if dim == 2 else 3
    if physics == "acoustic":
        return SemND(mesh, order=order)
    if physics == "elastic":
        return ElasticSemND(mesh, order=order, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.3))
    rng = np.random.default_rng(7)
    lam = 2.0 + rng.random(mesh.n_elements)
    mu = 1.0 + rng.random(mesh.n_elements)
    return AnisotropicElasticSemND(
        mesh, order=order, C=isotropic_stiffness(lam, mu, dim), rho=1.1
    )


class TestScatterPlanUnit:
    def test_matches_bincount_bitwise(self):
        rng = np.random.default_rng(0)
        n_dof = 200
        ed = rng.integers(0, n_dof, size=(30, 16))
        vals = rng.standard_normal(ed.size)
        plan = _ScatterPlan(ed, np.ones(n_dof))
        out = np.empty(n_dof)
        plan.scatter(vals, out)
        ref = np.bincount(ed.ravel(), weights=vals, minlength=n_dof)
        assert np.array_equal(out, ref)

    def test_folded_coeff_agrees_with_seed_order(self):
        """Folding c into the accumulation (sum of c*v) differs from
        c*(sum of v) only by rounding — well under 1e-12."""
        rng = np.random.default_rng(1)
        n_dof = 150
        ed = rng.integers(0, n_dof, size=(25, 9))
        vals = rng.standard_normal(ed.size)
        coeff = 0.5 + rng.random(n_dof)
        plan = _ScatterPlan(ed, coeff)
        out = np.empty(n_dof)
        plan.scatter(vals, out)
        ref = coeff * np.bincount(ed.ravel(), weights=vals, minlength=n_dof)
        assert _rel_err(out, ref) < 1e-12

    def test_scatter_is_repeatable_bitwise(self):
        rng = np.random.default_rng(2)
        n_dof = 100
        ed = rng.integers(0, n_dof, size=(20, 4))
        vals = rng.standard_normal(ed.size)
        coeff = 0.5 + rng.random(n_dof)
        plan = _ScatterPlan(ed, coeff)
        a, b = np.empty(n_dof), np.full(n_dof, np.nan)
        plan.scatter(vals, a)
        plan.scatter(vals, b)  # must fully overwrite, including zeros
        assert np.array_equal(a, b)


@pytest.mark.parametrize("physics", ["acoustic", "elastic", "anisotropic"])
@pytest.mark.parametrize("dim", [2, 3])
class TestPooledOperatorDeterminism:
    def test_full_apply(self, physics, dim):
        sem = _make_sem(physics, dim)
        rng = np.random.default_rng(dim)
        u = rng.standard_normal(sem.n_dof)
        op = sem.operator("matfree", use_fused=False)
        got1 = np.array(op @ u)
        got2 = np.array(op @ u)  # same operator, warm workspace
        fresh = np.array(sem.operator("matfree", use_fused=False) @ u)
        assert np.array_equal(got1, got2), (physics, dim)
        assert np.array_equal(got1, fresh), (physics, dim)
        assert _rel_err(got1, csr.A(sem) @ u) < 1e-12, (physics, dim)

    def test_restricted_apply(self, physics, dim):
        sem = _make_sem(physics, dim)
        rng = np.random.default_rng(10 + dim)
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=max(1, sem.n_dof // 3), replace=False)
        restr = sem.operator("matfree", use_fused=False).restrict(cols)
        got1 = np.array(restr.apply(u))
        got2 = np.array(restr.apply(u))
        assert np.array_equal(got1, got2), (physics, dim)
        ref = csr.A(sem).tocsc()[:, cols] @ u[cols]
        assert _rel_err(got1, ref) < 1e-12, (physics, dim)


@pytest.mark.parametrize("physics", ["acoustic", "elastic", "anisotropic"])
@pytest.mark.parametrize("dim", [2, 3])
class TestRestrictionOutContract:
    """``restrict(cols).apply(u, out=buf)`` overwrites a sentinel- or
    NaN-filled ``buf`` whole — assembled values on the row support, zero
    off it — for sparse and dense supports alike; repeatable with
    different ``u`` (no accumulation); fused == NumPy to 1e-12."""

    SENTINEL = 7.25

    @staticmethod
    def _cols(sem, sparse: bool) -> np.ndarray:
        if not sparse:
            return np.arange(sem.n_dof)[::2]  # touches every element
        # DOFs of element 0 that no other element shares: the subset is
        # that single element, a small minority of the rows.
        ed = np.asarray(sem.element_dofs)
        shared = np.bincount(ed.ravel(), minlength=sem.n_dof)
        return ed[0][shared[ed[0]] == 1]

    @pytest.mark.parametrize("sparse", [True, False])
    def test_out_contract(self, physics, dim, sparse):
        sem = _make_sem(physics, dim)
        cols = self._cols(sem, sparse)
        A_cols = csr.A(sem).tocsc()[:, cols]
        rng = np.random.default_rng(20 + dim)
        u1, u2 = rng.standard_normal((2, sem.n_dof))
        ref = A_cols @ u2[cols]
        results = []
        for use_fused in TIERS:
            op = sem.operator("matfree", use_fused=use_fused)
            col_mask = np.zeros(sem.n_dof, dtype=bool)
            col_mask[cols] = True
            support = op.reach(col_mask)
            assert (2 * support.sum() < sem.n_dof) == sparse
            restr = op.restrict(cols)
            for fill in (self.SENTINEL, np.nan):
                buf = np.full(sem.n_dof, fill)
                restr.apply(u1, out=buf)
                got = restr.apply(u2, out=buf)  # second call, different u
                assert got is buf
                assert _rel_err(as_scaled(op, buf), ref) < 1e-12, (use_fused, fill)
                assert not buf[~support].any(), (use_fused, fill)
            # out=None: a fresh vector with the same values.
            fresh = restr.apply(u2)
            assert np.array_equal(fresh, buf), use_fused
            results.append(as_scaled(op, fresh))
        if len(results) == 2:
            assert _rel_err(results[1], results[0]) < 1e-12

    def test_masked_subset_apply_is_fully_defined(self, physics, dim):
        """The distributed executor shares one output across levels and
        reads it full-length: ``masked_subset(...).apply(u, out=)`` must
        define every entry, sparse support or not."""
        sem = _make_sem(physics, dim)
        cols = self._cols(sem, sparse=True)
        mask = np.zeros(sem.n_dof, dtype=bool)
        mask[cols] = True
        u = np.random.default_rng(30 + dim).standard_normal(sem.n_dof)
        for use_fused in TIERS:
            sub = sem.operator("matfree", use_fused=use_fused).masked_subset(mask)
            buf = np.full(sem.n_dof, self.SENTINEL)
            sub.apply(u, out=buf)
            assert np.array_equal(buf, sub.apply(u)), use_fused
            assert not buf[~sub.row_support()].any(), use_fused
