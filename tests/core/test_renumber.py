"""Renumbered restricted products: every LTS depth applies its level on
its own active set.

``Restriction.renumber(idx, pos)`` is the same product on the
numbering ``idx`` (``pos`` its inverse).  The backends remap their own tables and must stay bitwise
equal to the original product gathered at ``idx``, for every tier,
physics, dimension and both ways a level product is made (a serial
operator's ``restrict``, a rank-local ``masked_subset``).  A caller's
wrapper, which cannot renumber, goes through an adaptor: the solvers
built on such wrappers must step bitwise like the native ones.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core.operator import AssembledOperator, Restriction, _restrict_levels
from repro.mesh import uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld, build_rank_layout
from repro.sem import (
    AnisotropicElasticSemND,
    ElasticSemND,
    IsotropicElastic,
    SemND,
    fused,
    isotropic_stiffness,
)
from repro.util.errors import SolverError
from oracles import csr

TIERS = ["numpy", "fused", "assembled"]
PHYSICS = ["acoustic", "elastic", "anisotropic"]


def _skip_unbuilt(tier: str) -> None:
    if tier == "fused" and not fused.available():
        pytest.skip("no C compiler for the fused tier")


def _assembler(physics: str, dim: int):
    mesh = uniform_grid((4, 3) if dim == 2 else (3, 2, 2))
    order = 3 if dim == 2 else 2
    rng = np.random.default_rng(dim)
    if physics == "acoustic":
        return SemND(mesh, order=order)
    if physics == "elastic":
        mat = IsotropicElastic(lam=1.0 + rng.random(mesh.n_elements), mu=1.0, rho=1.0)
        return ElasticSemND(mesh, order=order, material=mat)
    C = isotropic_stiffness(2.0, 1.0, dim)
    C = C[None] * (1.0 + rng.random(mesh.n_elements))[:, None, None]
    return AnisotropicElasticSemND(mesh, order=order, C=C)


def _level_product(tier, physics, dim, kind, level):
    """A level-``level`` product, its numbering length and the boolean
    masks of its columns and row support."""
    _skip_unbuilt(tier)
    sem = _assembler(physics, dim)
    rng = np.random.default_rng(7)
    element_levels = rng.integers(1, 3, sem.mesh.n_elements)
    dof_level = dof_levels_from_elements(sem.element_dofs, element_levels, sem.n_dof)
    if kind == "restrict":
        op = csr.tier_operator(sem, tier)
        col_mask = dof_level == level
        return op.restrict(np.flatnonzero(col_mask)), sem.n_dof, col_mask, op.reach(col_mask)
    parts = np.arange(sem.mesh.n_elements) % 2
    lay = csr.tier_layout(sem, parts, 2, tier, dof_level)
    col_mask = lay.dof_level_local[0] == level
    (make,), (support,) = _restrict_levels(lay.K_local[0], [col_mask])
    return make(), len(col_mask), col_mask, support


def _inverse(idx: np.ndarray, n: int) -> np.ndarray:
    """Position of each of ``n`` DOFs in the numbering ``idx``, ``-1``
    where it has none: what ``Restriction.renumber`` reads."""
    pos = np.full(n, -1)
    pos[idx] = np.arange(len(idx))
    return pos


def _numbering(active: np.ndarray, rng) -> np.ndarray:
    """The active DOFs and a few outside them, shuffled."""
    outside = np.flatnonzero(~active)
    extra = rng.choice(outside, size=min(3, len(outside)), replace=False)
    return rng.permutation(np.concatenate([np.flatnonzero(active), extra]))


@pytest.mark.parametrize("kind", ["restrict", "masked_subset"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("physics", PHYSICS)
@pytest.mark.parametrize("tier", TIERS)
class TestRenumber:
    def test_renumbered_product_is_the_product_gathered(self, tier, physics, dim, kind):
        rng = np.random.default_rng(dim)
        for level in (2, 3):  # level 3 exists nowhere: a product with no elements
            r, n, cols, support = _level_product(tier, physics, dim, kind, level)
            assert cols.any() == (level == 2)
            idx = _numbering(cols | support, rng)
            rr = r.renumber(idx, _inverse(idx, n))
            assert rr.ops == r.ops
            assert np.array_equal(idx[rr.cols], r.cols)
            for _ in range(2):
                u = rng.standard_normal(n)
                expected = r.apply(u)[idx]
                out = np.full(len(idx), np.nan)  # overwritten whole
                assert rr.apply(u[idx], out=out) is out
                assert np.array_equal(out, expected)
                assert np.array_equal(rr.apply(u[idx]), expected)
                assert np.array_equal(rr.fork().apply(u[idx]), expected)

    def test_numbering_must_hold_columns_and_row_support(self, tier, physics, dim, kind):
        r, n, cols, support = _level_product(tier, physics, dim, kind, 2)
        active = np.flatnonzero(cols | support)
        halo = np.flatnonzero(support & ~cols)
        assert len(halo)
        for idx, what in [(active[active != np.flatnonzero(cols)[0]], "a column"),
                          (active[active != halo[0]], "a row-support DOF")]:
            with pytest.raises(SolverError, match=f"misses {what}"):
                r.renumber(idx, _inverse(idx, n))
        # A tail of a longer numbering: the DOFs before ``off`` are missed.
        order = np.concatenate([np.flatnonzero(~(cols | support)), active])
        off = n - len(active)
        r.renumber(order[off:], _inverse(order, n), off)
        with pytest.raises(SolverError, match="misses"):
            r.renumber(order[off + 1:], _inverse(order, n), off + 1)


# ----------------------------------------------------------------------
# Foreign products: a caller's wrappers go through the adaptor
# ----------------------------------------------------------------------
class WrappedOperator:
    """An operator proxy whose ``restrict`` hands back a plain
    :class:`Restriction` around the real one's apply (no fork, no
    renumbering) and counts the applies it forwards."""

    def __init__(self, op):
        self._op = op
        self.applies = 0

    shape = property(lambda self: self._op.shape)
    nnz = property(lambda self: self._op.nnz)

    def __getattr__(self, name):
        return getattr(self._op, name)

    def apply(self, u, out=None):
        return self._op.apply(u, out=out)

    def reach(self, col_mask):
        return self._op.reach(col_mask)

    def restrict(self, cols) -> Restriction:
        inner = self._op.restrict(cols)

        def _apply(u, out=None):
            self.applies += 1
            return inner.apply(u, out=out)

        return Restriction(inner.cols, inner.ops, _apply)


class WrappedStiffness:
    """A rank-local stiffness proxy that forwards attribute lookups (so
    the wrapped object's own ``fork``/``renumber`` are one lookup away)
    and counts applies, shared by its subsets."""

    def __init__(self, K, applies=None):
        self._K = K
        self.applies = applies if applies is not None else [0]

    shape = property(lambda self: self._K.shape)
    nnz = property(lambda self: self._K.nnz)

    def __getattr__(self, name):
        return getattr(self._K, name)

    def apply(self, u, out=None):
        self.applies[0] += 1
        return self._K.apply(u, out=out)

    def masked_subset(self, col_mask):
        return WrappedStiffness(self._K.masked_subset(col_mask), self.applies)


def _trench_like():
    """A 2D system with three LTS levels (a slow band, two fast spots)."""
    mesh = uniform_grid((8, 8))
    mesh.c = mesh.c.copy()
    mesh.c[27] = 4.0
    mesh.c[36] = 2.0
    sem = SemND(mesh, order=4)
    a = assign_levels(mesh, c_cfl=0.4, order=4)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    assert len(np.unique(dof_level)) >= 3
    rng = np.random.default_rng(3)
    return sem, a.dt, dof_level, rng.standard_normal(sem.n_dof), rng.standard_normal(sem.n_dof)


def test_adaptor_needs_every_column():
    sem, _, dof_level, _, _ = _trench_like()
    r = WrappedOperator(csr.operator(sem)).restrict(np.flatnonzero(dof_level == 2))
    with pytest.raises(SolverError, match="misses a column"):
        r.renumber(r.cols[1:], _inverse(r.cols[1:], sem.n_dof))


def _applies(solver, cycles: int) -> int:
    """Level applies ``cycles`` cycles of ``solver`` make, over every
    numbering, by the plan's closed form: a proxy must see each one."""
    return cycles * sum(
        sum(nb.ops_per_cycle().applications_per_level.values())
        for nb in solver.plan.numberings
    )


@pytest.mark.parametrize("tier", TIERS)
def test_wrapped_operator_steps_bitwise_like_the_native_one(tier):
    _skip_unbuilt(tier)
    sem, dt, dof_level, u0, v0 = _trench_like()
    op = csr.tier_operator(sem, tier)
    wrapped = WrappedOperator(op)
    native = LTSNewmarkSolver(op, dof_level, dt).run(u0, v0, 8)
    solver = LTSNewmarkSolver(wrapped, dof_level, dt)
    proxied = solver.run(u0, v0, 8)
    assert wrapped.applies == _applies(solver, 8) > 0
    for a, b in zip(native, proxied):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tier", TIERS)
def test_wrapped_rank_stiffness_steps_bitwise_like_the_native_one(tier):
    """Every apply of every rank's every level goes through the proxy: a
    ``masked_subset`` one on the matrix-free tiers, an operator one
    (``restrict``) around each rank's CSR."""
    _skip_unbuilt(tier)
    sem, dt, dof_level, u0, v0 = _trench_like()
    parts = np.arange(sem.mesh.n_elements) % 4
    lay = csr.tier_layout(sem, parts, 4, tier, dof_level)
    shared = [0]
    wrapped = [
        WrappedOperator(AssembledOperator(K)) if tier == "assembled"
        else WrappedStiffness(K, shared)
        for K in lay.K_local
    ]
    native = DistributedLTSSolver(lay, dt, world=MailboxWorld(4)).run(u0, v0, 8)
    solver = DistributedLTSSolver(replace(lay, K_local=wrapped), dt, world=MailboxWorld(4))
    proxied = solver.run(u0, v0, 8)
    seen = sum(w.applies for w in wrapped) if tier == "assembled" else shared[0]
    assert seen == _applies(solver, 8) > 0
    for a, b in zip(native, proxied):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Compact state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ranks", [1, 4])
def test_fine_depths_hold_active_set_length_buffers(ranks):
    sem, dt, dof_level, _, _ = _trench_like()
    if ranks == 1:
        solver = LTSNewmarkSolver(sem.operator("matfree", use_fused=False), dof_level, dt)
    else:
        lay = build_rank_layout(
            sem, np.arange(sem.mesh.n_elements) % ranks, ranks,
            dof_level=dof_level, backend="matfree", use_fused=False,
        )
        solver = DistributedLTSSolver(lay, dt)
    for st in solver._states:
        assert len(st.depths) >= 2
        for d in st.depths:
            assert d.n < st.n
            for buf in (d.u, d.z, d.r, d.F):
                assert buf.shape == (d.n,)
