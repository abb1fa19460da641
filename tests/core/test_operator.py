"""Tests for the StiffnessOperator protocol and a caller's assembled matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.operator import AssembledOperator, Restriction, StiffnessOperator, as_operator
from oracles import csr


@pytest.fixture()
def small_A():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((12, 12))
    dense[np.abs(dense) < 1.0] = 0.0  # make it sparse-ish
    return sp.csr_matrix(dense)


class TestAssembledOperator:
    def test_matmul_equals_matrix(self, small_A):
        op = AssembledOperator(small_A)
        u = np.arange(12, dtype=float)
        assert np.array_equal(op @ u, small_A @ u)
        assert np.array_equal(op.apply(u), small_A @ u)

    def test_shape_and_nnz(self, small_A):
        op = AssembledOperator(small_A)
        assert op.shape == small_A.shape
        assert op.nnz == small_A.nnz

    def test_rejects_non_square(self):
        from repro.util.errors import SolverError

        with pytest.raises(SolverError):
            AssembledOperator(sp.csr_matrix(np.ones((3, 4))))

    def test_restrict_matches_column_block(self, small_A):
        op = AssembledOperator(small_A)
        cols = np.array([1, 4, 7, 8])
        restr = op.restrict(cols)
        u = np.random.default_rng(0).standard_normal(12)
        expected = small_A.tocsc()[:, cols] @ u[cols]
        assert np.allclose(restr.apply(u), expected, atol=1e-15)
        assert isinstance(restr, Restriction)
        assert restr.ops == small_A.tocsc()[:, cols].nnz

    def test_reach_matches_bruteforce(self, small_A):
        op = AssembledOperator(small_A)
        mask = np.zeros(12, dtype=bool)
        mask[[2, 9]] = True
        # brute force: rows with a stored entry in any masked column
        csc = small_A.tocsc()
        expected = np.zeros(12, dtype=bool)
        for j in np.nonzero(mask)[0]:
            expected[csc.indices[csc.indptr[j] : csc.indptr[j + 1]]] = True
        assert np.array_equal(op.reach(mask), expected)

    def test_reach_empty_mask(self, small_A):
        op = AssembledOperator(small_A)
        assert not op.reach(np.zeros(12, dtype=bool)).any()


class TestAsOperator:
    def test_wraps_sparse_and_dense(self, small_A):
        assert isinstance(as_operator(small_A), AssembledOperator)
        assert isinstance(as_operator(small_A.toarray()), AssembledOperator)

    def test_passes_through_protocol_objects(self, small_A):
        op = AssembledOperator(small_A)
        assert as_operator(op) is op

    def test_matfree_satisfies_protocol(self):
        from repro.mesh import uniform_grid
        from repro.sem import SemND

        op = SemND(uniform_grid((2, 2)), order=2).operator("matfree")
        assert isinstance(op, StiffnessOperator)
        assert as_operator(op) is op


# ----------------------------------------------------------------------
# Every product refuses a vector of another length before touching it
# ----------------------------------------------------------------------
PRODUCTS = ["full", "whole", "restricted", "renumbered", "adapted"]


def _product(tier: str, kind: str):
    """A ``kind`` of product of a 6x6 order-4 grid (625 DOFs) on ``tier``
    and the length its vectors must have."""
    from repro.mesh import uniform_grid
    from repro.sem import SemND, fused

    if tier == "fused" and not fused.available():
        pytest.skip("no C compiler for the fused tier")
    sem = SemND(uniform_grid((6, 6)), order=4)
    op = (AssembledOperator(csr.A(sem)) if tier == "assembled"
          else sem.operator("matfree", use_fused=tier == "fused"))
    n = sem.n_dof
    if kind == "full":
        return op, n
    if kind == "whole":
        return op.restrict(np.arange(n)), n
    col_mask = np.arange(n) % 7 == 0
    restr = op.restrict(np.flatnonzero(col_mask))
    if kind == "restricted":
        return restr, n
    if kind == "adapted":  # a caller's wrapper: no tables to remap
        restr = Restriction(restr.cols, restr.ops, restr.apply)
    idx = np.flatnonzero(col_mask | op.reach(col_mask))
    pos = np.full(n, -1)
    pos[idx] = np.arange(len(idx))
    return restr.renumber(idx, pos), len(idx)


@pytest.mark.parametrize("kind", PRODUCTS)
@pytest.mark.parametrize("tier", ["assembled", "numpy", "fused"])
def test_products_refuse_vectors_of_another_length(tier, kind):
    """A short ``u`` would be read past its end and a short ``out``
    written past it (the C kernels, ``take(mode="clip")``, scipy's
    matvec): every product refuses both, naming both lengths, before it
    reads or writes either."""
    from repro.util.errors import SolverError

    P, n = _product(tier, kind)
    u = np.random.default_rng(0).standard_normal(n)
    for bad in (n // 2, n + 1):
        with pytest.raises(SolverError, match=rf"length {n} was given u of shape \({bad},\)"):
            P.apply(u[:bad] if bad < n else np.append(u, 1.0))
        out = np.full(bad, 7.25)
        with pytest.raises(SolverError, match=rf"length {n} was given out of shape \({bad},\)"):
            P.apply(u, out=out)
        assert (out == 7.25).all()
    out = np.full(n, np.nan)
    assert P.apply(u, out=out) is out and np.array_equal(out, P.apply(u))
