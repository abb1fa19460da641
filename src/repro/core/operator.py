"""Stiffness-operator abstraction: the matrix-free operator and a caller's matrix.

The paper's performance (Sec. II-C) rests on SPECFEM-style *unassembled*
stiffness application: the action ``A u = M^{-1} K u`` is computed
element-by-element with tensor-product contractions, never as a global
sparse matrix, and LTS applies it only on the elements of the active
level.  This module defines the small protocol both implementations
share, so every solver in :mod:`repro.core` and the distributed runtime
is backend-agnostic:

* :class:`StiffnessOperator` — the protocol.  An operator looks enough
  like a scipy sparse matrix (``shape``, ``nnz``, ``@``) that legacy
  call sites keep working, and adds the two capabilities LTS needs:
  :meth:`~AssembledOperator.restrict` (the level-restricted product
  ``A[:, cols] u[cols]``, a :class:`Restriction` that can be
  relabelled onto an LTS plan's numbering) and
  :meth:`~AssembledOperator.reach` (the row support of a column set —
  the "gray halo" of Fig. 2).  A restriction to every column is the
  operator's own product, with no copy and no input mask: one-level
  LTS, which is explicit Newmark, costs what a plain apply costs.
* :class:`AssembledOperator` — wraps a caller's own sparse or dense
  ``A`` (a test's CSR reference, a small model matrix).
* :class:`repro.sem.matfree.MatrixFreeStiffness` — the unassembled
  ``M^{-1} K``, serial or a rank's share; it lives in
  :mod:`repro.sem.matfree` (it needs element geometry the core layer
  does not know about), and applies the element kernel each of the
  three physics assemblers — acoustic, isotropic and anisotropic
  elastic, each generic over dimension — builds for itself
  (``assembler.kernel(ids)``).

Every product — a full apply, a level restriction, a renumbered one —
refuses (:class:`SolverError`) a ``u`` or ``out`` of another length
before it reads or writes either (:func:`check_lengths`).

``nnz`` is defined as *operations per full apply* — literal stored
nonzeros for a wrapped matrix, tensor-contraction flops for the
matrix-free operator — so :class:`repro.core.lts_newmark.OperationCounter`
ratios (Eq. (9) serial efficiency) stay meaningful per backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

from repro.core.workspace import csr_matvec_into, workspace_bytes
from repro.util.errors import SolverError
from repro.util.validation import require


def check_lengths(n: int, u: np.ndarray, out: np.ndarray | None) -> None:
    """Refuse, with :class:`SolverError` naming both lengths, a ``u`` or
    an ``out`` that is not a vector of a product's length ``n``: the
    kernels read and write through raw indices and would run off the
    end of a short one."""
    if u.shape != (n,) or (out is not None and out.shape != (n,)):
        bad = ("u", u) if u.shape != (n,) else ("out", out)
        raise SolverError(
            f"a product of length {n} was given {bad[0]} of shape {bad[1].shape}"
        )


def positions_in(pos: np.ndarray, dofs: np.ndarray, what: str, off: int = 0) -> np.ndarray:
    """``pos[dofs] - off``, in ``pos``' dtype: where ``dofs`` sit in the
    tail from ``off`` of the numbering ``pos`` inverts, refused
    (:class:`SolverError`) if one is not."""
    out = pos.take(dofs)
    out -= off
    require(bool((out >= 0).all()), f"numbering misses a {what}", SolverError)
    return out


@dataclass
class Restriction:
    """The level-restricted action ``u -> A[:, cols] @ u[cols]``.

    Produced by :meth:`StiffnessOperator.restrict`; ``ops`` is the cost
    of one :meth:`apply` in the backend's operation unit (see module
    docs), which an LTS plan weights by the level's applies per cycle
    (:meth:`~repro.core.lts_newmark.NumberingPlan.ops_per_cycle`).
    ``workspace_bytes`` is the scratch behind :meth:`apply`: a number,
    or a callable when it is allocated lazily.
    """

    cols: np.ndarray
    ops: int
    _apply: Callable[..., np.ndarray]
    workspace_bytes: int | Callable[[], int] = 0
    _fork: Callable[[], "Restriction"] | None = None
    _renumber: Callable[[np.ndarray, np.ndarray, int], "Restriction"] | None = None

    def fork(self) -> "Restriction":
        """The same product with scratch of its own — index arrays and
        coefficients shared — so two solvers bound from one plan can
        apply it concurrently.  A restriction that was given no way to
        fork (a caller's wrapper) is returned as is."""
        return self if self._fork is None else self._fork()

    def renumber(self, idx: np.ndarray, pos: np.ndarray, off: int = 0) -> "Restriction":
        """The same product on the numbering ``idx``: position ``j`` is
        DOF ``idx[j]``, input and output have length ``len(idx)``, and
        the output is overwritten whole, as by every :meth:`apply`.
        ``cols`` become positions in ``idx``, the tail from ``off`` of the
        numbering ``pos`` inverts (DOF ``i`` at ``pos[i] - off``, a
        negative entry where it has none): an LTS plan relabels every
        product of a numbering through its one inverse.

        ``idx`` must hold every column and every row the product can
        write, else :class:`SolverError`.  A backend remaps its own
        tables and runs the same arithmetic in the same order, so the
        result is bitwise ``apply(u)[idx]``.  A restriction made by a
        caller's wrapper (a timing proxy, say) has no tables to remap:
        it gets an adaptor that scatters into a private buffer of the
        original length, ``len(pos)``, applies the wrapped product and
        gathers ``idx`` — bitwise the same, at the cost of that index
        traffic.  Its row support is the wrapper's secret, so the
        adaptor checks the columns only."""
        if self._renumber is None:
            return _adapted(self, idx, pos, off)
        return self._renumber(idx, pos, off)

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A[:, cols] @ u[cols]`` (reads only ``u[cols]``), into a
        fresh vector or, allocating nothing, into ``out``.  Either way
        every entry is written — zero outside the row support (the rows
        ``cols`` reach) — so no caller clears an output before an apply
        or after one.  A fine LTS level costs its active set because its
        product is renumbered onto that set (:meth:`renumber`)."""
        return self._apply(u, out=out)


def _adapted(inner: Restriction, idx: np.ndarray, pos: np.ndarray, off: int) -> Restriction:
    """``inner`` on the numbering ``idx`` through private full-length
    buffers (see :meth:`Restriction.renumber`)."""
    cols, n, idx = inner.cols, len(pos), np.asarray(idx, dtype=np.intp)
    colpos = positions_in(pos, cols, "column", off).astype(np.intp)
    # The product reads only its columns: the rest of ``w`` stays 0
    # (finite, as the matrix-free gather needs).
    c, w, z = np.empty(len(cols)), np.zeros(n), np.empty(n)
    apply = inner.apply

    def _apply(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        check_lengths(len(idx), u, out)
        u.take(colpos, out=c, mode="clip")
        w[cols] = c
        apply(w, out=z)
        return z.take(idx, out=out, mode="clip")

    return Restriction(
        cols=colpos, ops=inner.ops, _apply=_apply,
        workspace_bytes=lambda: c.nbytes + w.nbytes + z.nbytes + workspace_bytes(inner),
        _fork=lambda: _adapted(inner.fork(), idx, pos, off),
    )


@runtime_checkable
class StiffnessOperator(Protocol):
    """What every stiffness backend provides.

    Implementations: :class:`AssembledOperator` (CSR) and
    :class:`repro.sem.matfree.MatrixFreeStiffness` (sum-factorization).
    """

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def nnz(self) -> int:
        """Operations per full apply (see module docstring)."""
        ...

    def __matmul__(self, u: np.ndarray) -> np.ndarray: ...

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ u``; with ``out=`` the result lands in the caller's
        buffer and the apply stays allocation-free."""
        ...

    def restrict(self, cols: np.ndarray) -> Restriction: ...

    def reach(self, col_mask: np.ndarray) -> np.ndarray:
        """Boolean row mask of DOFs structurally touched by ``cols``."""
        ...


class AssembledOperator:
    """Assembled sparse backend: wraps a precomputed ``A = M^{-1} K``.

    Keeps the CSR (the caller's arrays, when ``A`` is one) for
    row-oriented products.  A CSC twin serves the column slicing that a
    proper level restriction and reachability need; it is built on first
    such use, so a plan whose one level is every column never pays for it.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A)
        n = self.A.shape[0]
        require(self.A.shape == (n, n), "A must be square", SolverError)

    @cached_property
    def _A_csc(self):
        return self.A.tocsc()

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    @property
    def nnz(self) -> int:
        return self.A.nnz

    @property
    def tier(self) -> str:
        """Kernel-tier label for provenance (matches the matfree
        operators' ``tier`` vocabulary)."""
        return "assembled"

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.A @ u

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        check_lengths(self.A.shape[0], u, out)
        if out is None:
            return self.A @ u
        return csr_matvec_into(self.A, u, out)

    def workspace_bytes(self) -> int:
        """Pooled scratch held by the operator itself (restriction
        gather buffers are owned by their :class:`Restriction`)."""
        return 0

    def restrict(self, cols: np.ndarray) -> Restriction:
        """The product ``A[:, cols] @ u[cols]``.  Every column, in order,
        is ``A`` itself: applied as it stands (its stored entry order),
        with no column slice, copy or gather."""
        cols = np.asarray(cols, dtype=np.int64)
        if np.array_equal(cols, np.arange(self.shape[0])):
            return _column_block(cols, self.A, gather=False)
        return _column_block(cols, self._A_csc[:, cols].tocsr())

    def reach(self, col_mask: np.ndarray) -> np.ndarray:
        """Rows with a stored entry in any masked column.

        One vectorized column slice — ``unique`` over the slice's row
        indices — instead of the seed's per-column Python loop.
        """
        cols = np.nonzero(np.asarray(col_mask, dtype=bool))[0]
        out = np.zeros(self.shape[0], dtype=bool)
        out[np.unique(self._A_csc[:, cols].indices)] = True
        return out


def _column_block(cols: np.ndarray, block, gather: bool = True) -> Restriction:
    """The product of the CSR column block ``block = A[:, cols]`` — or,
    without ``gather``, of ``A`` itself (``cols`` every column, in
    order), which reads ``u`` as it is.  It renumbers by row-slicing the
    block: rows keep their entries in stored order, so every row sum is
    the original's."""
    cols = np.asarray(cols, dtype=np.intp)  # a take with other indices converts per call
    ucols = np.empty(len(cols)) if gather else None  # the one mutable part
    n = block.shape[0]  # input and output share the rows' numbering

    def _apply(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        check_lengths(n, u, out)
        if ucols is not None:
            u = u.take(cols, out=ucols, mode="clip")
        if out is None:
            return block @ u
        return csr_matvec_into(block, u, out)

    def _renumber(idx: np.ndarray, pos: np.ndarray, off: int) -> Restriction:
        colpos = positions_in(pos, cols, "column", off)
        positions_in(pos, np.flatnonzero(np.diff(block.indptr)), "row-support DOF", off)
        return _column_block(colpos, block[idx])

    return Restriction(
        cols=cols, ops=block.nnz, _apply=_apply,
        workspace_bytes=0 if ucols is None else ucols.nbytes,
        _fork=lambda: _column_block(cols, block, gather), _renumber=_renumber,
    )


def as_operator(A) -> StiffnessOperator:
    """Coerce ``A`` to the operator protocol.

    Objects already implementing the protocol pass through; sparse
    matrices and dense arrays are wrapped in :class:`AssembledOperator`.
    """
    if hasattr(A, "restrict") and hasattr(A, "reach") and hasattr(A, "apply"):
        return A
    return AssembledOperator(A)


def _restriction(cols: np.ndarray, sub) -> Restriction:
    """The masked stiffness ``sub`` (a ``masked_subset``) as the
    restricted product over ``cols``, able to fork and renumber when its
    *class* is: a caller's proxy that forwards attribute lookups has
    neither of its own, so it is used as is and renumbered through the
    adaptor of :meth:`Restriction.renumber` (the proxy keeps seeing
    every apply)."""
    fork = getattr(type(sub), "fork", None)
    renumber = getattr(type(sub), "renumber", None)
    return Restriction(
        cols, sub.nnz, sub.apply,
        workspace_bytes=getattr(sub, "workspace_bytes", 0),
        _fork=fork and (lambda: _restriction(cols, fork(sub))),
        _renumber=renumber and (lambda idx, pos, off: _restriction(
            positions_in(pos, cols, "column", off), renumber(sub, idx, pos, off),
        )),
    )


def _restrict_levels(K, col_masks: list[np.ndarray], first_support: int = 0):
    """One numbering's restricted products ``u -> K[:, cols_k] u[cols_k]``,
    one per level mask in the order given (coarsest first), as builders
    called once each — ``make[k]()``, or ``make[k](idx, pos, off)`` on the
    numbering ``idx`` (see :meth:`Restriction.renumber`) — and, per level
    from ``first_support`` on, the rows the product can write.

    What ``K``'s *class* defines picks the protocol (as :func:`_restriction`
    picks ``fork`` and ``renumber``): a matrix-free stiffness finds every
    level's elements (level plus gray halo) in one pass and builds each
    product once, on its numbering (``level_tables``, ``element_subset``);
    a caller's proxy that forwards attribute lookups but intercepts
    ``masked_subset`` gets one call per level, in order; anything else —
    an operator, a CSR block (wrapped) — answers ``restrict`` and ``reach``.
    """
    cols = [np.nonzero(m)[0] for m in col_masks]
    if len(col_masks) > 1 and hasattr(type(K), "level_tables"):
        tables, supports = K.level_tables(col_masks, first_support)

        def build(c, table, idx=None, pos=None, off: int = 0) -> Restriction:
            c = c if idx is None else positions_in(pos, c, "column", off)
            return _restriction(c, K.element_subset(*table, idx, pos, off))

        return [partial(build, c, t) for c, t in zip(cols, tables)], supports
    if hasattr(type(K), "masked_subset"):
        subs = [K.masked_subset(m) for m in col_masks]
        restr = [_restriction(c, s) for c, s in zip(cols, subs)]
        supports = [s.row_support() for s in subs[first_support:]]
    else:
        op = as_operator(K)
        restr = [op.restrict(c) for c in cols]
        supports = [op.reach(m) for m in col_masks[first_support:]]
    return [lambda *numbering, r=r: r.renumber(*numbering) if numbering else r
            for r in restr], supports
