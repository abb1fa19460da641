"""Matrix-free tensor-product (sum-factorization) stiffness application.

This is the SPECFEM-style *unassembled* operator the paper's Sec. II-C
implementation is built on: the stiffness action is computed
element-by-element — gather the element's GLL values, contract with the
1D derivative/stiffness kernels, scatter-add back — and never as a
global sparse matrix.  All elements are processed at once as batched
tensor contractions (``tensordot`` → one BLAS GEMM per contraction), so
the Python overhead is O(1) per apply instead of O(n_elem).

Two kernel bodies share the machinery, each generic over dimension:

* acoustic (:class:`AcousticKernelND`) — ``K_e u`` is one 1D GLL
  stiffness contraction per axis, each scaled by a per-element weight
  plane.  In 3D this is the paper's asymptotic win: O(n^4) contraction
  work per element versus the O(n^6) of a dense element matvec;
* elastic in SPECFEM's stress form (:class:`AnisotropicKernelND`) —
  gradient contractions, a per-element Hooke combine with the rank-4
  ``C`` times the pair geometry scales, weighted divergence
  contractions, applied on the interleaved DOF layout.  General
  anisotropy (:class:`repro.sem.anisotropic.AnisotropicElasticSemND`)
  gives it an arbitrary per-element Voigt stiffness; isotropic
  elasticity (:class:`ElasticKernelND`,
  :class:`repro.sem.tensor.ElasticSemND`) the isotropic tensor of its
  per-element Lamé parameters.  The assembled per-axis-pair block form
  the stress form reduces to lives on in the tests' CSR oracle
  (``tests/oracles/csr.py``).

Which kernel applies is decided by the assembler class: each of the
three physics assemblers (:class:`repro.sem.tensor.SemND`,
:class:`repro.sem.tensor.ElasticSemND`,
:class:`repro.sem.anisotropic.AnisotropicElasticSemND`), generic over
dimension, builds its own kernel from its per-element arrays in
``kernel(ids=None)``.

Every kernel has two tiers and no more: the batched NumPy contraction
through preallocated workspaces (``tier == "numpy"``, always serial) and,
where :data:`_FUSED_PLANS` lists the physics and dimension, the fused C
kernels of :mod:`repro.sem.fused` (``"fused"``, or ``"fused+openmp:N"``
when ``threads`` asks for the OpenMP element loop and the build has it).

Layered on top, one class: :class:`MatrixFreeStiffness`, the
unassembled ``M^{-1} K`` of a set of elements on a numbering, rows
scaled by ``1/M`` (Dirichlet rows 0) and columns by the Dirichlet mask.
:func:`stiffness_share` builds it for every caller: over the whole mesh
it is the serial operator (:meth:`repro.sem.tensor.SemND.operator`,
the :class:`repro.core.operator.StiffnessOperator` protocol), over a
rank's elements that rank's share in
:class:`repro.runtime.halo.RankLayout`.  The element-subset level
restriction LTS uses is its :meth:`~MatrixFreeStiffness.masked_subset`:
``restrict(cols)`` touches only the elements adjacent to ``cols`` (the
active level plus its gray halo), never a column slice of a global
matrix; on the fused tier a raw ``K`` share, scaled by an LTS plan.

``nnz`` reports tensor-contraction flops per apply so the op counts of
an LTS plan (:meth:`repro.core.lts_newmark.NumberingPlan.ops_per_cycle`)
and their Eq. (9) ratios stay meaningful — see :mod:`repro.core.operator`.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.operator import (
    Restriction,
    _restriction,
    check_lengths,
    positions_in,
)
from repro.core.workspace import Workspace
from repro.sem import fused
from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix
from repro.util.errors import SolverError
from repro.util.sysinfo import usable_cores
from repro.util.validation import require


def resolve_threads(threads: int | None) -> int:
    """The effective OpenMP thread count of the fused tier for a
    requested ``threads`` setting.

    ``None`` means serial (1), ``0`` auto-detects the CPUs available to
    this process, positive integers are taken literally.  Negative
    values are rejected.
    """
    if threads is None:
        return 1
    threads = int(threads)
    require(threads >= 0, "threads must be >= 0 (0 = auto-detect)", SolverError)
    return threads or usable_cores()


#: Which ``(physics, dim)`` has a fused C tier, as ``(plan class, highest
#: order)``.
_FUSED_PLANS = {
    ("acoustic", 2): (fused.AcousticPlan, fused.MAX_ORDER),
    ("acoustic", 3): (fused.Acoustic3DPlan, fused.MAX_ORDER_3D),
    ("elastic", 2): (fused.AnisotropicPlan, fused.MAX_ORDER),
    ("elastic", 3): (fused.Elastic3DPlan, fused.MAX_ORDER_3D),
    ("anisotropic_elastic", 2): (fused.AnisotropicPlan, fused.MAX_ORDER),
    ("anisotropic_elastic", 3): (fused.Anisotropic3DPlan, fused.MAX_ORDER_3D),
}


def _fused_plan_cls(kernel, n_dof: int, enabled=None):
    """The fused-kernel plan class of ``kernel``, or ``None`` to use the
    NumPy path.

    ``enabled=None`` auto-detects: a physics and dimension without a
    fused tier, an order above the table's, no compiler, or more than
    :data:`repro.sem.fused.MAX_DOF` DOFs runs NumPy; ``False`` forces
    the NumPy path; ``True`` raises if unavailable.
    """
    if enabled is False:
        return None
    if n_dof > fused.MAX_DOF:
        require(enabled is not True,
                f"fused kernels index DOFs as int32: n_dof {n_dof} exceeds "
                f"the limit {fused.MAX_DOF}", SolverError)
        return None
    plan_cls, max_order = _FUSED_PLANS.get((kernel.physics, kernel.dim), (None, -1))
    if kernel.order > max_order or not fused.available():
        require(enabled is not True, "fused kernels unavailable", SolverError)
        return None
    return plan_cls


def _require_01(mask: np.ndarray, what: str) -> np.ndarray:
    """``mask`` as an array, refused with :class:`SolverError` unless it
    holds only 0 and 1 (the fused tier stores masks as ``uint8``)."""
    mask = np.asarray(mask)
    require(
        mask.dtype == bool
        or np.count_nonzero(mask == 0) + np.count_nonzero(mask == 1) == mask.size,
        f"{what} must hold only 0 and 1",
        SolverError,
    )
    return mask


# ----------------------------------------------------------------------
# Pooled contraction helpers
# ----------------------------------------------------------------------
def _kbuf(ws: Workspace, name: str, shape: tuple) -> np.ndarray:
    """Workspace buffer keyed by name *and* shape, so a kernel called
    with an unusual batch size (tests, one-off applies) gets its own
    buffer instead of tripping the pool's fixed-shape guard.  The key
    is a plain ``(name, shape)`` tuple — hashing it is the only
    per-call cost, no string formatting on the hot path."""
    return ws.buf((name, shape), shape)


def _contract_axis(U: np.ndarray, A: np.ndarray, At: np.ndarray, axis: int,
                   dim: int, out: np.ndarray) -> np.ndarray:
    """``out[..., i, ...] = sum_t A[i, t] U[..., t, ...]`` along spatial
    ``axis`` of the batched tensor ``U`` (leading axes are batch), as one
    ``matmul`` with ``out=``.

    Only *trailing* axes are ever merged by the reshapes, so strided
    batch views (a component slice of a gradient stack) stay views —
    nothing is copied and the write lands in the caller's buffer.
    ``At`` is the contiguous transpose of ``A`` (used for the last
    axis, where the contraction runs over columns).

    For the last axis with fully C-contiguous operands, *all* leading
    axes merge and the whole batch collapses into a single large GEMM —
    one BLAS call instead of one small ``matmul`` per element, the
    dominant cost of the batched contraction.  Strided views fall back
    to the batched form (where the reshape would silently copy and the
    write would be lost).
    """
    if axis == dim - 1:
        n1 = A.shape[0]
        if U.flags.c_contiguous and out.flags.c_contiguous:
            np.matmul(U.reshape(-1, n1), At, out=out.reshape(-1, n1))
        else:
            np.matmul(U, At, out=out)
    else:
        nbatch = U.ndim - dim
        shape = U.shape[: nbatch + axis + 1] + (-1,)
        np.matmul(A, U.reshape(shape), out=out.reshape(shape))
    return out


try:  # scipy's private sparse kernels; guarded so the pooled path
    from scipy.sparse import _sparsetools as _sptools  # degrades, not breaks
except ImportError:  # pragma: no cover - scipy internals moved
    _sptools = None


class _ScatterPlan:
    """Precomputed allocation-free scatter: an exact replacement for
    per-apply ``np.bincount``, times a per-dof ``coeff`` (``M^{-1}``).

    Views the assembly scatter as the one-hot matrix whose column ``j``
    holds the single entry ``coeff[dof[j]]`` at row ``dof[j]`` (``dof``
    = ``element_dofs.ravel()``) and applies it with scipy's
    ``csc_matvec`` kernel: the kernel's column-major accumulation loop
    is then *exactly* bincount's loop — one pass over the flat element
    values in appearance order, ``out[dof[j]] += coeff[dof[j]] * v[j]``
    — with no temporary and no per-row scan of the dof space (which is
    what makes it beat a CSR formulation: a fine LTS level touches a
    sliver of the dofs but a row scan would still walk all of them).

    Folding ``coeff`` into the accumulation saves a full-vector pass per
    apply.  The multiply distributes into the sum (``sum(c v_j)`` vs
    ``c sum(v_j)``), so the result is within 1 ulp per accumulation of
    a separate multiply rather than bitwise identical.
    """

    def __init__(self, element_dofs: np.ndarray, coeff: np.ndarray):
        flat = np.ascontiguousarray(
            np.asarray(element_dofs, dtype=np.int64).ravel()
        )
        self.n_dof = len(coeff)
        self._flat = flat
        self._colptr = np.arange(flat.size + 1, dtype=np.int64)
        self._data = np.ascontiguousarray(coeff[flat])

    def scatter(self, values_flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:] = bincount(dofs, weights=coeff[dofs] * values_flat)``,
        pooled."""
        if _sptools is None:  # pragma: no cover - scipy internals moved
            out[:] = np.bincount(self._flat, weights=self._data * values_flat,
                                 minlength=self.n_dof)
            return out
        out[:] = 0.0
        _sptools.csc_matvec(
            self.n_dof, self._flat.size, self._colptr, self._flat,
            self._data, values_flat, out,
        )
        return out

    @property
    def nbytes(self) -> int:
        return int(self._flat.nbytes + self._colptr.nbytes + self._data.nbytes)


# ----------------------------------------------------------------------
# Physics kernels: batched element contraction
# ----------------------------------------------------------------------
class _PooledKernel:
    """What the element kernels share: one contraction scratch pool
    (``_ws``) each — their only mutable part — and ``params``, the
    per-element coefficient arrays named by ``param_names``."""

    param_names: tuple[str, ...] = ()

    @property
    def params(self) -> dict[str, np.ndarray]:
        """The per-element coefficient arrays the kernel was built from."""
        return {name: getattr(self, name) for name in self.param_names}

    def fork(self):
        """This kernel, coefficient arrays shared, with its own pool."""
        twin = copy.copy(self)
        twin._ws = Workspace()
        return twin


class AcousticKernelND(_PooledKernel):
    """Batched acoustic element stiffness action, generic over dimension.

    For axis ``a`` of an axis-aligned box element,

    ``(K_e u)_i = sum_a scale[e, a] * (prod_{b != a} w_{i_b})
                  * sum_j KxX[i_a, j] u_{i with i_a -> j}``

    with the per-axis scales of
    :func:`repro.sem.tensor.acoustic_axis_scales` (``ax = c^2 hy/hx``
    etc. in 2D).  Quadrature weights are folded into per-element scale
    planes so the apply is one GEMM-shaped ``tensordot`` per axis plus
    elementwise combines — O(n^{dim+1}) work per element.
    """

    physics = "acoustic"
    param_names = ("scales",)

    def __init__(self, order: int, scales: np.ndarray):
        self.order = int(order)
        self.n1 = self.order + 1
        scales = np.atleast_2d(np.asarray(scales, dtype=np.float64))
        self.scales = scales
        self.dim = scales.shape[1]
        _, w = gll_points_weights(self.order)
        D = lagrange_derivative_matrix(self.order)
        self.KxX = (D.T * w) @ D
        self._KxT = np.ascontiguousarray(self.KxX.T)
        self._ws = Workspace()
        self._wfull: list[np.ndarray] | None = None  # see _pooled_planes

    @property
    def flops_per_element(self) -> int:
        """Multiply-adds of one element contraction (``dim`` rank-``dim+1``
        GEMMs plus the weighted combines)."""
        n1 = self.n1
        return 2 * self.dim * n1 ** (self.dim + 1) + 3 * self.dim * n1**self.dim

    def subset(self, ids: np.ndarray) -> "AcousticKernelND":
        twin = self.fork()  # the 1D matrices shared, the planes rebuilt
        twin.scales, twin._wfull = self.scales[ids], None
        return twin

    @property
    def workspace_nbytes(self) -> int:
        """Bytes of pooled contraction scratch built so far."""
        total = self._ws.nbytes
        if self._wfull is not None:
            total += sum(p.nbytes for p in self._wfull)
        return total

    def _pooled_planes(self) -> list[np.ndarray]:
        """Weight planes for the contraction, built on its first use (the
        fused tier never reads them): plane ``a`` carries scale[e, a]
        times the tensor weights of every axis but ``a``.  Dense
        contiguous when affordable (a broadcast multiply with a size-1
        inner axis defeats SIMD and runs 2-4x slower; same values, same
        result), left broadcast (size 1 along ``a``) beyond ~32 MB."""
        if self._wfull is None:
            _, w = gll_points_weights(self.order)
            ne = self.scales.shape[0]
            dense = self.dim * ne * self.n1**self.dim <= 4_000_000
            self._wfull = []
            for a in range(self.dim):
                plane = np.ones((1,) * self.dim)
                for b in range(self.dim):
                    axis_w = np.ones(1) if b == a else w
                    shape = [1] * self.dim
                    shape[b] = len(axis_w)
                    plane = plane * axis_w.reshape(shape)
                p = self.scales[:, a].reshape((-1,) + (1,) * self.dim) * plane[None]
                full = (ne,) + (self.n1,) * self.dim
                self._wfull.append(np.ascontiguousarray(np.broadcast_to(p, full)) if dense else p)
        return self._wfull

    def contract(self, Ue: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply all element stiffnesses: ``(ne, n_loc) -> (ne, n_loc)``.

        One batched ``matmul`` per axis through a cached scratch
        tensor, accumulated into ``out`` (allocated only when not
        supplied).
        """
        if out is None:
            out = np.empty_like(Ue)
        n1, dim = self.n1, self.dim
        ne = Ue.shape[0]
        tshape = (ne,) + (n1,) * dim
        U = Ue.reshape(tshape)
        O = out.reshape(tshape)
        t = _kbuf(self._ws, "ac.t", tshape)
        w = self._pooled_planes()
        # Axis 0 contracts straight into the output (then scales in
        # place) — one full copy pass fewer than contract-to-scratch.
        _contract_axis(U, self.KxX, self._KxT, 0, dim, O)
        O *= w[0]
        for a in range(1, dim):
            _contract_axis(U, self.KxX, self._KxT, a, dim, t)
            t *= w[a]
            O += t
        return out


class AnisotropicKernelND(_PooledKernel):
    """Batched general-anisotropy elastic stiffness action, generic over
    dimension (component-interleaved DOFs; fused C tier via
    ``an_apply``/``an_apply3``).

    Applies the operator in *stress form*, the classic SEM structure for
    arbitrary ``C``: with ``G_b`` the 1D derivative along axis ``b`` and
    ``W`` the full tensor quadrature weights, every component block is
    ``K_cd = sum_ab coef[e, c, a, d, b] G_a^T W G_b`` where ``coef`` is
    the rank-4 material tensor times the pair geometry scales
    (:func:`repro.sem.tensor.elastic_pair_scales`).  One apply is

    1. gradient: ``DU[d, b] = G_b u_d`` (``dim^2`` contractions),
    2. Hooke combine: ``S[c, a] = sum_db coef * DU[d, b]``, times ``W``
       (one batched matmul — ``dim^4`` multiply-adds per node),
    3. divergence: ``out_c = sum_a G_a^T S[c, a]`` (``dim^2``
       contractions),

    which reduces exactly to the assembled block form of the tests' CSR
    oracle (note ``G_a^T W G_a`` is the per-axis stiffness kernel and
    ``G_a^T W G_b`` the axis-pair cross kernel).  The kernel holds only its parameters:
    :attr:`coef` is built on each read, and the NumPy tier keeps it as
    its Hooke matrix from the first :meth:`contract` on.
    """

    physics = "anisotropic_elastic"
    param_names = ("C", "h_axes")

    def __init__(self, order: int, C, h_axes):
        from repro.sem.materials import VOIGT_SIZE

        self._geometry(order, h_axes)
        nv = VOIGT_SIZE[self.dim]
        C = np.asarray(C, dtype=np.float64)
        if C.ndim == 2:
            C = C[None]
        require(
            C.shape == (self.h_axes.shape[0], nv, nv),
            f"C must be (n_elements, {nv}, {nv}) for dim {self.dim}",
            SolverError,
        )
        self.C = C

    def _geometry(self, order: int, h_axes) -> None:
        """The material-free part: order, element sizes, the 1D
        derivative and the tensor quadrature weights."""
        self.order = int(order)
        self.n1 = self.order + 1
        self.h_axes = np.atleast_2d(np.asarray(h_axes, dtype=np.float64))
        self.dim = self.h_axes.shape[1]
        require(self.dim in (2, 3), f"{type(self).__name__} needs dim in (2, 3)", SolverError)
        self.n_comp = self.dim
        _, w = gll_points_weights(self.order)
        self.D = lagrange_derivative_matrix(self.order)
        self.Dt = np.ascontiguousarray(self.D.T)
        self._ws = Workspace()
        self._coefmat: np.ndarray | None = None  # see contract
        # Full tensor quadrature weights as a broadcast plane.
        wq = w
        for _ in range(self.dim - 1):
            wq = np.kron(wq, w)
        self._wflat = wq.reshape(1, 1, -1)

    @property
    def coef(self) -> np.ndarray:
        """``coef[e, c, a, d, b] = c_cadb g_ab``: the rank-4 tensor of
        :attr:`C` times the pair geometry scales, built on each read."""
        return self.coef_at(*np.indices((self.dim,) * 4))

    def coef_at(self, c, a, d, b) -> np.ndarray:
        """``coef[:, c, a, d, b]`` at the index arrays ``c, a, d, b``: the
        Voigt entry of the axis pairs ``(c, a)`` and ``(d, b)`` times the
        geometry scale ``g_ab`` (:func:`repro.sem.tensor.elastic_pair_scales`)."""
        from repro.sem.materials import voigt_index_map
        from repro.sem.tensor import elastic_pair_scales

        ne, dim = self.h_axes.shape
        v = voigt_index_map(dim)
        C = self.C.reshape(ne, -1).take(v[c, a] * (v.max() + 1) + v[d, b], axis=1)
        return C * elastic_pair_scales(self.h_axes).reshape(ne, -1).take(a * dim + b, axis=1)

    def _stress_flops(self) -> int:
        """Flops of the pointwise stress at one node: the ``dim^4``-term
        Hooke combine and one weight product per stress component."""
        return 2 * self.dim**4 + self.dim**2

    @property
    def flops_per_element(self) -> int:
        """Flops of one element apply: ``2 dim^2`` axis contractions of
        ``n1^(dim+1)`` multiply-adds each, plus the pointwise stress at
        each of the ``n1^dim`` nodes."""
        n1, dim = self.n1, self.dim
        return 4 * dim**2 * n1 ** (dim + 1) + self._stress_flops() * n1**dim

    def subset(self, ids: np.ndarray) -> "AnisotropicKernelND":
        return AnisotropicKernelND(self.order, self.C[ids], self.h_axes[ids])

    @property
    def workspace_nbytes(self) -> int:
        """Bytes of pooled contraction scratch built so far, the Hooke
        matrix included."""
        return self._ws.nbytes + (0 if self._coefmat is None else self._coefmat.nbytes)

    def contract(self, Ue: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stress-form contraction: gradient stack and stress stack
        live in cached ``(ne, dim^2, n_loc)`` workspaces, the Hooke
        combine is one batched ``matmul`` with the ``(dim^2, dim^2)``
        coefficient matrices."""
        if out is None:
            out = np.empty_like(Ue)
        n1, dim, nc = self.n1, self.dim, self.n_comp
        ne = Ue.shape[0]
        nl = n1**dim
        tshape = (ne,) + (n1,) * dim
        ws = self._ws
        Uc = _kbuf(ws, "an.u", tshape)
        t = _kbuf(ws, "an.t", tshape)
        acc = _kbuf(ws, "an.acc", tshape)
        DU = _kbuf(ws, "an.du", (ne, dim * dim, nl))
        S = _kbuf(ws, "an.s", (ne, dim * dim, nl))
        # 1. gradient of every component along every axis, written into
        #    row (d, b) of the stack (trailing-axis reshapes only, so
        #    the strided row views stay views).
        for d in range(nc):
            Uc.reshape(ne, nl)[:] = Ue[:, d::nc]
            for b in range(dim):
                _contract_axis(
                    Uc, self.D, self.Dt, b, dim,
                    DU[:, d * dim + b].reshape(tshape),
                )
        # 2. Hooke combine + quadrature weights: one batched matmul
        #    with the (dim^2, dim^2) view of coef, rows (c, a), columns
        #    (d, b), built on the first contraction (the fused tier
        #    never reads it).
        if self._coefmat is None:
            self._coefmat = self.coef.reshape(-1, dim * dim, dim * dim)
        np.matmul(self._coefmat, DU, out=S)
        S *= self._wflat
        # 3. weighted divergence back onto each component.
        for c in range(nc):
            _contract_axis(
                S[:, c * dim].reshape(tshape), self.Dt, self.D, 0, dim, acc
            )
            for a in range(1, dim):
                _contract_axis(
                    S[:, c * dim + a].reshape(tshape), self.Dt, self.D, a, dim, t
                )
                acc += t
            out[:, c::nc] = acc.reshape(ne, nl)
        return out


class ElasticKernelND(AnisotropicKernelND):
    """Batched isotropic elastic element stiffness action: the stress
    form of :class:`AnisotropicKernelND` with the isotropic tensor
    ``isotropic_stiffness(lam, mu, dim)``, built from the per-element
    Lamé parameters of :class:`repro.sem.tensor.ElasticSemND`.  The
    fused 3D tier (``el_apply3``) forms the stress from 15 of
    :attr:`coef`'s entries per element (:meth:`coef_at`); in 2D both
    tiers run the anisotropic kernels."""

    physics = "elastic"
    param_names = ("lam", "mu", "h_axes")

    def __init__(self, order: int, lam, mu, h_axes):
        self.lam = np.asarray(lam, dtype=np.float64)
        self.mu = np.asarray(mu, dtype=np.float64)
        self._geometry(order, h_axes)

    @property
    def C(self) -> np.ndarray:
        """The isotropic Voigt stiffness of every element, built on each
        read."""
        from repro.sem.materials import isotropic_stiffness

        return isotropic_stiffness(self.lam, self.mu, self.dim)

    def _stress_flops(self) -> int:
        """In 3D ``el_apply3``'s stress: one weight product per stress
        component, ``dim`` normal stresses of ``2 dim - 1`` flops and
        ``dim (dim - 1)`` shear stresses of 3 (42 flops).  In 2D the full
        combine that ``an_apply`` runs.  The NumPy tier's combine is the
        full ``dim^4``-term matmul in both dimensions."""
        dim = self.dim
        return 6 * dim**2 - 4 * dim if dim == 3 else super()._stress_flops()

    def subset(self, ids: np.ndarray) -> "ElasticKernelND":
        return ElasticKernelND(self.order, self.lam[ids], self.mu[ids], self.h_axes[ids])


# ----------------------------------------------------------------------
# Gather / contract / scatter operators
# ----------------------------------------------------------------------
class MatrixFreeStiffness:
    """The unassembled ``M^{-1} K`` action: gather -> contract ->
    scatter-add, rows scaled by ``Minv``.  The serial operator (every
    element, :meth:`repro.sem.tensor.SemND.operator`) and a rank's share
    of it (its owned elements, local numbering) are the same class, made
    by the one builder :func:`stiffness_share`.

    Implements the :class:`repro.core.operator.StiffnessOperator`
    protocol (``shape``, ``nnz``, ``@``, ``apply``, ``restrict``,
    ``reach``); ``nnz`` is contraction flops per apply.  LTS levels are
    :meth:`masked_subset` products: only the elements adjacent to the
    level's columns (active level plus gray halo) are gathered and
    contracted.

    Computes ``Minv * K (gmask * u)`` with an optional per-element-node
    0/1 input mask (any other value is refused) and the diagonal
    ``Minv`` — ``1/M`` with the Dirichlet rows 0 (:func:`inverse_mass`),
    folded into the NumPy tier's scatter, multiplied after the fused
    tier's.  The fused tier's :meth:`restrict`, :meth:`masked_subset` and
    :meth:`element_subset` products are *raw* (``Minv`` ``None``,
    ``n_dof`` given instead): ``apply`` is ``K u``, which an LTS plan
    scales by :attr:`row_scale`.

    ``element_dofs`` and ``gmask`` are held once, in the width the tier
    reads: with a fused plan they are views of the plan's ``int32`` and
    ``uint8`` tables, on the NumPy tier ``int64`` and ``float64`` (what
    ``take`` and ``csc_matvec`` index and multiply with, no per-call
    conversion).

    ``use_fused=None`` auto-selects the fused C kernels when available
    (:mod:`repro.sem.fused`); ``False`` pins the batched NumPy path.
    ``threads`` (resolved by :func:`resolve_threads` — ``None`` serial,
    ``0`` auto-detect) is the OpenMP thread count of the fused kernels'
    element-block loop, whose scatter reduces per-thread partials in a
    fixed order: for a fixed thread count results are deterministic and
    agree with serial to summation order (<= 1e-12 relative).  The NumPy
    tier is serial whatever ``threads`` says, as is a fused build
    without OpenMP or a workload below one ``VL`` block per thread;
    ``tier`` reports what actually runs.
    """

    def __init__(
        self,
        kernel,
        element_dofs: np.ndarray,
        Minv: np.ndarray | None,
        use_fused: bool | None = None,
        gmask: np.ndarray | None = None,
        threads: int | None = None,
        n_dof: int | None = None,
    ):
        self.kernel = kernel
        element_dofs = np.asarray(element_dofs)
        self.Minv = None if Minv is None else np.ascontiguousarray(Minv, dtype=np.float64)
        self.n_dof = int(n_dof) if Minv is None else len(self.Minv)
        # Both tiers index with these unchecked (``take(mode="clip")``,
        # ``csc_matvec``, the C gather/scatter), so the table is vetted
        # here, before any narrowing cast.
        require(
            element_dofs.size == 0
            or (element_dofs.min() >= 0 and element_dofs.max() < self.n_dof),
            "element dof out of range",
            SolverError,
        )
        if gmask is not None:
            gmask = _require_01(gmask, "gmask")
        self._use_fused = use_fused
        self._requested_threads = threads
        self.threads = resolve_threads(threads)
        ne = element_dofs.shape[0]
        # The gating picks the tier even when there is no element to plan.
        plan_cls = _fused_plan_cls(kernel, self.n_dof, enabled=use_fused)
        self._fused = plan_cls is not None
        self._plan = (
            plan_cls(kernel, element_dofs, self.n_dof, gmask=gmask, threads=self.threads)
            if self._fused and ne
            else None
        )
        if self._plan is not None:
            self.element_dofs, self.gmask = self._plan.element_dofs, self._plan.gmask
        else:
            self.element_dofs = np.ascontiguousarray(element_dofs, dtype=np.int64)
            self.gmask = (
                None if gmask is None else np.ascontiguousarray(gmask, dtype=np.float64)
            )
        # NumPy tier: the scatter plan is built here; every mutable
        # buffer lives in a Workspace and appears on first use, so
        # :meth:`fork` only has to hand out fresh pools.
        self._ws = Workspace()
        self._scatter = (
            _ScatterPlan(self.element_dofs, self.Minv)
            if self._plan is None and ne
            else None
        )

    def fork(self) -> "MatrixFreeStiffness":
        """This operator with scratch of its own (gather/contract
        buffers, kernel pools, per-thread partials), for a concurrent
        caller; tables, masks, scatter and fused plans are shared."""
        twin = copy.copy(self)
        twin._ws = Workspace()
        if self._plan is not None:
            twin._plan = self._plan.fork()
        else:
            twin.kernel = self.kernel.fork()
        return twin

    @property
    def tier(self) -> str:
        """The kernel tier this operator actually runs (post-gating):
        ``"fused+openmp:N"``, ``"fused"``, or ``"numpy"``; a product of
        no elements reports the tier its gating selected."""
        if not self._fused:
            return "numpy"
        if self._plan is not None and self._plan.threads > 1:
            return f"fused+openmp:{self._plan.threads}"
        return "fused"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_dof, self.n_dof)

    @property
    def nnz(self) -> int:
        return self.element_dofs.shape[0] * self.kernel.flops_per_element

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The full-length action, into ``out`` or a fresh vector: every
        entry is overwritten (zero outside the row support).  ``u`` and
        ``out`` of another length are refused before any read."""
        check_lengths(self.n_dof, u, out)
        if out is None:
            out = np.empty(self.n_dof)
        if self.element_dofs.shape[0] == 0:
            out.fill(0.0)
            return out
        if self._plan is not None:
            self._plan(u, out)
            if self.Minv is not None:
                out *= self.Minv
            return out
        Ue = self._ws.buf("Ue", self.element_dofs.shape)
        u.take(self.element_dofs, out=Ue, mode="clip")
        if self.gmask is not None:
            Ue *= self.gmask
        ku = self._ws.buf("ku", self.element_dofs.shape)
        self.kernel.contract(Ue, out=ku)
        return self._scatter.scatter(ku.reshape(-1), out)

    def workspace_bytes(self) -> int:
        """Bytes of pooled hot-path scratch currently held (gather and
        contraction buffers, the scatter plan, per-thread partials)."""
        total = self._ws.nbytes + getattr(self.kernel, "workspace_nbytes", 0)
        if self._scatter is not None:
            total += self._scatter.nbytes
        if self._plan is not None and getattr(self._plan, "_zt", None) is not None:
            total += self._plan._zt.nbytes
        return total

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    @property
    def row_scale(self) -> np.ndarray | None:
        """The ``Minv`` this operator's raw (fused) products leave to their
        caller; ``None`` where they carry it (NumPy) or there is none."""
        return None if self._plan is None else self.Minv

    def restrict(self, cols: np.ndarray) -> Restriction:
        """The product ``A[:, cols] @ u[cols]``: the :meth:`masked_subset`
        of the columns, equal to the assembled CSR's column block to
        machine precision once scaled by :attr:`row_scale`."""
        cols = np.asarray(cols, dtype=np.int64)
        col_mask = np.zeros(self.n_dof, dtype=bool)
        col_mask[cols] = True
        return _restriction(cols, self.masked_subset(col_mask))

    def reach(self, col_mask: np.ndarray) -> np.ndarray:
        """All DOFs of elements adjacent to the masked columns: the row
        support of their :meth:`masked_subset`.  A structural superset
        of the assembled CSR's reach (it keeps same-element DOFs
        whose stiffness entry is exactly zero), which is valid for LTS
        active sets: any superset of the true coupling yields the
        identical scheme."""
        return self.row_support(np.asarray(col_mask, dtype=bool)[self.element_dofs].any(axis=1))

    def masked_subset(self, col_mask: np.ndarray) -> "MatrixFreeStiffness":
        """The restricted action ``u -> Minv * K (col_mask * u)`` on the
        elements adjacent to the masked DOFs (active level + gray halo),
        raw on the fused tier (:attr:`row_scale`).

        This is the paper's per-level stiffness application: each level
        applies only the elements of the active level instead of masking
        a full product.  A mask over every DOF returns this operator
        itself, or its raw twin (tables and plan shared): no rebuild, no
        all-ones input mask.
        """
        col_mask = np.asarray(col_mask, dtype=bool)
        if col_mask.all():
            if self.row_scale is None:
                return self
            twin = copy.copy(self)
            twin.Minv = None
            return twin
        ids = np.nonzero(col_mask[self.element_dofs].any(axis=1))[0]
        return self.element_subset(ids, col_mask[self.element_dofs[ids]])

    def level_tables(self, col_masks: list[np.ndarray], first_support: int = 0):
        """Per mask of ``col_masks``, what :meth:`masked_subset` finds — its
        elements ``ids`` and input mask ``gm`` (``None`` for a mask of
        every DOF), :meth:`element_subset`'s arguments — and, from
        ``first_support`` on, its :meth:`row_support`: all from one gather
        of ``element_dofs``, each DOF coded by the bits of its masks."""
        code = np.zeros(self.n_dof, dtype=np.min_scalar_type((1 << len(col_masks)) - 1))
        for j, m in enumerate(col_masks):
            code[m] |= 1 << j
        coded = code[self.element_dofs]
        hit = np.bitwise_or.reduce(coded, axis=1)
        ids = [np.flatnonzero(hit & (1 << j)) for j in range(len(col_masks))]
        return [(i, None if m.all() else (coded[i] & (1 << j)) != 0)
                for j, (i, m) in enumerate(zip(ids, col_masks))
                ], [self.row_support(i) for i in ids[first_support:]]

    def element_subset(self, ids: np.ndarray, gm: np.ndarray | None,
                       idx: np.ndarray | None = None, pos: np.ndarray | None = None,
                       off: int = 0) -> "MatrixFreeStiffness":
        """The product of the elements ``ids``, input masked by ``gm`` (and
        this operator's mask), built on the numbering ``idx`` when given:
        its tables are relabelled before the tier's plan is packed, so a
        level product lands on its LTS tail in one build — bitwise
        :meth:`masked_subset` then :meth:`renumber`."""
        ed, n, Minv = self.element_dofs[ids], self.n_dof, None if self._plan else self.Minv
        if self.gmask is not None:
            keep = self.gmask[ids] != 0
            gm = keep if gm is None else gm & keep
        if idx is not None:
            ed, n = positions_in(pos, ed, "row-support DOF", off), len(idx)
            Minv = None if Minv is None else Minv.take(idx)
        return MatrixFreeStiffness(self.kernel.subset(ids), ed, Minv, use_fused=self._use_fused,
                                   gmask=gm, threads=self._requested_threads, n_dof=n)

    def renumber(self, idx: np.ndarray, pos: np.ndarray, off: int = 0) -> "MatrixFreeStiffness":
        """This operator on the numbering ``idx`` (position ``j`` is DOF
        ``idx[j]``, at ``pos[idx[j]] - off``, as for
        :meth:`~repro.core.operator.Restriction.renumber`): element
        tables remapped, ``gmask`` kept, a NumPy ``Minv`` gathered, the
        tier's plan rebuilt.  Every element gathers, contracts and scatters in
        the same order, so position ``j`` is bitwise the original's
        ``idx[j]``; an element DOF outside ``idx`` is a
        :class:`SolverError`."""
        return self.element_subset(np.arange(len(self.element_dofs)), None, idx, pos, off)

    def row_support(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Boolean mask of rows this operator (or its elements ``ids``)
        can structurally write: the union of their element dofs.  An LTS
        plan builds its active sets and halo channels from it."""
        mask = np.zeros(self.n_dof, dtype=bool)
        mask[self.element_dofs if ids is None else self.element_dofs[ids]] = True
        return mask


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def operator_for(
    assembler,
    backend: str = "matfree",
    use_fused: bool | None = None,
    threads: int | None = None,
):
    """:meth:`repro.sem.tensor.SemND.operator`: the whole mesh's
    :func:`stiffness_share` — the serial ``M^{-1} K`` is the
    all-elements case of a rank's product.  One implementation, every
    assembler; ``backend`` accepts only ``"matfree"``."""
    require(backend == "matfree", f"unknown backend {backend!r} (only 'matfree')", SolverError)
    return stiffness_share(
        assembler, inverse_mass(assembler), use_fused=use_fused, threads=threads
    )


def inverse_mass(assembler) -> np.ndarray:
    """``1/M`` of ``assembler``'s fully-summed diagonal mass with its
    Dirichlet rows set to 0: the row scale of every ``M^{-1} K``
    product, serial or rank-local."""
    inv_m = 1.0 / np.asarray(assembler.M, dtype=np.float64)
    mask = getattr(assembler, "dirichlet_mask", None)
    return inv_m if mask is None else inv_m * mask


def stiffness_share(
    assembler,
    Minv: np.ndarray,
    element_ids: np.ndarray | None = None,
    local_dofs: np.ndarray | None = None,
    use_fused: bool | None = None,
    threads: int | None = None,
) -> MatrixFreeStiffness:
    """The unassembled ``M^{-1} K`` of the elements ``element_ids`` (all
    of them when ``None``) of any SEM assembler: the serial operator, or
    a rank's share of it for :class:`repro.runtime.halo.RankLayout`.

    ``local_dofs`` is ``assembler.element_dofs[element_ids]`` in the
    product's numbering (the global one when ``None``) and ``Minv``
    (:func:`inverse_mass` on those DOFs) scales its rows.  The
    assembler's Dirichlet mask, if any, masks the columns, so the whole
    mesh's share is the serial operator and the halo sum of the ranks'
    shares is its product.
    """
    ed = np.asarray(assembler.element_dofs)
    mask = getattr(assembler, "dirichlet_mask", None)
    if element_ids is not None and (local_dofs is None or mask is not None):
        ed = ed[np.asarray(element_ids)]
    return MatrixFreeStiffness(
        assembler.kernel(element_ids),
        ed if local_dofs is None else local_dofs,
        Minv,
        use_fused=use_fused,
        gmask=None if mask is None else _require_01(mask, "dirichlet_mask")[ed],
        threads=threads,
    )
