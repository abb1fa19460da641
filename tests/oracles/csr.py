"""The assembled stiffness: the global CSR the matrix-free tiers are held to.

The package applies SPECFEM's unassembled operator (Komatitsch & Tromp,
GJI 1999/2002; paper Sec. II-C) and never forms a matrix.  This module
is the assembled one as the package used to build it, kept verbatim as
the reference every matrix-free product, LTS plan and rank layout is
compared with:

* the reference-element kernels: the 1D GLL stiffness ``KxX = D^T
  diag(w) D``, its per-axis kron lifts (:func:`axis_stiffness_kernels`)
  and the axis-pair cross kernels ``R_ab = G_a^T W G_b``
  (:func:`axis_cross_kernels`);
* the dense element matrices of the three physics
  (:func:`element_system_batch`): acoustic, isotropic elastic and
  anisotropic elastic, each a per-element scalar combination of those
  kernels: the elastic block form, whose formulas
  (:func:`_elastic_batch`, :func:`_anisotropic_batch`, with the axis
  scales of :func:`elastic_axis_scales`) are kept here only — the
  package applies the stress form they reduce to;
* :func:`stiffness_csr`, the chunked scatter of any element subset onto
  any numbering (the serial ``K`` or a rank's partial one, summed chunk
  by chunk as ``K = K + chunk``), and :func:`mass_scaled`, the
  Dirichlet-masked ``1/M`` row scale that makes ``A = M^{-1} K``.

:func:`K` and :func:`A` are the serial pair, built once per assembler
object; :func:`operator` wraps ``A`` as a stiffness operator, and
:func:`rank_layout` is :func:`repro.runtime.halo.build_rank_layout` with
every rank's product replaced by its CSR share.  The stored entry order
of every matrix is the one the golden pins were computed with (a CSR
product sums in stored order), so keep it.

Tests import it as ``from oracles import csr``.
"""

from __future__ import annotations

import weakref
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.core.operator import AssembledOperator
from repro.runtime.halo import build_rank_layout
from repro.sem.anisotropic import AnisotropicElasticSemND
from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix
from repro.sem.matfree import inverse_mass
from repro.sem.tensor import ElasticSemND, acoustic_axis_scales, elastic_pair_scales

#: Cap on scattered COO entries per assembly chunk (~64 MB of values).
_CHUNK_ENTRIES = 8_000_000

#: The serial ``(K, A)`` of each assembler object built so far.
_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# ----------------------------------------------------------------------
# Reference-element kernels
# ----------------------------------------------------------------------
def reference_stiffness_1d(order: int) -> np.ndarray:
    """The 1D GLL stiffness kernel ``KxX = D^T diag(w) D``."""
    _, w = gll_points_weights(order)
    D = lagrange_derivative_matrix(order)
    return (D.T * w) @ D


def axis_stiffness_kernels(order: int, dim: int) -> list[np.ndarray]:
    """Per-axis reference stiffness kernels on the flattened local basis.

    Kernel ``a`` is the kron chain with ``KxX`` at axis ``a`` and
    ``diag(w)`` elsewhere (axes ordered x slowest), so the element
    stiffness of an axis-aligned box is the per-element scalar
    combination ``K_e = sum_a scale[e, a] * kernel_a`` — see
    :func:`repro.sem.tensor.acoustic_axis_scales`.
    """
    _, w = gll_points_weights(order)
    KxX = reference_stiffness_1d(order)
    Wd = np.diag(w)
    out = []
    for a in range(dim):
        k = KxX if a == 0 else Wd
        for b in range(1, dim):
            k = np.kron(k, KxX if b == a else Wd)
        out.append(k)
    return out


def axis_cross_kernels(order: int, dim: int) -> dict[tuple[int, int], np.ndarray]:
    """Axis-pair cross kernels ``R_ab = G_a^T W G_b`` for ``a < b``.

    ``R_ab`` is the kron chain with ``E = D^T diag(w)`` at axis ``a``,
    ``F = diag(w) D`` at axis ``b`` and ``diag(w)`` elsewhere (axes
    ordered x slowest).  These couple displacement components in the
    vector-valued physics: the elastic block ``(c, d)`` of an
    axis-aligned box is ``g_cd (lam R_cd + mu R_cd^T)`` for ``c != d``
    (note ``R_ba = R_ab^T``), with the geometry factors of
    :func:`repro.sem.tensor.elastic_pair_scales`.
    """
    _, w = gll_points_weights(order)
    D = lagrange_derivative_matrix(order)
    E = D.T * w
    F = w[:, None] * D
    Wd = np.diag(w)
    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            mats = [Wd] * dim
            mats[a] = E
            mats[b] = F
            k = mats[0]
            for m in mats[1:]:
                k = np.kron(k, m)
            out[(a, b)] = k
    return out


# ----------------------------------------------------------------------
# Dense element matrices, one per physics
# ----------------------------------------------------------------------
def elastic_axis_scales(h_axes: np.ndarray) -> np.ndarray:
    """Per-element, per-axis geometry scales ``prod(h) / (2^(dim-2) h_a^2)``.

    The material-free part of the elastic diagonal blocks: the ``a``-axis
    reference kernel of component ``c`` enters with coefficient
    ``(lam + 2 mu) s_a`` when ``a == c`` and ``mu s_a`` otherwise (i.e.
    :func:`repro.sem.tensor.acoustic_axis_scales` with ``c^2 = 1``).
    """
    h_axes = np.asarray(h_axes, dtype=np.float64)
    return acoustic_axis_scales(np.ones(h_axes.shape[0]), h_axes)


def element_mass_batch(sem, ids: np.ndarray | None = None) -> np.ndarray:
    """Diagonal element mass ``(m, n_comp * n_loc)`` of elements ``ids``
    (all when ``None``): the per-node mass replicated onto every
    component of each node."""
    Me = sem._node_mass(ids)
    return Me if sem.n_comp == 1 else np.repeat(Me, sem.n_comp, axis=1)


def element_system_batch(sem, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness ``(m, n_loc, n_loc)`` (``n_loc`` counting every
    component) and diagonal mass ``(m, n_loc)`` of elements ``ids`` (all
    elements when ``None``), in the physics of ``sem``'s class."""
    ids = np.arange(sem.mesh.n_elements) if ids is None else np.asarray(ids)
    kernels = axis_stiffness_kernels(sem.order, sem.dim)
    if isinstance(sem, AnisotropicElasticSemND):
        Ke = _anisotropic_batch(sem, ids, kernels)
    elif isinstance(sem, ElasticSemND):
        Ke = _elastic_batch(sem, ids, kernels)
    else:
        Ke = sem.axis_scales[ids, 0, None, None] * kernels[0]
        for a in range(1, sem.dim):
            Ke = Ke + sem.axis_scales[ids, a, None, None] * kernels[a]
    return Ke, element_mass_batch(sem, ids)


def _elastic_batch(sem, ids, kernels) -> np.ndarray:
    """Isotropic elastic blocks: ``sum_a coef_a s_a K_a`` on the diagonal
    (``lam + 2 mu`` on the block's own axis, ``mu`` elsewhere) and
    ``g_cd (lam R_cd + mu R_cd^T)`` off it.  In 2D (P-SV) these are the
    classic four-kernel form::

        Kxx = (l+2m)(hy/hx) K1 + m (hx/hy) K2      K1 = KxX (x) Wd
        Kyy = (l+2m)(hx/hy) K2 + m (hy/hx) K1      K2 = Wd (x) KxX
        Kxy = l C + m C^T,   Kyx = Kxy^T           C  = (Dm^T w) (x) (w Dm)

    (the shear coupling ``C`` is geometry-free only in 2D); in 3D there
    are nine blocks, six of them axis-pair cross kernels."""
    dim = sem.dim
    nc = sem.n_comp
    n_loc = (sem.order + 1) ** dim
    cross = axis_cross_kernels(sem.order, dim)
    lam, mu = sem.material.lam[ids], sem.material.mu[ids]
    cp = lam + 2 * mu
    s = elastic_axis_scales(sem.h_axes[ids])
    g = elastic_pair_scales(sem.h_axes[ids])
    Ke = np.zeros((len(ids), nc * n_loc, nc * n_loc))
    for c in range(nc):
        blk = (cp * s[:, c])[:, None, None] * kernels[c]
        for a in range(dim):
            if a != c:
                blk = blk + (mu * s[:, a])[:, None, None] * kernels[a]
        Ke[:, c::nc, c::nc] = blk
    for c in range(dim):
        for d in range(c + 1, dim):
            R = cross[(c, d)]
            lam_g = (lam * g[:, c, d])[:, None, None]
            mu_g = (mu * g[:, c, d])[:, None, None]
            B = lam_g * R + mu_g * R.T
            Ke[:, c::nc, d::nc] = B
            Ke[:, d::nc, c::nc] = np.swapaxes(B, 1, 2)
    return Ke


def _anisotropic_batch(sem, ids, kernels) -> np.ndarray:
    """Anisotropic blocks from the rank-4 tensor ``c[e, c, a, d, b]``:
    ``K_cd = sum_a c_cada s_a K_a + sum_{a<b} g_ab (c_cadb R_ab + c_cbda
    R_ab^T)``.  Major symmetry ``c_cadb = c_dbca`` makes the element
    matrix symmetric block by block (``K_dc = K_cd^T``)."""
    dim = sem.dim
    nc = sem.n_comp
    n_loc = (sem.order + 1) ** dim
    cross = axis_cross_kernels(sem.order, dim)
    c4 = sem.material.stiffness_tensor()[ids]
    s = elastic_axis_scales(sem.h_axes[ids])
    g = elastic_pair_scales(sem.h_axes[ids])
    Ke = np.zeros((len(ids), nc * n_loc, nc * n_loc))
    for c in range(nc):
        for d in range(nc):
            blk = (c4[:, c, 0, d, 0] * s[:, 0])[:, None, None] * kernels[0]
            for a in range(1, dim):
                blk = blk + (c4[:, c, a, d, a] * s[:, a])[:, None, None] * kernels[a]
            for a in range(dim):
                for b in range(a + 1, dim):
                    R = cross[(a, b)]
                    blk = blk + (c4[:, c, a, d, b] * g[:, a, b])[:, None, None] * R
                    blk = blk + (c4[:, c, b, d, a] * g[:, a, b])[:, None, None] * R.T
            Ke[:, c::nc, d::nc] = blk
    return Ke


# ----------------------------------------------------------------------
# The assembled matrices
# ----------------------------------------------------------------------
def stiffness_csr(sem, ids=None, local_dofs=None, n: int | None = None) -> sp.csr_matrix:
    """Stiffness of the elements ``ids`` (all) as CSR on a numbering of
    ``n`` DOFs (``n_dof``) in which their ``element_dofs`` are
    ``local_dofs`` (the global ones): the serial ``K`` or a rank's
    partial one, scattered from :func:`element_system_batch` one
    ``_CHUNK_ENTRIES`` chunk of dense element matrices at a time."""
    ids = np.arange(sem.mesh.n_elements) if ids is None else np.asarray(ids)
    ed = sem.element_dofs[ids] if local_dofs is None else local_dofs
    n = sem.n_dof if n is None else int(n)
    n2 = ed.shape[1]
    K = sp.csr_matrix((n, n))
    chunk = max(1, _CHUNK_ENTRIES // (n2 * n2))
    for s in range(0, len(ids), chunk):
        Ke, _ = element_system_batch(sem, ids[s : s + chunk])
        d = ed[s : s + chunk]
        rows, cols = np.repeat(d, n2, axis=1).ravel(), np.tile(d, (1, n2)).ravel()
        K = K + sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    K.eliminate_zeros()  # kron kernels are exactly zero off the GLL lines
    return K


def mass_scaled(K, inv_m: np.ndarray, mask: np.ndarray | None = None) -> sp.csr_matrix:
    """``M^{-1} K`` as the serial ``A`` and every rank's share hold it:
    rows times ``inv_m`` (:func:`repro.sem.matfree.inverse_mass`), columns
    times the Dirichlet ``mask``, zeros dropped.  The rows scale by a
    product with a diagonal, whose stored entry order (the order a CSR
    product sums in) every pinned result was computed with."""
    A = sp.csr_matrix(sp.diags(inv_m) @ K)
    if mask is not None:
        A.data *= mask[A.indices]
    A.eliminate_zeros()
    return A


def _pair(sem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    if sem not in _BUILT:
        Ks = stiffness_csr(sem)
        _BUILT[sem] = (Ks, mass_scaled(Ks, inverse_mass(sem), sem.dirichlet_mask))
    return _BUILT[sem]


def K(sem) -> sp.csr_matrix:
    """The global stiffness of ``sem``, built on first call per object."""
    return _pair(sem)[0]


def A(sem) -> sp.csr_matrix:
    """The global ``M^{-1} K`` of ``sem``: :func:`mass_scaled` :func:`K`."""
    return _pair(sem)[1]


def operator(sem) -> AssembledOperator:
    """:func:`A` as a stiffness operator (``restrict``, ``reach``, ...)."""
    return AssembledOperator(A(sem))


def rank_layout(sem, parts: np.ndarray, n_ranks: int, dof_level: np.ndarray | None = None):
    """:func:`repro.runtime.halo.build_rank_layout` of ``sem`` with each
    rank's product its CSR share: the stiffness of its owned elements on
    its local numbering (``layout.gdofs``), rows scaled by the serial
    ``1/M`` and columns by the Dirichlet mask.  On one rank that share
    is :func:`A`, entry for entry."""
    layout = build_rank_layout(sem, parts, n_ranks, dof_level=dof_level, use_fused=False)
    parts = np.asarray(parts)
    inv_m, mask = inverse_mass(sem), sem.dirichlet_mask
    index = np.int32 if sem.n_dof < 2**31 else np.int64
    K_local = []
    for r, g in enumerate(layout.gdofs):
        owned = np.flatnonzero(parts == r)
        ld = np.searchsorted(g, sem.element_dofs[owned]).astype(index)
        K_local.append(mass_scaled(
            stiffness_csr(sem, owned, ld, len(g)), inv_m[g], None if mask is None else mask[g],
        ))
    return replace(layout, K_local=K_local)


#: ``use_fused`` of the package's tiers; ``"matfree"`` auto-selects.
_USE_FUSED = {"numpy": False, "fused": True, "matfree": None}


def tier_operator(sem, tier: str):
    """The serial operator of a test tier: ``"assembled"`` (:func:`operator`),
    or the package's ``"numpy"``, ``"fused"`` or auto-selected
    ``"matfree"`` one."""
    return operator(sem) if tier == "assembled" else sem.operator(use_fused=_USE_FUSED[tier])


def tier_layout(sem, parts, n_ranks: int, tier: str, dof_level=None):
    """The rank layout of a test tier, as :func:`tier_operator` picks."""
    if tier == "assembled":
        return rank_layout(sem, parts, n_ranks, dof_level)
    return build_rank_layout(sem, parts, n_ranks, dof_level=dof_level,
                             use_fused=_USE_FUSED[tier])
