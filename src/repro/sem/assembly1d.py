"""1D spectral-element assembly for the scalar wave equation.

Solves ``rho u_tt = (mu u_x)_x`` with ``mu = rho c^2`` (``rho = 1`` here,
so the wave speed is ``c``) on an arbitrary conforming interval mesh —
including the geometrically refined meshes that create the LTS bottleneck.
Free (Neumann) boundaries by default, optional homogeneous Dirichlet.

The assembled objects are exactly what the LTS core consumes:

* ``M`` — diagonal mass (a vector), from GLL quadrature;
* ``K`` — sparse stiffness;
* ``A = M^{-1} K`` — the explicit-stepping operator;
* ``element_dofs`` — the element->DOF map that defines the selection
  matrices ``P_k`` via :func:`repro.core.lts_newmark.dof_levels_from_elements`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.mesh.mesh import Mesh
from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix
from repro.util.errors import SolverError
from repro.util.validation import require


class Sem1D:
    """Assembled order-``order`` SEM on a 1D :class:`repro.mesh.Mesh`.

    Parameters
    ----------
    mesh:
        1D mesh; ``mesh.c`` provides the per-element wave speed and the
        node coordinates the element extents (elements may have arbitrary
        sizes — this is where LTS refinement lives in 1D).
    order:
        Polynomial order (SPECFEM3D default is 4).
    dirichlet:
        If True, clamp both domain endpoints (homogeneous Dirichlet) by
        zeroing the corresponding rows/columns of ``A``; the free-surface
        (Neumann) condition of the paper needs no modification.
    """

    def __init__(self, mesh: Mesh, order: int = 4, dirichlet: bool = False):
        require(mesh.dim == 1, "Sem1D requires a 1D mesh", SolverError)
        require(order >= 1, "order must be >= 1", SolverError)
        self.mesh = mesh
        self.order = int(order)
        self.dirichlet = bool(dirichlet)

        xi, w = gll_points_weights(order)
        D = lagrange_derivative_matrix(order)
        n_elem = mesh.n_elements
        n_loc = order + 1
        # Continuous global numbering: element e owns DOFs
        # [e*order, e*order + order], sharing endpoints with neighbours.
        # Elements are sorted by left endpoint to allow arbitrary input
        # ordering of a 1D chain mesh.
        left = mesh.coords[mesh.elements[:, 0], 0]
        right = mesh.coords[mesh.elements[:, 1], 0]
        elem_order = np.argsort(left, kind="stable")
        require(
            bool(np.allclose(left[elem_order][1:], right[elem_order][:-1])),
            "1D mesh must form a contiguous chain of elements",
            SolverError,
        )
        self.elem_order = elem_order
        self.n_dof = n_elem * order + 1

        element_dofs = np.empty((n_elem, n_loc), dtype=np.int64)
        x = np.empty(self.n_dof)
        base = np.arange(n_loc, dtype=np.int64)
        for pos, e in enumerate(elem_order):
            dofs = pos * order + base
            element_dofs[e] = dofs
            h = right[e] - left[e]
            x[dofs] = left[e] + (xi + 1.0) * 0.5 * h
        self.element_dofs = element_dofs
        self.x = x

        # Assembly.
        M = np.zeros(self.n_dof)
        rows, cols, vals = [], [], []
        local_idx = np.arange(n_loc)
        for e in range(n_elem):
            h = right[e] - left[e]
            jac = 0.5 * h
            mu = float(mesh.c[e]) ** 2
            Ke = (mu / jac) * (D.T * w) @ D  # (1/jac^2)*jac scaling folded in
            dofs = element_dofs[e]
            M[dofs] += jac * w
            rows.append(np.repeat(dofs, n_loc))
            cols.append(np.tile(dofs, n_loc))
            vals.append(Ke.ravel())
        self.M = M
        K = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_dof, self.n_dof),
        ).tocsr()
        K.sum_duplicates()
        self.K = K
        self.h_elem = right - left

        A = sp.diags(1.0 / M) @ K
        self.dirichlet_mask: np.ndarray | None = None
        if dirichlet:
            mask = np.ones(self.n_dof)
            mask[0] = mask[-1] = 0.0
            A = sp.diags(mask) @ A @ sp.diags(mask)
            self.dirichlet_mask = mask
        self.A = sp.csr_matrix(A)

    # ------------------------------------------------------------------
    def kernel_spec(self, ids=None):
        """Explicit physics declaration (see
        :class:`repro.core.operator.KernelSpec`): 1D acoustic with the
        per-element scale ``2 c^2 / h`` (``mu / jac`` of the assembly
        loop), which also opens the matrix-free backend to 1D meshes."""
        from repro.core.operator import KernelSpec

        sl = slice(None) if ids is None else np.asarray(ids)
        scales = (2.0 * np.asarray(self.mesh.c, dtype=np.float64) ** 2 / self.h_elem)[
            :, None
        ]
        return KernelSpec(
            physics="acoustic", order=self.order, dim=1, n_comp=1,
            params={"scales": scales[sl]},
        )

    def operator(
        self,
        backend: str = "assembled",
        use_fused: bool | None = None,
        threads: int | None = None,
    ):
        """Stiffness operator ``A = M^{-1} K`` in the requested backend
        (see :meth:`repro.sem.tensor.SemND.operator`)."""
        from repro.sem.matfree import operator_for

        return operator_for(self, backend, use_fused=use_fused, threads=threads)

    # ------------------------------------------------------------------
    def element_system(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Element stiffness (dense) and mass (diagonal) of element ``e``.

        Used by the distributed runtime to assemble rank-local partial
        operators so each element's contribution is computed on exactly
        one rank (the SEM shared-node summation then happens in the halo
        exchange, as in SPECFEM3D).
        """
        from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix

        xi, w = gll_points_weights(self.order)
        D = lagrange_derivative_matrix(self.order)
        left = self.mesh.coords[self.mesh.elements[e, 0], 0]
        right = self.mesh.coords[self.mesh.elements[e, 1], 0]
        jac = 0.5 * (right - left)
        mu = float(self.mesh.c[e]) ** 2
        Ke = (mu / jac) * (D.T * w) @ D
        Me = jac * w
        return Ke, Me

    def max_velocity(self) -> np.ndarray:
        """Per-element maximal wave speed (``mesh.c``; unit density), so
        ``assign_levels(assembler=...)`` / ``cfl_timestep(assembler=...)``
        work uniformly across every assembler including 1D."""
        return np.asarray(self.mesh.c, dtype=np.float64)

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolant of a function ``f(x)`` (vectorized callable)."""
        return np.asarray(f(self.x), dtype=np.float64)

    def nearest_dof(self, x0: float) -> int:
        """Global DOF closest to coordinate ``x0`` (receiver/source helper)."""
        require(bool(np.isfinite(x0)), f"point must be finite, got {x0}", SolverError)
        return int(np.argmin(np.abs(self.x - x0)))
