"""3D isotropic elastic spectral elements on hexahedral meshes.

This is the paper's target physics in its native dimension: the elastic
wave equation ``rho u_tt = div T``, ``T = C : grad u`` (Eqs. (1)-(2))
discretized with hexahedral spectral elements inside SPECFEM3D, with LTS
levels driven by the per-element *P-wave* speed (Eq. (7)).
:class:`ElasticSem3D` provides that operator for isotropic axis-aligned
hexahedra: three displacement components per GLL node, per-element Lamé
parameters and density, free-surface (natural) boundaries by default.

Everything is inherited from the physics- and dimension-generic
:class:`repro.sem.tensor.ElasticSemND` core: the diagonal blocks are
per-axis reference-kernel combinations and the six off-diagonal blocks
are the axis-pair cross kernels ``g_cd (lam R_cd + mu R_cd^T)`` — nine
blocks total, each a scalar combination of geometry-free kron kernels.
The matrix-free backend (:class:`repro.sem.matfree.ElasticKernelND`)
applies exactly those blocks as batched per-axis contractions — O(n^4)
work per element against the O(n^6) of a dense element matvec, with an
optional fused C kernel (``el_apply3``) that keeps the whole
three-component element workspace in registers/L1.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.tensor import ElasticSemND
from repro.util.errors import SolverError
from repro.util.validation import require


class ElasticSem3D(ElasticSemND):
    """Order-``order`` isotropic elastic SEM on a conforming hexahedral
    mesh.

    Parameters
    ----------
    mesh:
        Axis-aligned hexahedral mesh; ``mesh.c`` is *ignored* for
        material properties (use ``material``) — pass the
        assembler as ``assembler=`` to
        :func:`repro.core.levels.assign_levels` so LTS levels follow the
        compressional speed (Eq. (7)).
    material:
        A :class:`repro.sem.materials.IsotropicElastic`: per-element
        Lamé parameters and density (scalars broadcast); the default is
        ``lam = mu = rho = 1``.
    dirichlet:
        Clamp all components on the domain boundary; the default is the
        paper's free-surface (natural) condition.

    DOF layout: component-interleaved, ``3*node + comp`` with comp 0 = x,
    1 = y, 2 = z; scalar node numbering (and therefore halo construction
    and ``element_dofs`` shape conventions) is shared with :class:`Sem3D`.
    """

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material=None,
    ):
        require(mesh.dim == 3, "ElasticSem3D requires a 3D mesh", SolverError)
        super().__init__(mesh, order=order, dirichlet=dirichlet, material=material)

    @property
    def xyz(self) -> np.ndarray:
        """Scalar-node coordinates ``(n_scalar, 3)`` (alias of
        ``node_coords``)."""
        return self.node_coords
