"""1D spectral-element assembly for the scalar (acoustic) wave equation.

Solves ``rho u_tt = (kappa u_x)_x`` with ``kappa = rho c^2`` on an
arbitrary conforming interval mesh — including the geometrically refined
meshes that create the LTS bottleneck (paper Sec. II-C, Fig. 1).  Free
(Neumann) boundaries by default, optional homogeneous Dirichlet.

Everything is inherited from the dimension-generic
:class:`repro.sem.tensor.SemND` core, as in 2D and 3D: entity-based
numbering (mesh corners first, then element interiors), lumped diagonal
mass, vectorized CSR assembly, Dirichlet masking and the
backend-pluggable :meth:`SemND.operator`.  This class only pins
``dim == 1`` and keeps the 1D-flavoured ``x``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.tensor import SemND
from repro.util.errors import SolverError
from repro.util.validation import require


class Sem1D(SemND):
    """Assembled order-``order`` SEM on a conforming 1D interval mesh.

    DOF numbering is entity-based: the mesh's corner nodes keep their
    ids, then each element's ``order - 1`` interior nodes follow in
    element order — so ``x`` is *not* sorted; ``element_dofs[e]`` lists
    element ``e``'s nodes left to right.

    ``material=`` (a :class:`repro.sem.materials.IsotropicAcoustic`)
    enables variable-density acoustics (``rho`` per element, scalars
    broadcast); the default is the mesh's wave speed ``mesh.c`` at unit
    density.
    """

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material=None,
    ):
        require(mesh.dim == 1, "Sem1D requires a 1D mesh", SolverError)
        super().__init__(mesh, order=order, dirichlet=dirichlet, material=material)

    @property
    def x(self) -> np.ndarray:
        """Node coordinates ``(n_dof,)`` (alias of ``node_coords[:, 0]``)."""
        return self.node_coords[:, 0]
