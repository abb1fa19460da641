"""3D hexahedral spectral-element assembly for the acoustic wave equation.

This is the paper's actual workload class: the four benchmark mesh
families (trench, embedding, crust, trench-big; Fig. 4/5) are hexahedral
meshes, and Sec. II-C's unassembled implementation lives inside SPECFEM3D.
:class:`Sem3D` discretizes ``u_tt = div(c^2 grad u)`` on conforming
meshes of axis-aligned box (hexahedral) elements with a per-element wave
speed, with free-surface (natural) boundaries by default and optional
Dirichlet masking.

Everything is inherited from the dimension-generic
:class:`repro.sem.tensor.SemND` core: entity-based numbering (corners,
edge interiors, *orientation-consistent* face interiors, element
interiors), lumped diagonal mass, chunked vectorized CSR assembly from
the three per-axis reference kernels, and the backend-pluggable
:meth:`SemND.operator`.  The matrix-free backend applies the element
stiffness as three per-axis batched contractions
(:class:`repro.sem.matfree.AcousticKernelND`) — O(n^4) work per element
against the O(n^6) of a dense element matvec, which is where
sum-factorization pays off asymptotically.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.tensor import SemND
from repro.util.errors import SolverError
from repro.util.validation import require


class Sem3D(SemND):
    """Assembled order-``order`` SEM on a conforming 3D hexahedral mesh.

    DOF numbering is entity-based (corners, then edge interiors, then
    face interiors, then element interiors); shared faces are numbered
    through a canonical corner-id frame so any conforming hex mesh — not
    just structured grids — assembles correctly.

    ``material=`` (a :class:`repro.sem.materials.IsotropicAcoustic`)
    enables variable-density acoustics (``rho`` per element, scalars
    broadcast): the operator becomes ``rho u_tt = div(rho c^2 grad u)``;
    the default is the mesh's wave speed ``mesh.c`` at unit density.
    """

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material=None,
    ):
        require(mesh.dim == 3, "Sem3D requires a 3D mesh", SolverError)
        super().__init__(mesh, order=order, dirichlet=dirichlet, material=material)

    @property
    def xyz(self) -> np.ndarray:
        """Node coordinates ``(n_dof, 3)`` (alias of ``node_coords``)."""
        return self.node_coords
