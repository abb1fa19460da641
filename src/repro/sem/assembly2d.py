"""2D spectral-element assembly for the scalar (acoustic) wave equation.

Solves ``u_tt = div(c^2 grad u)`` on a conforming mesh of axis-aligned
rectangular elements with a per-element wave speed.  Continuous elements
share GLL nodes across faces/edges/corners exactly as in SPECFEM3D, which
is what makes LTS coupling non-trivial (paper Sec. II-C): a stiffness
application on level-``k`` elements touches neighbouring coarse nodes (the
"gray halo" of Fig. 2).

Velocity contrast on a uniform grid produces multi-level LTS assignments
without geometric refinement: with ``dt ~ h/c``, a *high*-velocity
inclusion forces a small local step (equivalently, everything outside a
slow basin may step coarsely).  This powers the 2D LTS integration tests
and examples.

All machinery — entity-based numbering via ``np.unique`` over sorted
corner tuples, per-axis reference kernels, chunked vectorized CSR
assembly, mass lumping, Dirichlet masking — lives in the
dimension-generic :class:`repro.sem.tensor.SemND` base; this class only
pins ``dim == 2`` and keeps the 2D-flavoured conveniences (``xy``,
``interpolate(f(x, y))``).  The assembled ``A`` is one of two
interchangeable stiffness backends — see :meth:`SemND.operator` and
:mod:`repro.sem.matfree`.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.tensor import SemND
from repro.util.errors import SolverError
from repro.util.validation import require


class Sem2D(SemND):
    """Assembled order-``order`` SEM on a conforming 2D quad mesh.

    DOF numbering is entity-based (corners, then edge interiors, then
    element interiors), so any conforming mesh — not just structured grids
    — assembles correctly, with shared edge nodes oriented consistently.

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
        require(mesh.dim == 2, "Sem2D requires a 2D mesh", SolverError)
        super().__init__(mesh, order=order, dirichlet=dirichlet, material=material)

    @property
    def xy(self) -> np.ndarray:
        """Node coordinates ``(n_dof, 2)`` (alias of ``node_coords``)."""
        return self.node_coords
