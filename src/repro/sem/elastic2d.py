"""2D P-SV elastic spectral elements (the paper's Eqs. (1)-(2)).

All physics machinery — the component-interleaved DOF layout, the
kron-form reference kernels (per-axis stiffness plus the shear coupling
``C = (Dm^T w) (x) (w Dm)``), per-element Lamé scaling, P/S wave speeds
— lives in the dimension-generic :class:`repro.sem.tensor.ElasticSemND`
base; this class only pins ``dim == 2`` and keeps the 2D-flavoured
conveniences (``xy``, ``nearest_dof(x0, y0, comp)``).

On axis-aligned rectangles the element blocks reduce to the classic
four-kernel form::

    Kxx = (l+2m)(hy/hx) K1 + m (hx/hy) K2      K1 = KxX (x) Wd
    Kyy = (l+2m)(hx/hy) K2 + m (hy/hx) K1      K2 = Wd (x) KxX
    Kxy = l C + m C^T,   Kyx = Kxy^T           C  = (Dm^T w) (x) (w Dm)

(the 2D specialization of the generic per-axis-pair blocks — the shear
coupling is geometry-free only in 2D).  The mass matrix stays diagonal
(GLL collocation), so ``A = M^{-1} K`` plugs into every solver in
:mod:`repro.core` and the distributed runtime unchanged — including
multi-level LTS, whose levels come from the per-element *P-wave* speed
exactly as in Eq. (7).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.tensor import ElasticSemND
from repro.util.errors import SolverError
from repro.util.validation import require


class ElasticSem2D(ElasticSemND):
    """Order-``order`` P-SV elastic SEM on a conforming 2D quad mesh.

    Parameters
    ----------
    mesh:
        Axis-aligned rectangular quad mesh; ``mesh.c`` is *ignored* for
        material properties (use ``material``) — see
        :meth:`ElasticSemND.p_velocity` for LTS level assignment.
    material:
        A :class:`repro.sem.materials.IsotropicElastic`: per-element
        Lamé parameters and density (scalars broadcast); the default is
        ``lam = mu = rho = 1``.

    DOF layout: component-interleaved, ``2*node + comp`` with comp 0 = x,
    1 = y; scalar node numbering (and therefore halo construction and
    ``element_dofs`` shape conventions) is shared with :class:`Sem2D`.
    """

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material=None,
    ):
        require(mesh.dim == 2, "ElasticSem2D requires a 2D mesh", SolverError)
        super().__init__(mesh, order=order, dirichlet=dirichlet, material=material)

    @property
    def xy(self) -> np.ndarray:
        """Scalar-node coordinates ``(n_scalar, 2)`` (alias of
        ``node_coords``)."""
        return self.node_coords
