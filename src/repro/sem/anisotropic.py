"""General anisotropic elastic spectral elements (arbitrary Voigt ``C``).

Production SEM codes in the SPECFEM3D lineage treat general stiffness
tensors as table stakes; this module brings the reproduction to parity:
:class:`AnisotropicElasticSemND` discretizes ``rho u_tt = div(C : grad
u)`` for a per-element Voigt stiffness ``C`` (3x3 in 2D plane strain,
6x6 in 3D) on conforming meshes of axis-aligned box elements, generic
over dimension.

On an axis-aligned box the element operator is a per-element scalar
combination of *geometry-free* reference contractions.  The matrix-free
operator applies it in SPECFEM's stress form
(:class:`repro.sem.matfree.AnisotropicKernelND`, built by
:meth:`AnisotropicElasticSemND.kernel`): the gradients ``G_b u_d``, the
pointwise stress ``S_ca = W sum_db c_cadb g_ab G_b u_d`` with the rank-4
tensor ``c_cadb`` of the material
(:meth:`repro.sem.materials.AnisotropicElastic.stiffness_tensor`) and
the axis-pair geometry scales ``g_ab``
(:func:`repro.sem.tensor.elastic_pair_scales`), then the weighted
divergence ``sum_a G_a^T S_ca``.  The isotropic elastic operator
(:class:`~repro.sem.tensor.ElasticSemND`) is this kernel fed the
isotropic tensor.  The assembled block form the stress form reduces to
is the tests' CSR oracle's (``tests/oracles/csr.py``).  LTS level
restriction, rank-local stiffness and the distributed executors work
unchanged.

LTS levels follow the *Christoffel* maximal velocity: pass the
assembler as ``assembler=`` to :func:`repro.core.levels.assign_levels`
(Eq. (7) with the quasi-P speed).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.materials import AnisotropicElastic
from repro.sem.matfree import AnisotropicKernelND
from repro.sem.tensor import SemND, VectorSemMixin, _rows
from repro.util.errors import SolverError
from repro.util.validation import require


class AnisotropicElasticSemND(VectorSemMixin, SemND):
    """Order-``order`` anisotropic elastic SEM on a conforming quad/hex
    mesh of axis-aligned box elements.

    Parameters
    ----------
    mesh:
        2D quad or 3D hexahedral mesh; ``mesh.c`` is ignored for
        material properties.
    C:
        Voigt stiffness, ``(nv, nv)`` or ``(n_elements, nv, nv)`` with
        ``nv = 3`` (2D) / ``6`` (3D) — validated for symmetry and
        positive definiteness.  Alternatively pass a full
        :class:`repro.sem.materials.AnisotropicElastic` as ``material=``.
    rho:
        Per-element density (scalars broadcast).
    dirichlet:
        Clamp all components on the domain boundary; the default is the
        free-surface (natural) condition.

    ``C`` and ``rho`` are read back through ``self.material``.  DOF
    layout: component-interleaved ``dim * node + comp``, identical to
    :class:`~repro.sem.tensor.ElasticSemND`'s, so rank layouts, halo exchange
    and LTS level restriction treat it like any other physics.
    """

    material_cls = AnisotropicElastic

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        C=None,
        rho=None,
        dirichlet: bool = False,
        material: AnisotropicElastic | None = None,
    ):
        require(mesh.dim in (2, 3), "anisotropic SEM requires dim in (2, 3)", SolverError)
        if material is None:
            require(C is not None, "pass C= (Voigt stiffness) or material=", SolverError)
            material = AnisotropicElastic(C, rho=1.0 if rho is None else rho)
        else:
            require(
                C is None and rho is None,
                "pass either material= or C=/rho=, not both",
                SolverError,
            )
            require(
                isinstance(material, self.material_cls),
                f"{type(self).__name__} needs a {self.material_cls.__name__} material",
                SolverError,
            )
        require(
            material.dim == mesh.dim,
            f"Voigt stiffness is {material.dim}D but the mesh is {mesh.dim}D",
            SolverError,
        )
        self.material = material.expand(mesh.n_elements)
        super().__init__(mesh, order=order, dirichlet=dirichlet)

    # -- hooks ----------------------------------------------------------
    def _n_components(self) -> int:
        return self.mesh.dim

    def _setup_physics(self) -> None:
        pass  # C/rho are validated by the material before super()

    def kernel(self, ids: np.ndarray | None = None) -> AnisotropicKernelND:
        sl = _rows(ids)
        return AnisotropicKernelND(self.order, self.material.C[sl], self.h_axes[sl])

    # -- wave speeds ----------------------------------------------------
    def wave_speeds(self, directions: np.ndarray | None = None) -> np.ndarray:
        """Per-element Christoffel phase speeds along ``directions``
        (see :meth:`repro.sem.materials.AnisotropicElastic.wave_speeds`)."""
        return self.material.wave_speeds(directions)

    # max_velocity (the Christoffel maximal quasi-P speed driving CFL
    # and LTS levels) is inherited from SemND via the material; the
    # vector-field conveniences come from VectorSemMixin.
