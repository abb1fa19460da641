"""Spectral-element method (SEM) substrate.

The paper implements LTS-Newmark inside SPECFEM3D, whose defining
properties are (i) nodal Lagrange basis on Gauss-Legendre-Lobatto (GLL)
points, (ii) Gauss quadrature on the same points giving a *diagonal* mass
matrix (so ``M^{-1}`` is trivial and explicit stepping works), and
(iii) continuous elements that *share* nodes — which is what makes the
LTS level coupling delicate (Sec. II-C).

This package reproduces that algebraic structure in pure NumPy/SciPy:

* :mod:`repro.sem.gll` — GLL points, weights, Lagrange derivative matrix;
* :mod:`repro.sem.tensor` — the dimension-generic tensor-product core:
  reference kernels, entity-based DOF numbering (with
  orientation-consistent 3D faces), and the :class:`~repro.sem.tensor
  .SemND` assembler base every line/quad/hex assembler derives from;
* :mod:`repro.sem.assembly1d` — 1D SEM on arbitrary interval meshes
  (the geometrically refined meshes of the LTS tests), ``SemND`` pinned
  to ``dim == 1``;
* :mod:`repro.sem.assembly2d` — 2D SEM on conforming quad meshes with a
  per-element velocity field (velocity contrast creates LTS levels on
  uniform grids: high-velocity inclusions force locally small steps);
* :mod:`repro.sem.assembly3d` — 3D SEM on conforming hexahedral meshes:
  the paper's benchmark mesh families are hexahedral, and 3D is where
  the matrix-free backend wins asymptotically (O(n^4) vs O(n^6));
* :mod:`repro.sem.materials` — the constitutive layer: the
  :class:`~repro.sem.materials.Material` hierarchy
  (:class:`~repro.sem.materials.IsotropicAcoustic` with variable
  density, :class:`~repro.sem.materials.IsotropicElastic`,
  :class:`~repro.sem.materials.AnisotropicElastic` with Voigt
  stiffness validation and Christoffel wave speeds) every assembler
  resolves its parameters through;
* :mod:`repro.sem.elastic2d` / :mod:`repro.sem.elastic3d` — the paper's
  actual physics (elastic wave equation, Eqs. (1)-(2)) on the shared
  :class:`~repro.sem.tensor.ElasticSemND` core: ``dim`` displacement
  components per node, per-element Lamé parameters, P/S speeds for
  Eq.-(7) LTS level assignment;
* :mod:`repro.sem.anisotropic` — general anisotropic elastic SEM
  (arbitrary per-element Voigt ``C``) on the same core, with LTS levels
  driven by the Christoffel maximal velocity;
* :mod:`repro.sem.sources` — Ricker wavelets and point sources;
* :mod:`repro.sem.energy` — discrete energy for conservation tests;
* :mod:`repro.sem.matfree` — matrix-free (sum-factorization) stiffness
  backend: batched gather -> tensor contraction -> scatter-add, with
  per-level element-subset restriction for LTS;
* :mod:`repro.sem.fused` — optional fused C element kernels behind the
  matrix-free backend (auto-detected, NumPy fallback).
"""

from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix, lagrange_basis
from repro.sem.materials import (
    AnisotropicElastic,
    IsotropicAcoustic,
    IsotropicElastic,
    Material,
    hexagonal_stiffness,
    isotropic_stiffness,
)
from repro.sem.tensor import ElasticSemND, SemND
from repro.sem.anisotropic import AnisotropicElasticSemND
from repro.sem.assembly1d import Sem1D
from repro.sem.assembly2d import Sem2D
from repro.sem.assembly3d import Sem3D
from repro.sem.elastic2d import ElasticSem2D
from repro.sem.elastic3d import ElasticSem3D
from repro.sem.matfree import MatrixFreeStiffness, kernel_from_spec, stiffness_share
from repro.sem.sources import ricker, point_source
from repro.sem.energy import discrete_energy
from repro.sem import fused, materials

__all__ = [
    "gll_points_weights",
    "lagrange_derivative_matrix",
    "lagrange_basis",
    "Material",
    "IsotropicAcoustic",
    "IsotropicElastic",
    "AnisotropicElastic",
    "isotropic_stiffness",
    "hexagonal_stiffness",
    "SemND",
    "ElasticSemND",
    "AnisotropicElasticSemND",
    "Sem1D",
    "Sem2D",
    "Sem3D",
    "ElasticSem2D",
    "ElasticSem3D",
    "MatrixFreeStiffness",
    "kernel_from_spec",
    "stiffness_share",
    "ricker",
    "point_source",
    "discrete_energy",
    "fused",
    "materials",
]
