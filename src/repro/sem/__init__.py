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
  orientation-consistent 3D faces), the acoustic assembler
  :class:`~repro.sem.tensor.SemND` (1D intervals, 2D quads, 3D hexahedra;
  velocity contrast creates LTS levels on uniform grids) and the
  isotropic elastic :class:`~repro.sem.tensor.ElasticSemND` — the
  paper's actual physics (Eqs. (1)-(2)): ``dim`` displacement
  components per node, per-element Lamé parameters, P speeds for
  Eq.-(7) LTS level assignment;
* :mod:`repro.sem.anisotropic` — general anisotropic elastic SEM
  (arbitrary per-element Voigt ``C``) on the same core, with LTS levels
  driven by the Christoffel maximal velocity;
* :mod:`repro.sem.materials` — the constitutive layer: the
  :class:`~repro.sem.materials.Material` hierarchy
  (:class:`~repro.sem.materials.IsotropicAcoustic` with variable
  density, :class:`~repro.sem.materials.IsotropicElastic`,
  :class:`~repro.sem.materials.AnisotropicElastic` with Voigt
  stiffness validation and Christoffel wave speeds) every assembler
  resolves its parameters through;
* :mod:`repro.sem.sources` — Ricker wavelets and point sources;
* :mod:`repro.sem.energy` — discrete energy for conservation tests;
* :mod:`repro.sem.matfree` — matrix-free (sum-factorization) stiffness
  backend: batched gather -> tensor contraction -> scatter-add, with
  per-level element-subset restriction for LTS; each of the three
  physics assemblers above, generic over dimension, builds its own
  element kernel for it (``kernel(ids=None)``);
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
from repro.sem.matfree import MatrixFreeStiffness, stiffness_share
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
    "MatrixFreeStiffness",
    "stiffness_share",
    "ricker",
    "point_source",
    "discrete_energy",
    "fused",
    "materials",
]
