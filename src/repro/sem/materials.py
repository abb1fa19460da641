"""Material models: parameter storage, validation, and wave speeds.

Every SEM assembler in :mod:`repro.sem` discretizes *some* constitutive
law; this module owns the constitutive side — which parameters exist,
how scalars broadcast to per-element arrays, what is physically
admissible, and what the relevant wave speeds are — so the assemblers
(:class:`repro.sem.tensor.SemND` and subclasses) consume a single
:class:`Material` object instead of loose constructor kwargs:

* :class:`IsotropicAcoustic` — scalar pressure/displacement physics with
  a per-element wave speed ``c`` and (optionally variable) density
  ``rho``; the stiffness modulus is ``kappa = rho c^2`` so the operator
  discretizes ``rho u_tt = div(kappa grad u)`` and the wave speed stays
  ``c`` under heterogeneous density;
* :class:`IsotropicElastic` — Lamé parameters ``lam``/``mu`` and density
  ``rho`` (paper Eqs. (1)-(2)); ``mu = 0`` is allowed so fluid
  (acoustic-limit) elements are representable inside elastic meshes;
* :class:`AnisotropicElastic` — a per-element *Voigt* stiffness tensor
  ``C`` (3x3 in 2D plane strain, 6x6 in 3D) with symmetry and
  positive-definiteness validation, full-tensor conversion, Bond-free
  rotation (rotate the rank-4 tensor directly), and Christoffel-matrix
  wave speeds.  :meth:`AnisotropicElastic.max_velocity` is the maximal
  quasi-P speed over a deterministic direction sweep — the ``c_i`` that
  drives CFL and LTS p-level assignment (paper Eq. (7)) for general
  anisotropy.

Materials are built with scalars or arrays and resolved against a mesh
with :meth:`Material.expand`, which broadcasts every parameter to
``(n_elements, ...)``; validation runs on the *raw* (unbroadcast)
arrays, so checking a constant stiffness tensor costs one eigensolve no
matter how many elements share it.

Voigt convention (stiffness — no factor-of-two bookkeeping is needed for
the stiffness matrix itself): 2D pairs ``(xx, yy, xy)``; 3D pairs
``(xx, yy, zz, yz, xz, xy)``.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import SolverError
from repro.util.validation import require

#: Voigt index -> (axis, axis) pair, per dimension (stiffness ordering).
VOIGT_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}

#: Dimension -> number of Voigt components.
VOIGT_SIZE = {2: 3, 3: 6}

#: Relative tolerance for the stiffness-tensor symmetry check.
_SYM_RTOL = 1e-12


def voigt_index_map(dim: int) -> np.ndarray:
    """``(dim, dim)`` array mapping an (unordered) axis pair to its
    Voigt index: ``I[a, b] = I[b, a]``."""
    require(dim in VOIGT_PAIRS, f"Voigt notation needs dim in (2, 3), got {dim}", SolverError)
    idx = np.empty((dim, dim), dtype=np.int64)
    for I, (a, b) in enumerate(VOIGT_PAIRS[dim]):
        idx[a, b] = idx[b, a] = I
    return idx


def voigt_to_tensor(C: np.ndarray, dim: int) -> np.ndarray:
    """Rank-4 stiffness ``c[..., i, j, k, l] = C[..., I(ij), J(kl)]``.

    Stiffness Voigt matrices carry no factor-of-two corrections (those
    belong to the *compliance*/strain side), so the map is a pure index
    expansion; minor symmetries are implied by the shared Voigt index.
    """
    C = np.asarray(C, dtype=np.float64)
    idx = voigt_index_map(dim)
    return C[..., idx[:, :, None, None], idx[None, None, :, :]]


def tensor_to_voigt(c4: np.ndarray, dim: int) -> np.ndarray:
    """Voigt stiffness from a rank-4 tensor (inverse of
    :func:`voigt_to_tensor`, sampling one representative per pair)."""
    c4 = np.asarray(c4, dtype=np.float64)
    pairs = VOIGT_PAIRS[dim]
    nv = len(pairs)
    out = np.empty(c4.shape[:-4] + (nv, nv))
    for I, (i, j) in enumerate(pairs):
        for J, (k, l) in enumerate(pairs):
            out[..., I, J] = c4[..., i, j, k, l]
    return out


def isotropic_stiffness(lam, mu, dim: int) -> np.ndarray:
    """Isotropic Voigt stiffness ``C_ijkl = lam d_ij d_kl + mu (d_ik d_jl
    + d_il d_jk)`` — scalars give ``(nv, nv)``, arrays ``(n, nv, nv)``."""
    lam = np.asarray(lam, dtype=np.float64)[..., None, None]
    mu = np.asarray(mu, dtype=np.float64)[..., None, None]
    pairs = np.array(VOIGT_PAIRS[dim])
    i, j = pairs[:, 0, None], pairs[:, 1, None]  # each row's axis pair
    k, l = pairs[None, :, 0], pairs[None, :, 1]  # each column's
    mu_count = ((i == k) & (j == l)).astype(np.int64) + ((i == l) & (j == k))
    return lam * ((i == j) & (k == l)) + mu * mu_count


def hexagonal_stiffness(c11, c33, c13, c44, c66) -> np.ndarray:
    """6x6 Voigt stiffness of a hexagonal (transversely isotropic)
    medium with the symmetry axis along *z* (VTI).

    The five independent constants are the usual ``c11, c33, c13, c44,
    c66`` (with ``c12 = c11 - 2 c66``); tilt the symmetry axis by
    rotating the resulting :class:`AnisotropicElastic` (TTI).
    """
    c12 = c11 - 2.0 * c66
    C = np.array(
        [
            [c11, c12, c13, 0.0, 0.0, 0.0],
            [c12, c11, c13, 0.0, 0.0, 0.0],
            [c13, c13, c33, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, c44, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, c44, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, c66],
        ]
    )
    return C


def rotate_voigt(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Voigt stiffness under the coordinate rotation ``R`` (a proper
    orthogonal ``(dim, dim)`` matrix): the rank-4 tensor transforms as
    ``c'_ijkl = R_ia R_jb R_kc R_ld c_abcd`` — no Bond-matrix
    bookkeeping, the factor-free stiffness Voigt map commutes with it.
    """
    R = np.asarray(R, dtype=np.float64)
    dim = R.shape[0]
    require(R.shape == (dim, dim), "R must be square", SolverError)
    require(
        bool(np.allclose(R @ R.T, np.eye(dim), atol=1e-12))
        and abs(float(np.linalg.det(R)) - 1.0) < 1e-12,
        "R must be a proper rotation (orthogonal, det +1)",
        SolverError,
    )
    c4 = voigt_to_tensor(C, dim)
    c4r = np.einsum("ia,jb,kc,ld,...abcd->...ijkl", R, R, R, R, c4, optimize=True)
    return tensor_to_voigt(c4r, dim)


def rotation_about_y(angle: float) -> np.ndarray:
    """3D rotation by ``angle`` (radians) about the y axis — the usual
    way to tilt a VTI symmetry axis in the (x, z) plane (TTI)."""
    c, s = float(np.cos(angle)), float(np.sin(angle))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def unit_directions(dim: int, n: int | None = None) -> np.ndarray:
    """Deterministic unit-direction sweep ``(n_dirs, dim)`` for
    Christoffel extremal-speed searches.

    2D: ``n`` equally spaced angles over a half turn (default 180).
    3D: a Fibonacci hemisphere of ``n`` points (default 256) plus the
    coordinate axes.  Wave speeds are even in the direction, so half
    coverage suffices.
    """
    require(dim in (2, 3), f"directions need dim in (2, 3), got {dim}", SolverError)
    if dim == 2:
        n = 180 if n is None else int(n)
        th = np.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    n = 256 if n is None else int(n)
    k = np.arange(n) + 0.5
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    z = k / n  # upper hemisphere
    r = np.sqrt(1.0 - z * z)
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return np.concatenate([dirs, np.eye(3)], axis=0)


class Material:
    """Base class of the constitutive hierarchy.

    A material owns its parameter arrays (scalars or per-element),
    validates them once at construction, and broadcasts them against a
    mesh with :meth:`expand`.  Subclasses declare:

    * ``_fields`` — the parameter attribute names (with their trailing
      shapes) that :meth:`expand` broadcasts to ``(n_elements, ...)``;
    * :meth:`density` and :meth:`max_velocity` — the two quantities the
      generic machinery needs: mass lumping and CFL/LTS level assignment
      (the per-element ``c_i`` of paper Eq. (7)).
    """

    #: attribute name -> trailing shape (() for scalars-per-element).
    _fields: dict[str, tuple[int, ...]] = {}

    def expand(self, n_elements: int) -> "Material":
        """A copy with every parameter broadcast to ``(n_elements, ...)``.

        Validation already ran on the raw arrays at construction; the
        broadcast is shape-only, so expanding a constant material is
        O(n_elements) memory but O(1) validation work.
        """
        require(n_elements >= 1, "n_elements must be >= 1", SolverError)
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        for name, trailing in self._fields.items():
            a = getattr(self, name)
            target = (int(n_elements),) + trailing
            require(
                a.shape in (target, trailing),
                f"{name} has shape {a.shape}, expected {trailing} or {target}",
                SolverError,
            )
            setattr(out, name, np.broadcast_to(a, target).copy())
        return out

    @property
    def n_elements(self) -> int | None:
        """Element count once expanded, ``None`` for a constant material."""
        first = next(iter(self._fields))
        a = getattr(self, first)
        trailing = self._fields[first]
        return None if a.shape == trailing else int(a.shape[0])

    def density(self) -> np.ndarray:
        """Per-element mass density ``rho``."""
        raise NotImplementedError

    def max_velocity(self) -> np.ndarray:
        """Per-element maximal wave speed — the ``c_i`` of Eq. (7) that
        CFL estimates and LTS p-level assignment must use."""
        raise NotImplementedError


class IsotropicAcoustic(Material):
    """Variable-density acoustic medium: wave speed ``c``, density ``rho``.

    The discretized equation is ``rho u_tt = div(kappa grad u)`` with
    the modulus ``kappa = rho c^2``, so ``c`` remains the propagation
    speed under heterogeneous density (and ``rho = 1`` reduces
    bit-identically to the classical ``u_tt = div(c^2 grad u)``).
    """

    _fields = {"c": (), "rho": ()}

    def __init__(self, c, rho=1.0):
        self.c = np.asarray(c, dtype=np.float64)
        self.rho = np.asarray(rho, dtype=np.float64)
        require(bool(np.all(self.c > 0)), "c must be > 0", SolverError)
        require(bool(np.all(self.rho > 0)), "rho must be > 0", SolverError)

    def modulus(self) -> np.ndarray:
        """The stiffness modulus ``kappa = rho c^2``."""
        return self.rho * self.c**2

    def density(self) -> np.ndarray:
        return self.rho

    def max_velocity(self) -> np.ndarray:
        return self.c


class IsotropicElastic(Material):
    """Isotropic elastic medium: Lamé ``lam``/``mu``, density ``rho``.

    ``mu >= 0`` (not strictly positive): a zero shear modulus is the
    acoustic limit, so fluid elements are representable inside elastic
    meshes — their S speed is 0, and every CFL/LTS path must use the
    P speed (:meth:`max_velocity`), which stays positive.
    """

    _fields = {"lam": (), "mu": (), "rho": ()}

    def __init__(self, lam=1.0, mu=1.0, rho=1.0):
        self.lam = np.asarray(lam, dtype=np.float64)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.rho = np.asarray(rho, dtype=np.float64)
        require(bool(np.all(self.mu >= 0)), "mu must be >= 0", SolverError)
        require(bool(np.all(self.rho > 0)), "rho must be > 0", SolverError)
        require(
            bool(np.all(self.lam + 2 * self.mu > 0)),
            "lambda + 2mu must be > 0",
            SolverError,
        )

    def density(self) -> np.ndarray:
        return self.rho

    def p_velocity(self) -> np.ndarray:
        """Compressional speed ``sqrt((lam + 2 mu) / rho)``."""
        return np.sqrt((self.lam + 2 * self.mu) / self.rho)

    def s_velocity(self) -> np.ndarray:
        """Shear speed ``sqrt(mu / rho)`` (0 on fluid elements)."""
        return np.sqrt(self.mu / self.rho)

    def max_velocity(self) -> np.ndarray:
        return self.p_velocity()

    def as_anisotropic(self, dim: int) -> "AnisotropicElastic":
        """The same medium as a general Voigt stiffness (equivalence
        tests and mixed isotropic/anisotropic models)."""
        return AnisotropicElastic(isotropic_stiffness(self.lam, self.mu, dim), rho=self.rho)


class AnisotropicElastic(Material):
    """General (possibly fully anisotropic) elastic medium: a per-element
    Voigt stiffness tensor ``C`` and density ``rho``.

    ``C`` is ``(nv, nv)`` or ``(n_elements, nv, nv)`` with ``nv = 3``
    (2D plane strain) or ``6`` (3D).  Construction validates symmetry
    (then symmetrizes exactly, so downstream algebra sees a bitwise
    symmetric matrix) and positive definiteness — the conditions for a
    well-posed elastic operator with real wave speeds.

    Wave speeds come from the Christoffel matrix ``Gamma_ik(n) =
    C_ijkl n_j n_l / rho``: its eigenvalues are the squared phase speeds
    of the three (two in 2D) modes along ``n``.
    """

    _fields: dict[str, tuple[int, ...]] = {}  # set per instance (nv varies)

    def __init__(self, C, rho=1.0):
        C = np.asarray(C, dtype=np.float64)
        require(
            C.ndim in (2, 3) and C.shape[-1] == C.shape[-2] and C.shape[-1] in (3, 6),
            "C must be (nv, nv) or (n_elements, nv, nv) with nv in (3, 6)",
            SolverError,
        )
        nv = C.shape[-1]
        self.dim = 2 if nv == 3 else 3
        self.nv = nv
        self._fields = {"C": (nv, nv), "rho": ()}
        sym = 0.5 * (C + np.swapaxes(C, -1, -2))
        require(
            bool(
                np.allclose(C, sym, rtol=_SYM_RTOL, atol=_SYM_RTOL * max(1.0, float(np.abs(C).max())))
            ),
            "Voigt stiffness C must be symmetric",
            SolverError,
        )
        eig = np.linalg.eigvalsh(sym)
        require(
            bool(np.all(eig > 0)),
            "Voigt stiffness C must be positive definite",
            SolverError,
        )
        self.C = sym
        self.rho = np.asarray(rho, dtype=np.float64)
        require(bool(np.all(self.rho > 0)), "rho must be > 0", SolverError)

    def density(self) -> np.ndarray:
        return self.rho

    def stiffness_tensor(self) -> np.ndarray:
        """Rank-4 stiffness ``(..., dim, dim, dim, dim)`` (see
        :func:`voigt_to_tensor`)."""
        return voigt_to_tensor(self.C, self.dim)

    def rotate(self, R: np.ndarray) -> "AnisotropicElastic":
        """The same medium in rotated coordinates (e.g. a tilted TI
        symmetry axis); density is rotation-invariant."""
        return AnisotropicElastic(rotate_voigt(self.C, R), rho=self.rho)

    def christoffel(self, directions: np.ndarray) -> np.ndarray:
        """Density-normalized Christoffel matrices
        ``(..., n_dirs, dim, dim)`` for unit ``directions``."""
        n = np.asarray(directions, dtype=np.float64)
        require(
            n.ndim == 2 and n.shape[1] == self.dim,
            f"directions must be (n_dirs, {self.dim})",
            SolverError,
        )
        c4 = self.stiffness_tensor()
        gamma = np.einsum("...ijkl,dj,dl->...dik", c4, n, n, optimize=True)
        rho = self.rho[..., None, None, None] if self.rho.ndim else self.rho
        return gamma / rho

    def wave_speeds(self, directions: np.ndarray | None = None) -> np.ndarray:
        """Phase speeds ``(..., n_dirs, dim)`` (ascending: the quasi-S
        modes first, quasi-P last) along ``directions`` (default: the
        deterministic sweep of :func:`unit_directions`)."""
        if directions is None:
            directions = unit_directions(self.dim)
        lam = np.linalg.eigvalsh(self.christoffel(directions))
        return np.sqrt(np.maximum(lam, 0.0))

    def max_velocity(self, n_dirs: int | None = None) -> np.ndarray:
        """Maximal quasi-P speed over the deterministic direction sweep —
        the ``c_i`` for CFL and LTS p-level assignment (Eq. (7)).

        Exact for isotropic ``C`` (the Christoffel spectrum is direction
        independent); for general anisotropy the sweep's resolution
        bounds the (tiny, second-order) underestimate.
        """
        speeds = self.wave_speeds(unit_directions(self.dim, n_dirs))
        return np.asarray(speeds[..., -1].max(axis=-1))
