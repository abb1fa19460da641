"""Courant-Friedrichs-Lewy stability condition (paper Eq. (7)).

The global explicit-Newmark step is limited by the smallest ``h_i / c_i``
ratio over the mesh, so a single pinched element throttles the whole
simulation -- the bottleneck LTS removes.

For a high-order SEM the relevant mesh width is not the element size but
the smallest Gauss-Lobatto sub-spacing inside the element, which shrinks
like ``O(h / order^2)`` toward element boundaries.  ``c_cfl`` absorbs the
scheme constant; ``order`` folds in the GLL clustering so the same
``c_cfl`` works across polynomial orders.  For exact spectral bounds use
:func:`stable_timestep_from_operator`, which works on assembled sparse
matrices *and* matrix-free operators: the power-iteration path needs
nothing but the operator action ``A @ u``, dropping the last hard
dependency on an assembled ``A`` for very large meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.mesh.mesh import Mesh
from repro.sem.gll import gll_points_weights
from repro.util.errors import SolverError
from repro.util.validation import check_positive, require


def gll_spacing_factor(order: int) -> float:
    """Smallest GLL gap on ``[-1, 1]`` divided by the full width 2.

    ``order = 1`` gives 1.0 (the element width itself); order 4 gives
    ~0.173, which is why high-order SEM steps are several times smaller
    than the element-size estimate suggests.
    """
    require(order >= 1, f"order must be >= 1, got {order}", SolverError)
    if order == 1:
        return 1.0
    pts, _ = gll_points_weights(order)
    return float(np.min(np.diff(pts)) / 2.0)


def resolve_material_velocity(
    order: int | None,
    velocity: np.ndarray | None,
    assembler,
) -> tuple[int, np.ndarray | None]:
    """Resolve the ``(order, velocity)`` pair of the Eq.-(7) helpers.

    ``assembler=`` is the material-aware convenience: any
    :class:`repro.sem.tensor.SemND` assembler exposes
    ``max_velocity()`` — the maximal wave speed of its material
    (acoustic ``c``, elastic P speed, anisotropic Christoffel quasi-P
    maximum) — and its polynomial ``order``, so callers never copy the
    "pass ``velocity=...``" incantation.  Explicit ``velocity=`` and
    ``order=`` remain available (``order`` overrides the assembler's).
    """
    if assembler is not None:
        require(
            velocity is None,
            "pass either assembler= or velocity=, not both",
            SolverError,
        )
        require(
            hasattr(assembler, "max_velocity"),
            "assembler must expose max_velocity() (any repro.sem assembler does)",
            SolverError,
        )
        velocity = np.asarray(assembler.max_velocity(), dtype=np.float64)
        if order is None:
            order = int(assembler.order)
    return (1 if order is None else int(order)), velocity


def stable_timestep_per_element(
    mesh: Mesh,
    c_cfl: float = 0.5,
    order: int | None = None,
    velocity: np.ndarray | None = None,
    assembler=None,
) -> np.ndarray:
    """Per-element maximal stable step ``C_CFL * s(order) * h_i / c_i``.

    ``velocity`` overrides ``mesh.c`` as the per-element wave speed;
    ``assembler=`` pulls it (and the polynomial order, unless ``order``
    is given) from the assembler's material instead — the paper's
    Eq. (7) drives LTS levels with the maximal material speed (P wave
    for elastic media, Christoffel quasi-P for anisotropic ones).
    ``order`` defaults to 1 when neither is given.
    """
    check_positive(c_cfl, "c_cfl", SolverError)
    order, velocity = resolve_material_velocity(order, velocity, assembler)
    if velocity is None:
        dt_local = mesh.dt_local
    else:
        velocity = np.asarray(velocity, dtype=np.float64)
        require(
            velocity.shape == (mesh.n_elements,),
            "velocity must be (n_elements,)",
            SolverError,
        )
        require(bool(np.all(velocity > 0)), "velocity must be > 0", SolverError)
        dt_local = mesh.h / velocity
    return c_cfl * gll_spacing_factor(order) * dt_local


def cfl_timestep(
    mesh: Mesh,
    c_cfl: float = 0.5,
    order: int | None = None,
    velocity: np.ndarray | None = None,
    assembler=None,
) -> float:
    """Global CFL step (Eq. (7)): ``C_CFL * s(order) * min_i(h_i / c_i)``.

    This is the step a non-LTS explicit scheme must take everywhere.
    ``assembler=`` pulls the per-element wave speed (and order) from the
    assembler's material — see :func:`stable_timestep_per_element`.
    """
    return float(
        stable_timestep_per_element(
            mesh, c_cfl, order, velocity=velocity, assembler=assembler
        ).min()
    )


def operator_spectral_radius(
    A, tol: float = 1e-12, maxiter: int = 20_000, seed: int = 0
) -> float:
    """Largest eigenvalue of ``A = M^{-1} K`` by power iteration.

    Needs only the operator action ``A @ u``, so it runs on any
    :class:`repro.core.operator.StiffnessOperator` — in particular the
    matrix-free backend, where no matrix ever exists.  ``A`` is similar
    to a symmetric positive-semidefinite matrix (``M^{1/2} A M^{-1/2}``
    is symmetric), so its spectrum is real and power iteration converges
    on the largest eigenvalue; a possibly degenerate top eigenvalue is
    fine (the iterate converges inside the top eigenspace).  The
    Rayleigh-type quotient ``x.(Ax)/x.x`` converges at the square of the
    iterate rate, and iteration stops when its relative change falls
    below ``tol``.  Raises when ``maxiter`` is exhausted first: an
    unconverged estimate *under*-states ``lambda_max`` and would turn
    into an unstable time step downstream.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam_old = np.inf
    for _ in range(maxiter):
        y = A @ x
        lam = float(x @ y)
        ny = np.linalg.norm(y)
        if ny == 0.0:  # A x = 0: x fell in the nullspace
            return 0.0
        x = y / ny
        if abs(lam - lam_old) <= tol * max(abs(lam), 1e-300):
            return lam
        lam_old = lam
    raise SolverError(
        f"power iteration did not converge to rel tol {tol:g} in {maxiter} "
        "iterations (clustered top eigenvalues?); raise maxiter or tol"
    )


def stable_timestep_from_operator(
    A,
    safety: float = 0.95,
    method: str = "auto",
    tol: float = 1e-12,
    maxiter: int = 20_000,
) -> float:
    """Sharp leap-frog stability bound ``dt < 2 / sqrt(lambda_max(A))``.

    This is the exact criterion the heuristic ``c_cfl`` approximates;
    the tests use it to pick provably stable steps on refined meshes.

    Parameters
    ----------
    A:
        The stiffness operator ``M^{-1} K``: a scipy sparse matrix,
        dense array, or any :class:`repro.core.operator
        .StiffnessOperator` (assembled or matrix-free).
    safety:
        Fraction of the exact bound to return.
    method:
        ``"eigs"`` — dense/Lanczos eigensolver on the assembled matrix
        (requires one); ``"power"`` — matrix-free power iteration on the
        operator action (:func:`operator_spectral_radius`), no matrix
        needed; ``"auto"`` — ``"eigs"`` when ``A`` is (or wraps) an
        assembled matrix, else ``"power"``.
    tol, maxiter:
        Power-iteration stopping parameters (ignored by ``"eigs"``).
        Operators with a *small but nonzero* top-eigenvalue gap — e.g.
        strongly anisotropic media — converge slowly; loosen ``tol``
        (the estimate errs by about ``sqrt(tol / gap)`` relative) and
        raise ``maxiter`` there, and keep ``safety`` below 1 to absorb
        the residual under-estimate of ``lambda_max``.
    """
    check_positive(safety, "safety", SolverError)
    require(safety <= 1.0, "safety must be <= 1", SolverError)
    require(method in ("auto", "eigs", "power"), f"unknown method {method!r}", SolverError)
    # Unwrap AssembledOperator and friends: anything exposing a sparse
    # ``.A`` wraps an assembled matrix.
    mat = None
    if sp.issparse(A) or isinstance(A, np.ndarray):
        mat = A
    elif sp.issparse(getattr(A, "A", None)):
        mat = A.A
    if method == "auto":
        method = "eigs" if mat is not None else "power"

    if method == "power":
        lam = operator_spectral_radius(A, tol=tol, maxiter=maxiter)
    else:
        require(mat is not None, "method='eigs' needs an assembled matrix", SolverError)
        mat = sp.csr_matrix(mat)
        n = mat.shape[0]
        if n <= 64:
            lam = float(np.max(np.real(np.linalg.eigvals(mat.toarray()))))
        else:
            lam = float(
                np.real(
                    spla.eigs(mat, k=1, which="LM", return_eigenvectors=False, maxiter=5000)[0]
                )
            )
    require(lam > 0, "operator has no positive spectrum; is A = M^-1 K?", SolverError)
    return safety * 2.0 / np.sqrt(lam)
