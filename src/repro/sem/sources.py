"""Seismic source-time functions and point-source helpers.

The canonical source in computational seismology is the Ricker wavelet
(second derivative of a Gaussian); a point source enters the weak form as
a delta, which on a nodal SEM basis is a single-DOF force scaled by the
inverse (diagonal) mass entry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.errors import SolverError
from repro.util.validation import check_positive


def ricker(f0: float, t0: float | None = None, amplitude: float = 1.0) -> Callable[[float], float]:
    """Ricker wavelet of peak frequency ``f0`` centred at ``t0``.

    ``t0`` defaults to ``1.2 / f0`` so the wavelet starts near zero at
    ``t = 0`` (standard practice to avoid a startup transient).
    """
    check_positive(f0, "f0", SolverError)
    if t0 is None:
        t0 = 1.2 / f0
    w2 = (np.pi * f0) ** 2

    def s(t: float) -> float:
        a = w2 * (t - t0) ** 2
        return amplitude * (1.0 - 2.0 * a) * np.exp(-a)

    return s


class PointSource:
    """Mass-scaled point force ``f(t)`` at a single DOF.

    Calling it returns the dense ``(n_dof,)`` force vector, like any
    other force callable.  It also exposes what it closes over —
    ``dof``, ``scale`` (``1 / M[dof]``) and ``stf`` — and
    :meth:`value`, the one nonzero entry, so the solvers apply it as a
    single-entry update instead of allocating and adding a full-length
    vector every step.
    """

    def __init__(self, n_dof: int, dof: int, scale: float,
                 stf: Callable[[float], float]):
        self.n_dof = int(n_dof)
        self.dof = int(dof)
        self.scale = float(scale)
        self.stf = stf

    def value(self, t: float) -> float:
        """``f(t)[dof]`` — the only nonzero entry."""
        return self.stf(t) * self.scale

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros(self.n_dof)
        out[self.dof] = self.value(t)
        return out


def point_source(
    n_dof: int, dof: int, mass_diag: np.ndarray, stf: Callable[[float], float]
) -> PointSource:
    """Mass-scaled point force ``f(t)`` at a single DOF.

    The solvers integrate ``u'' = -A u + f(t)`` with ``f = M^{-1} F``;
    a delta source of time function ``stf`` at ``dof`` therefore
    contributes ``stf(t) / M[dof]`` there and zero elsewhere.
    """
    if not 0 <= dof < n_dof:
        raise SolverError(f"source dof {dof} outside [0, {n_dof})")
    return PointSource(n_dof, dof, 1.0 / float(mass_diag[dof]), stf)
