"""Algorithm 1 of the paper (multi-level LTS-Newmark), transcribed literally.

The oracle of :class:`repro.core.lts_newmark.LTSNewmarkSolver`: every
substep is a full-size stiffness product of a column-masked vector and
full-length vector updates, allocating as it goes.  Simple, obviously
the scheme, slow.  The solver's active-set cycle must compute the same
scheme (Sec. II-C), and its closed-form operation count must apply each
level as often as this recursion does, so the recursion counts its
applies and vector passes as it runs.

Tests import it as ``from oracles.algorithm1 import algorithm1``:
``tests/conftest.py`` puts ``tests/`` on the path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import OperationCounter, as_operator


def algorithm1(
    A,
    dof_level: np.ndarray,
    dt: float,
    u0: np.ndarray,
    v0: np.ndarray,
    n_cycles: int,
    *,
    force: Callable[[float], np.ndarray] | None = None,
    counter: OperationCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_cycles`` LTS cycles of ``u'' = -A u + f(t)`` from the staggered
    ``(u0, v^{-1/2})``, on global-order vectors; returns ``(u, v)``,
    inputs untouched.

    ``A`` is ``M^{-1} K`` as a scipy sparse matrix, dense array or any
    :class:`~repro.core.operator.StiffnessOperator`; ``dof_level`` holds
    each DOF's level (1 = coarsest, empty levels skipped); ``dt`` is the
    cycle step.  ``force(t)`` returns the dense mass-scaled force, frozen
    over each cycle at its start.  ``counter``, if given, receives every
    apply (``A.nnz`` each) and vector pass as it runs.
    """
    op = as_operator(A)
    dof_level = np.asarray(dof_level)
    levels = [int(k) for k in np.unique(dof_level)]
    cols = {k: np.flatnonzero(dof_level == k) for k in levels}
    tally = OperationCounter() if counter is None else counter
    dt = float(dt)
    n = op.shape[0]

    def apply_level(k: int, u: np.ndarray) -> np.ndarray:
        """``A P_k u``: mask the columns, run the full product."""
        masked = np.zeros_like(u)
        masked[cols[k]] = u[cols[k]]
        tally.count_stiffness(k, op.nnz)
        return op.apply(masked)

    def advance(i: int, u0: np.ndarray, F: np.ndarray, n_steps: int) -> np.ndarray:
        """Levels ``levels[i:]``: ``n_steps`` steps of ``dt /
        2**(levels[i]-1)`` from ``u0`` with zero auxiliary velocity under
        the frozen coarser forcing ``F``; the advanced displacement."""
        lv = levels[i]
        dt_k = dt / float(2 ** (lv - 1))
        u = u0.copy()
        v = np.zeros(n)
        if i == len(levels) - 1:
            for s in range(n_steps):
                rhs = F + apply_level(lv, u)
                if s == 0:
                    v = -(0.5 * dt_k) * rhs
                else:
                    v -= dt_k * rhs
                u += dt_k * v
                tally.count_vector(5 * n)
            return u
        ratio = 2 ** (levels[i + 1] - lv)
        for m in range(n_steps):
            z = apply_level(lv, u)
            u_fine = advance(i + 1, u, F + z, ratio)
            recon = (u_fine - u) / dt_k
            if m == 0:
                v = recon
            else:
                v += 2.0 * recon
            u += dt_k * v
            tally.count_vector(7 * n)
        return u

    u = np.array(u0, dtype=np.float64)
    v = np.array(v0, dtype=np.float64)
    t = 0.0
    for _ in range(n_cycles):
        F1 = apply_level(levels[0], u)
        if force is not None:
            F1 = F1 - force(t)
        if len(levels) == 1:  # one level: LTS *is* explicit Newmark
            v -= dt * F1
            tally.count_vector(4 * n)
        else:
            u_t = advance(1, u, F1, 2 ** (levels[1] - 1))
            v += (2.0 / dt) * (u_t - u)
            tally.count_vector(6 * n)
        u += dt * v
        t += dt
    return u, v
