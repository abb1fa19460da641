"""Explicit Newmark time stepping (paper Eqs. (5)-(6)).

The scheme staggers velocity by half a step (equivalent to leap-frog)::

    v^{n+1/2} = v^{n-1/2} - dt * A u^n + dt * f(t_n)
    u^{n+1}   = u^n + dt * v^{n+1/2}

where ``A = M^{-1} K`` and ``f`` is the mass-scaled external force.  This
is the non-LTS reference scheme: it must take the globally smallest stable
step (Eq. (7)) everywhere, which is the bottleneck LTS removes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.workspace import make_apply_into, workspace_bytes
from repro.util.errors import SolverError
from repro.util.validation import check_positive, require


def _checked_run(
    solver,
    u: np.ndarray,
    v: np.ndarray,
    n_cycles: int,
    health: HealthGuard | None,
    checkpoint_every: int | None,
    on_checkpoint: Callable | None,
    cycle_attr: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared stepping loop with health checks and checkpoint callbacks.

    ``cycle_attr`` names the solver's completed-cycle counter
    (``n_steps_taken`` / ``n_cycles_taken``), so cadences stay aligned
    across a checkpoint/restore: a solver restored at cycle 10 with
    ``checkpoint_every=4`` checkpoints next at cycle 12, exactly like
    the uninterrupted run.  ``on_checkpoint(cycle, u, v)`` receives
    snapshot copies, safe to serialize asynchronously.
    """
    require(n_cycles >= 0, "n_steps must be >= 0", SolverError)
    require(
        checkpoint_every is None or checkpoint_every >= 1,
        "checkpoint_every must be >= 1",
        SolverError,
    )
    for _ in range(n_cycles):
        solver.step(u, v)
        cycle = getattr(solver, cycle_attr)
        if health is not None:
            health.check(cycle, u, v)
        if (
            on_checkpoint is not None
            and checkpoint_every is not None
            and cycle % checkpoint_every == 0
        ):
            on_checkpoint(cycle, u.copy(), v.copy())
    return u, v


def subtract_force(force: Callable, t: float, z: np.ndarray) -> None:
    """``z -= f(t)``, in place.

    A force that exposes ``dof`` and ``value(t)`` — a
    :class:`repro.sem.sources.PointSource` — is one nonzero entry and is
    applied as a single-entry update; any other callable returns the
    dense vector.
    """
    dof = getattr(force, "dof", None)
    if dof is None:
        z -= force(t)
    else:
        z[dof] -= force.value(t)


class NewmarkSolver:
    """Explicit Newmark/leap-frog integrator for ``u'' = -A u + f(t)``.

    Parameters
    ----------
    A:
        Operator supporting ``A @ u`` (scipy sparse matrix, ndarray, or
        LinearOperator); typically ``M^{-1} K`` with diagonal ``M``.
    dt:
        Time step; caller is responsible for CFL admissibility
        (:func:`repro.core.cfl.cfl_timestep`).
    force:
        Optional ``f(t) -> (n,) array`` of mass-scaled external force.
    """

    def __init__(self, A, dt: float, force: Callable[[float], np.ndarray] | None = None):
        self.A = A
        self.dt = check_positive(dt, "dt", SolverError)
        self.force = force
        self.t = 0.0
        self.n_steps_taken = 0
        self._apply_into = make_apply_into(A)
        self._z: np.ndarray | None = None  # step scratch, sized on first use

    def step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``(u^n, v^{n-1/2})`` to ``(u^{n+1}, v^{n+1/2})`` in place.

        All updates run through one preallocated scratch vector with
        ``out=`` ufunc forms — bitwise identical to the seed's
        temporary-per-axpy arithmetic (``v -= dt (A u - f)`` rounds
        exactly like ``v += dt (f - A u)``), without the per-step
        allocations.
        """
        z = self._z
        if z is None or z.shape != u.shape:
            z = self._z = np.empty_like(u, dtype=np.float64)
        self._apply_into(u, z)
        if self.force is not None:
            subtract_force(self.force, self.t, z)
        z *= self.dt
        v -= z
        np.multiply(v, self.dt, out=z)
        u += z
        self.t += self.dt
        self.n_steps_taken += 1
        return u, v

    def workspace_bytes(self) -> int:
        """Bytes of pooled stepping scratch (solver plus operator)."""
        own = 0 if self._z is None else self._z.nbytes
        return own + workspace_bytes(self.A)

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing (``u``/``v`` live with
        the caller — pair this with copies of the field vectors)."""
        return {"t": self.t, "cycle": self.n_steps_taken}

    def restore(self, state: dict) -> None:
        """Resume the schedule position saved by :meth:`state`."""
        self.t = float(state["t"])
        self.n_steps_taken = int(state["cycle"])

    def run(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        n_steps: int,
        health: HealthGuard | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint: Callable | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate ``n_steps`` steps from ``(u0, v0)``.

        ``v0`` is interpreted as the staggered ``v^{-1/2}`` value.  Returns
        copies; inputs are not modified.  ``health`` runs a
        :class:`~repro.core.health.HealthGuard` on its cadence;
        ``on_checkpoint(cycle, u, v)`` fires every ``checkpoint_every``
        completed steps with snapshot copies.
        """
        u = np.array(u0, dtype=np.float64, copy=True)
        v = np.array(v0, dtype=np.float64, copy=True)
        return _checked_run(
            self, u, v, n_steps, health, checkpoint_every, on_checkpoint,
            "n_steps_taken",
        )


def newmark_run(
    A,
    dt: float,
    u0: np.ndarray,
    v0: np.ndarray,
    n_steps: int,
    force: Callable[[float], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot convenience wrapper around :class:`NewmarkSolver`."""
    return NewmarkSolver(A, dt, force=force).run(u0, v0, n_steps)


def staggered_initial_velocity(
    A, dt: float, u0: np.ndarray, v0: np.ndarray
) -> np.ndarray:
    """Second-order accurate ``v^{-1/2}`` from collocated ``(u(0), v(0))``.

    Taylor expansion: ``v(-dt/2) ~= v(0) + (dt/2) A u(0)`` (acceleration is
    ``-A u``).  Needed so staggered runs converge at the full order when
    initial data are given at ``t = 0``.
    """
    return np.asarray(v0, dtype=np.float64) + 0.5 * dt * (A @ np.asarray(u0, dtype=np.float64))
