"""Explicit Newmark time stepping (paper Eqs. (5)-(6)).

The scheme staggers velocity by half a step (equivalent to leap-frog)::

    v^{n+1/2} = v^{n-1/2} - dt * A u^n + dt * f(t_n)
    u^{n+1}   = u^n + dt * v^{n+1/2}

where ``A = M^{-1} K`` and ``f`` is the mass-scaled external force.  This
is the non-LTS reference scheme: it must take the globally smallest stable
step (Eq. (7)) everywhere, which is the bottleneck LTS removes.

This module also owns :func:`run_cycles` — the package's single time
loop.  All four solvers' ``run`` methods and
:meth:`repro.api.Simulation.run` (plain, checkpointed, health-guarded,
resumed, serial or partitioned) step through it; they differ only in
which optional hooks they pass and in the field view (:class:`Fields`
here, :class:`repro.runtime.executor.RankFields` for per-rank replicas).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.workspace import make_apply_into, workspace_bytes
from repro.util.errors import SolverError
from repro.util.validation import check_positive, require


class Fields:
    """Serial field view for :func:`run_cycles`: the ``(u, v)`` the
    solver steps in place, and how the loop's hooks look at them.

    The distributed counterpart (per-rank replicas instead of global
    vectors) is :class:`repro.runtime.executor.RankFields`; the two
    views are the only place the serial and partitioned runs differ.
    """

    def __init__(
        self, u: np.ndarray, v: np.ndarray, receiver_dofs: np.ndarray | None = None
    ):
        self.u, self.v = u, v
        self.receiver_dofs = receiver_dofs

    @classmethod
    def start(cls, n_dof: int, state=None, receiver_dofs=None) -> "Fields":
        """Zero fields, or a copy of ``state``'s (a
        :class:`~repro.runtime.checkpoint.CheckpointState`)."""
        if state is None:
            return cls(np.zeros(n_dof), np.zeros(n_dof), receiver_dofs)
        return cls(state.u.copy(), state.v.copy(), receiver_dofs)

    def checkpoint_arrays(self, u: np.ndarray, v: np.ndarray) -> dict:
        """A checkpoint's fields from a :meth:`snapshot` ``(u, v)``."""
        return {"u": u, "v": v}

    def receivers(self) -> np.ndarray:
        """Displacement at the receiver DOFs (one trace row)."""
        return self.u[self.receiver_dofs]

    def check(self, health: HealthGuard, cycle: int) -> None:
        health.check(cycle, self.u, self.v)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``(u, v)``, safe to serialize asynchronously."""
        return self.u.copy(), self.v.copy()

    def result(self, solver) -> tuple[np.ndarray, np.ndarray]:
        return self.u, self.v


def run_cycles(
    solver,
    fields,
    n_cycles: int,
    *,
    traces: np.ndarray | None = None,
    health: HealthGuard | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable | None = None,
    tracer=None,
):
    """The one cycle loop: every ``run`` in the package steps through here.

    Advances ``solver`` by ``n_cycles`` cycles over ``fields``
    (:class:`Fields`, or :class:`repro.runtime.executor.RankFields` for
    a partitioned run) and returns the view's global ``(u, v)``.  The
    per-cycle hooks are all optional — ``None`` costs one comparison —
    and run in a fixed order after each step:

    1. ``tracer`` (:class:`~repro.core.workspace.HotPathTracer`)
       brackets the step itself;
    2. ``traces[cycle - 1]`` receives the receiver row;
    3. ``health`` checks the fields on its cadence;
    4. ``on_checkpoint(cycle, *fields.snapshot())`` fires every
       ``checkpoint_every`` cycles — after the health check, so a
       corrupted state is never written.

    ``cycle`` is the solver's own completed-cycle count, so cadences
    stay aligned across a checkpoint/restore: a solver restored at
    cycle 10 with ``checkpoint_every=4`` checkpoints next at cycle 12,
    exactly like the uninterrupted run.
    """
    require(n_cycles >= 0, "n_cycles must be >= 0", SolverError)
    require(
        checkpoint_every is None or checkpoint_every >= 1,
        "checkpoint_every must be >= 1",
        SolverError,
    )
    checkpointing = on_checkpoint is not None and checkpoint_every is not None
    u, v = fields.u, fields.v
    for n in range(n_cycles):
        if tracer is not None:
            tracer.before_step(n)
        solver.step(u, v)
        if tracer is not None:
            tracer.after_step(n)
        cycle = solver.n_cycles_taken
        if traces is not None:
            traces[cycle - 1] = fields.receivers()
        if health is not None:
            fields.check(health, cycle)
        if checkpointing and cycle % checkpoint_every == 0:
            on_checkpoint(cycle, *fields.snapshot())
    return fields.result(solver)


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
        self.n_cycles_taken = 0
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
        self.n_cycles_taken += 1
        return u, v

    def workspace_bytes(self) -> int:
        """Bytes of pooled stepping scratch (solver plus operator)."""
        own = 0 if self._z is None else self._z.nbytes
        return own + workspace_bytes(self.A)

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing (``u``/``v`` live with
        the caller — pair this with copies of the field vectors)."""
        return {"t": self.t, "cycle": self.n_cycles_taken}

    def restore(self, state: dict) -> None:
        """Resume the schedule position saved by :meth:`state`."""
        self.t = float(state["t"])
        self.n_cycles_taken = int(state["cycle"])

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
        return run_cycles(
            self, Fields(u, v), n_steps, health=health,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
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
