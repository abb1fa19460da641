"""Explicit Newmark time stepping (paper Eqs. (5)-(6)) and the time loop.

The scheme staggers velocity by half a step (equivalent to leap-frog)::

    v^{n+1/2} = v^{n-1/2} - dt * A u^n + dt * f(t_n)
    u^{n+1}   = u^n + dt * v^{n+1/2}

where ``A = M^{-1} K`` and ``f`` is the mass-scaled external force.  This
is the non-LTS reference scheme: it must take the globally smallest stable
step (Eq. (7)) everywhere, which is the bottleneck LTS removes.  It runs
as one-level LTS: :class:`repro.core.lts_newmark.NewmarkSolver`.

This module owns :func:`run_cycles` — the package's single time loop.
Every solver's ``run`` and :meth:`repro.api.Simulation.run` (plain,
checkpointed, health-guarded, resumed, serial or partitioned) step
through it; they differ only in which optional hooks they pass and in
the field view (:class:`Fields` here,
:class:`repro.runtime.executor.RankFields` for per-rank replicas).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.util.errors import SolverError
from repro.util.validation import require


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

    ``solver`` is a serial or distributed LTS solver; a cycle of a
    one-level one (the Newmark solvers) is one Newmark step.
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


def staggered_initial_velocity(
    A, dt: float, u0: np.ndarray, v0: np.ndarray
) -> np.ndarray:
    """Second-order accurate ``v^{-1/2}`` from collocated ``(u(0), v(0))``.

    Taylor expansion: ``v(-dt/2) ~= v(0) + (dt/2) A u(0)`` (acceleration is
    ``-A u``).  Needed so staggered runs converge at the full order when
    initial data are given at ``t = 0``.
    """
    return np.asarray(v0, dtype=np.float64) + 0.5 * dt * (A @ np.asarray(u0, dtype=np.float64))
