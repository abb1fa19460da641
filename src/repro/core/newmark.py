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
through it over one field view, :class:`Fields`: a list of *replicas*
(one rank's copy of its local DOFs) laid out by a :class:`ReplicaMap`.
The paper parallelises the SPECFEM way (Sec. III) — every rank runs the
serial substep — so a serial run is the one-replica case: its map is
the identity, one replica owning every DOF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.util.errors import ConfigError, SolverError
from repro.util.validation import require

_ZERO = np.zeros(1)  # what a gather reads for a DOF no replica owns


@dataclass
class ReplicaMap:
    """Which global DOFs each replica holds, in which order, and which of
    them it owns: ``gdofs[r]``, ascending unless ``gdofs[r][sorter[r]]``
    is (an LTS plan's level-sorted order, :meth:`reorder`), and
    ``owner[r]``, the mask of those it owns (each DOF has one owner).  A
    serial run is :meth:`identity`; a partitioned one its
    :class:`repro.runtime.halo.RankLayout`."""

    n_dof_global: int
    gdofs: list[np.ndarray]
    owner: list[np.ndarray]
    sorter: list[np.ndarray] | None = field(default=None, kw_only=True)

    @classmethod
    def identity(cls, n: int) -> "ReplicaMap":
        """One replica holding and owning all ``n`` DOFs."""
        return cls(n, [np.arange(n)], [np.ones(n, dtype=bool)])

    def reorder(self, orders: list[tuple[np.ndarray, np.ndarray]]) -> "ReplicaMap":
        """This ascending map, replica ``r``'s entry ``j`` now its entry
        ``order[j]`` for ``(order, inverse) = orders[r]``."""
        order, inverse = zip(*orders)
        return ReplicaMap(self.n_dof_global, [g.take(o) for g, o in zip(self.gdofs, order)],
                          [w.take(o) for w, o in zip(self.owner, order)], sorter=list(inverse))

    @property
    def n_ranks(self) -> int:
        """Replica count: one per rank."""
        return len(self.gdofs)

    @property
    def whole(self) -> bool:
        """One replica holding, so owning, every DOF: ascending, it *is*
        the global vector, so scatter and gather skip the index passes."""
        return len(self.gdofs) == 1 and len(self.gdofs[0]) == self.n_dof_global

    def scatter(self, u_global: np.ndarray) -> list[np.ndarray]:
        """Restrict a global vector to every replica (replicating shares)."""
        if self.whole and self.sorter is None:
            return [np.array(u_global, dtype=np.float64)]
        u_global = np.asarray(u_global, dtype=np.float64)
        return [u_global[g] for g in self.gdofs]

    def gather(self, u_locals: list[np.ndarray]) -> np.ndarray:
        """Assemble a global vector from owned local entries (a
        :attr:`whole` map's one replica: as is, or sorted): one read of
        the replicas, concatenated, through :attr:`owner_copy`."""
        if self.whole:
            return u_locals[0] if self.sorter is None else u_locals[0][self.sorter[0]]
        return np.concatenate([*u_locals, _ZERO]).take(self.owner_copy)

    @cached_property
    def owner_copy(self) -> np.ndarray:
        """Per global DOF, where the replicas concatenated hold its
        owner's copy (one past their end for a DOF no replica owns; a
        later owner wins, as a replica-by-replica scatter leaves it).
        Built on the first gather and kept with the map."""
        sizes = [len(g) for g in self.gdofs]
        at = np.full(self.n_dof_global, sum(sizes),
                     dtype=np.int32 if sum(sizes) < 2**31 - 1 else np.int64)
        for g, own, start in zip(self.gdofs, self.owner, np.cumsum([0, *sizes[:-1]])):
            at[g[own]] = start + np.flatnonzero(own)
        return at

    def ascending(self, u_locals: list[np.ndarray]) -> list[np.ndarray]:
        """Copies of the replicas, entries ascending in global id: what a
        checkpoint stores."""
        if self.sorter is None:
            return [x.copy() for x in u_locals]
        return [x[s] for x, s in zip(u_locals, self.sorter)]

    def numbered(self, u_locals: list[np.ndarray]) -> list[np.ndarray]:
        """Copies of :meth:`ascending` replicas in this map's order."""
        out = [x.copy() for x in u_locals]
        for x, a, s in zip(out, u_locals, self.sorter or ()):
            x[s] = a
        return out

    def positions(self, r: int, dofs) -> np.ndarray:
        """Where replica ``r`` holds the global ``dofs`` — or, where it
        holds none, an entry of another DOF (``gdofs[r][at] != dofs``)."""
        g, s = self.gdofs[r], self.sorter[r] if self.sorter else None
        if self.whole:  # DOF i sorts to entry i
            at = np.clip(dofs, 0, len(g) - 1)
        else:
            at = np.minimum(np.searchsorted(g, dofs, sorter=s), len(g) - 1)
        return at if s is None else s[at]

    def forces(self, force: Callable) -> list:
        """``force`` in each replica's numbering, ``None`` where it vanishes:
        a point source (``dof``, ``value(t)``: a one-entry update) at its
        position, any other force evaluated once per time, scattered."""
        if self.whole and self.sorter is None:
            return [force]
        dof = getattr(force, "dof", None)
        if dof is None:
            scattered = lru_cache(maxsize=1)(lambda t: self.scatter(force(t)))
            return [lambda t, r=r: scattered(t)[r] for r in range(self.n_ranks)]
        at = [int(self.positions(r, dof)) if len(g) else -1 for r, g in enumerate(self.gdofs)]
        return [SimpleNamespace(dof=i, value=force.value) if i >= 0 and g[i] == dof else None
                for i, g in zip(at, self.gdofs)]


class Fields:
    """The field view :func:`run_cycles` steps: per-replica ``(u, v)``
    lists of one :class:`ReplicaMap`, and how the loop's hooks look at
    them.

    Receivers are located once, on the replica owning each (a search in
    each replica's DOF ids and one owner-mask lookup): a trace row is
    then one fancy-index read per replica that owns a receiver.
    Health checks see the *replicas* (corruption in a non-owned copy is
    invisible to an owner-projected gather); :meth:`result` gathers.
    Replicas enter and leave a run ascending, whatever the map's order."""

    def __init__(
        self,
        replicas: ReplicaMap,
        us: list[np.ndarray],
        vs: list[np.ndarray],
        receiver_dofs: np.ndarray | None = None,
    ):
        self.map = replicas
        self.u, self.v = us, vs
        #: Per replica owning receivers: its ``u``, the local indices,
        #: and the row positions they fill (a slice when it owns all).
        self._reads: list[tuple] = []
        if receiver_dofs is None:
            return
        rec = np.asarray(receiver_dofs, dtype=np.int64)
        found = 0
        for r, (u, g, own) in enumerate(zip(us, replicas.gdofs, replicas.owner)):
            if not len(g):
                continue
            at = replicas.positions(r, rec)
            mine = (g[at] == rec) & own[at]
            if mine.any():
                self._reads.append((u, at[mine], slice(None) if mine.all() else mine))
                found += int(mine.sum())
        require(found == len(rec), "a receiver DOF lies outside the mesh", SolverError)

    @classmethod
    def start(cls, replicas: ReplicaMap, state=None, receiver_dofs=None) -> "Fields":
        """Zero fields, or ``state``'s (a
        :class:`~repro.runtime.checkpoint.CheckpointState`): its replicas
        in the map's order when they match the map's one for one (count
        and lengths) — a bitwise continuation — else, when either side
        has a single replica, its global fields scattered.  Any other
        pair is refused: a resume never guesses a replica layout."""
        if state is None:
            us = [np.zeros(len(g)) for g in replicas.gdofs]
            vs = [np.zeros(len(g)) for g in replicas.gdofs]
        elif [len(x) for x in state.u_locals] == [len(g) for g in replicas.gdofs]:
            us, vs = replicas.numbered(state.u_locals), replicas.numbered(state.v_locals)
        elif 1 in (state.n_ranks, replicas.n_ranks):
            us, vs = replicas.scatter(state.u), replicas.scatter(state.v)
        else:
            raise ConfigError(
                f"checkpoint holds {state.n_ranks} per-rank replicas but this run "
                f"has {replicas.n_ranks} ranks; a resume restores matching replicas "
                f"exactly or starts from the global field when either side has one"
            )
        return cls(replicas, us, vs, receiver_dofs)

    def checkpoint_arrays(self, us: list[np.ndarray], vs: list[np.ndarray]) -> dict:
        """A checkpoint's fields from a :meth:`snapshot`: the gathered
        global fields and the exact replicas."""
        m = self.map
        return {"u": m.gather(m.numbered(us)), "v": m.gather(m.numbered(vs)),
                "u_locals": us, "v_locals": vs}

    def receivers(self, row: np.ndarray) -> None:
        """Write the displacement at the receiver DOFs into ``row``."""
        for u, local, cols in self._reads:
            row[cols] = u[local]

    def check(self, health: HealthGuard, cycle: int) -> None:
        health.check_locals(cycle, self.u, self.v, gdofs=self.map.gdofs)

    def snapshot(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Ascending copies of the replicas, safe to serialize
        asynchronously."""
        return self.map.ascending(self.u), self.map.ascending(self.v)

    def result(self, solver) -> tuple[np.ndarray, np.ndarray]:
        """The global ``(u, v)``, once the solver's mailbox (if any) is
        verified drained: a run's last use of its replicas.  One replica
        holding every DOF is handed over as the result, sorted in place
        where the map reorders it (no second copy of the fields)."""
        solver.check_no_leaks()
        m, (u, v) = self.map, (self.u, self.v)
        if m.whole and m.sorter is not None:
            for x in (u[0], v[0]):
                x[:] = x[m.sorter[0]]
            return u[0], v[0]
        return m.gather(u), m.gather(v)


def run_cycles(
    solver,
    fields: Fields,
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
    Advances ``solver`` by ``n_cycles`` cycles over ``fields``' replica
    lists (``solver.cycle(us, vs)``: one replica serially, one per rank
    partitioned) and returns the gathered global ``(u, v)``.  The
    per-cycle hooks are all optional — ``None`` costs one comparison —
    and run in a fixed order after each cycle:

    1. ``tracer`` (:class:`~repro.core.workspace.HotPathTracer`)
       brackets the cycle itself;
    2. ``traces[cycle - 1]`` receives the receiver row;
    3. ``health`` checks the replicas on its cadence;
    4. ``on_checkpoint(cycle, us, vs)`` fires every
       ``checkpoint_every`` cycles with copies of the replicas — after
       the health check, so a corrupted state is never written.

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
    us, vs = fields.u, fields.v
    for n in range(n_cycles):
        if tracer is not None:
            tracer.before_step(n)
        solver.cycle(us, vs)
        if tracer is not None:
            tracer.after_step(n)
        cycle = solver.n_cycles_taken
        if traces is not None:
            fields.receivers(traces[cycle - 1])
        if health is not None:
            fields.check(health, cycle)
        if checkpointing and cycle % checkpoint_every == 0:
            on_checkpoint(cycle, *fields.snapshot())
    return fields.result(solver)


def staggered_initial_velocity(
    A, dt: float, u0: np.ndarray, v0: np.ndarray
) -> np.ndarray:
    """Second-order accurate ``v^{-1/2}`` from collocated ``(u(0), v(0))``.

    Taylor expansion: ``v(-dt/2) ~= v(0) + (dt/2) A u(0)`` (acceleration is
    ``-A u``).  Needed so staggered runs converge at the full order when
    initial data are given at ``t = 0``.
    """
    return np.asarray(v0, dtype=np.float64) + 0.5 * dt * (A @ np.asarray(u0, dtype=np.float64))
