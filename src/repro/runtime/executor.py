"""Distributed Newmark and LTS-Newmark over the mailbox runtime.

SPMD execution, rank-serialized: every rank holds only its local vectors
and partial operators (:class:`repro.runtime.halo.RankLayout`); each
stiffness application performs the partial product and a halo exchange
that sums shared-DOF contributions — one synchronization per substep,
exactly the pattern whose load sensitivity Fig. 1 illustrates.

Both layout backends — assembled partial CSR and matrix-free
tensor-product (``build_rank_layout(backend="matfree")``) — run through
one level-apply path, in any dimension the SEM layer discretizes and for
any physics it declares (the interleaved elastic DOFs exchange through
the same halo plans): level ``k`` on rank ``r`` is a
:class:`~repro.core.operator.Restriction` of the bare partial ``K`` to
the rank's level-``k`` columns — the level's elements plus their gray
halo (:meth:`repro.sem.matfree.MatrixFreeStiffness.masked_subset`), or a
CSR column block — exchanged through a plan that keeps only the shared
DOFs some sharer can write, then scaled by the rank-local ``1/M``.

No LTS arithmetic lives here.  The cycle is the serial solver's
(:mod:`repro.core.lts_newmark`, ``mode="optimized"``): one
:class:`~repro.core.lts_newmark._RankState` per rank holds the compact
recursion over the rank's local DOFs, and the one lock-step driver runs
the ranks' phases with this module's halo sum between each level's
apply and its update, so a substep costs each rank work proportional to
its *local* active set, never to its local vector.  What this module
adds is the plan.  A rank's depth-``i`` active set is, over the levels
``k >= level_i``, its level-``k`` columns, the rows its level-``k``
product writes, **and every local index the level's exchange plan
keeps** — a shared DOF that only a peer's gray-halo element writes
still receives a nonzero through the exchange.  Each fine level steps
in its depth's own numbering: its product is renumbered onto that
active set (:meth:`~repro.core.operator.Restriction.renumber`) and its
exchange plan's indices with it, so the halo sum packs and accumulates
the depth's compact output directly.  The distributed solution
equals the serial one up to floating-point summation order (tested at
1e-12 against the serial solver and its ``mode="reference"`` oracle for
random level assignments and partitions, one rank included): the
partitioned execution computes *the same scheme*, for any partition.
Non-LTS Newmark is the same solver with every DOF on level 1.

There is no time loop here either: ``run`` hands a :class:`RankFields`
view of the per-rank replicas to :func:`repro.core.newmark.run_cycles`,
the one cycle loop the serial solvers and the façade also use.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.lts_newmark import _LockStepCycle, _RankState, compact_depths
from repro.core.operator import (
    AssembledOperator, Restriction, inverse_numbering, positions_in,
)
from repro.runtime.comm import MailboxWorld, RankComm
from repro.runtime.halo import ExchangePlan, RankLayout
from repro.util.errors import CommError, SolverError
from repro.util.validation import require


class RankFields:
    """Distributed field view for :func:`~repro.core.newmark.run_cycles`:
    per-rank replica lists in place of global vectors (the counterpart
    of :class:`repro.core.newmark.Fields`).

    Receivers are located once — ``(owning rank, local index)`` per
    global DOF, every DOF having exactly one owner — so a trace row
    reads scalars off the owners' local vectors instead of gathering
    the global field every cycle.  Health checks see the *replicas*
    (corruption in a non-owned copy is invisible to an owner-projected
    gather), and :meth:`result` verifies the mailbox drained before
    gathering.
    """

    def __init__(
        self,
        layout: RankLayout,
        u_locals: list[np.ndarray],
        v_locals: list[np.ndarray],
        receiver_dofs: np.ndarray | None = None,
    ):
        self.layout = layout
        self.u, self.v = u_locals, v_locals
        self._receivers: list[tuple[int, int]] = []
        if receiver_dofs is None:
            return
        for g in receiver_dofs:
            for r in range(layout.n_ranks):
                i = int(np.searchsorted(layout.gdofs[r], g))
                if (
                    i < len(layout.gdofs[r])
                    and layout.gdofs[r][i] == g
                    and layout.owner[r][i]
                ):
                    self._receivers.append((r, i))
                    break

    def receivers(self) -> list[float]:
        return [self.u[r][i] for r, i in self._receivers]

    def check(self, health: HealthGuard, cycle: int) -> None:
        health.check_locals(cycle, self.u, self.v, gdofs=self.layout.gdofs)

    def snapshot(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Copies of the exact per-rank replicas."""
        return [x.copy() for x in self.u], [x.copy() for x in self.v]

    def result(self, solver) -> tuple[np.ndarray, np.ndarray]:
        solver.check_no_leaks()
        return self.layout.gather(self.u), self.layout.gather(self.v)


def _restriction(cols: np.ndarray, sub) -> Restriction:
    """The masked stiffness ``sub`` as the restricted product over
    ``cols``, able to fork and renumber when its *class* is: a caller's
    proxy that forwards attribute lookups has neither of its own, so it
    is used as is and renumbered through the adaptor of
    :meth:`Restriction.renumber` (the proxy keeps seeing every apply)."""
    fork = getattr(type(sub), "fork", None)
    renumber = getattr(type(sub), "renumber", None)
    return Restriction(
        cols, sub.nnz, sub.apply,
        _fork=fork and (lambda: _restriction(cols, fork(sub))),
        _renumber=renumber and (lambda idx: _restriction(
            positions_in(inverse_numbering(idx, sub.shape[0]), cols, "column"),
            renumber(sub, idx),
        )),
    )


def _restrict_levels(K, col_masks: list[np.ndarray]):
    """One rank's restricted products ``u -> K[:, cols_k] u[cols_k]``,
    one per level mask in the order given (coarsest first), and, per
    level, the rows the product can write.

    A matrix-free ``K`` restricts to the level's elements plus their
    gray halo; an assembled CSR to its column block.  Either way the
    product overwrites the whole output (zero outside the row support).
    """
    cols = [np.nonzero(m)[0] for m in col_masks]
    if hasattr(K, "masked_subset"):
        subs = [K.masked_subset(m) for m in col_masks]
        restr = [_restriction(c, s) for c, s in zip(cols, subs)]
        return restr, [s.row_support() for s in subs]
    op = AssembledOperator(K)
    return [op.restrict(c) for c in cols], [op.reach(m) for m in col_masks]


class DistributedLTSPlan:
    """What a :class:`DistributedLTSSolver` derives from the rank layout
    alone: the global level schedule and, per rank, the level-restricted
    products, the per-level exchange channels (both in the numbering the
    level's output lands in: local for level 1, the depth's active set
    for a finer one), the active sets with the compact recursion's index
    maps, and ``1/M``.  Stepping changes none of it, so one plan serves
    any number of solvers, concurrently too: :meth:`bind` gives each its
    own vectors, buffers and operator scratch.
    """

    def __init__(self, layout: RankLayout):
        self.layout = layout
        n_ranks, dof_levels = layout.n_ranks, layout.dof_level_local
        require(
            len(dof_levels) == n_ranks,
            "layout must carry dof levels (build_rank_layout(dof_level=...))",
            SolverError,
        )
        #: Non-empty levels across the whole domain (every rank follows the
        #: same global schedule even if a level is locally absent).
        self.active_levels = levels = sorted(
            {int(k) for lv in dof_levels for k in np.unique(lv)}
        )
        require(min(levels, default=1) >= 1, "levels must be >= 1", SolverError)
        col_masks = [[lv == k for k in levels] for lv in dof_levels]
        restr, supports = zip(*(
            _restrict_levels(K, m) for K, m in zip(layout.K_local, col_masks)
        ))
        #: Per rank, the coarsest level's product (applied to ``u`` itself).
        self.restr0 = [rs[0] for rs in restr]
        # Per-level exchange plans: channel positions outside every
        # sharer's structural row support carry only zeros, so each
        # level's plan keeps just the reachable slice (and drops
        # untouched channels outright).  Message volume then scales with
        # the level footprint instead of the full interface.
        self.exchange: dict[int, ExchangePlan] = {
            k: layout.exchange_channels([sup[j] for sup in supports])
            for j, k in enumerate(levels)
        }
        #: ``depths[r][i]``: rank ``r``'s index maps at depth ``i``.
        self.depths = []
        # Active sets, finest first: whatever a level >= k can make
        # nonzero on this rank, through its own product or the exchange.
        for r in range(n_ranks):
            active, acts = np.zeros(len(layout.gdofs[r]), dtype=bool), []
            for j in range(len(levels) - 1, 0, -1):
                active = active | col_masks[r][j] | supports[r][j]
                for idx in self.exchange[levels[j]].indices[r]:
                    active[idx] = True
                acts.append(active)
            self.depths.append(compact_depths(levels[1:], restr[r][1:], acts[::-1]))
        # A fine level's output lands in its depth's numbering: so do
        # the indices its exchange packs and accumulates.
        for i, k in enumerate(levels[1:]):
            self.exchange[k] = self.exchange[k].renumber([
                inverse_numbering(d[i].idx, len(g))
                for d, g in zip(self.depths, layout.gdofs)
            ])
        #: The rank-local ``1/M`` the exchanged sums are scaled by.
        self.Minv = [1.0 / M for M in layout.M_local]

    def bind(self, dt: float, world=None, force=None) -> "DistributedLTSSolver":
        """A solver stepping this plan: only buffers are allocated."""
        return DistributedLTSSolver(self, dt, world, force)


def _rank_forces(layout: RankLayout, force) -> list:
    """``force`` as each rank's local numbering sees it (``None`` where
    it vanishes).  A point source (one nonzero entry, see
    :class:`repro.sem.sources.PointSource`) lives at one local index on
    each rank that holds its DOF; any other force is evaluated once per
    time and scattered densely."""
    if force is None:
        return [None] * layout.n_ranks
    dof = getattr(force, "dof", None)
    if dof is None:
        scattered = lru_cache(maxsize=1)(lambda t: layout.scatter(force(t)))
        return [lambda t, r=r: scattered(t)[r] for r in range(layout.n_ranks)]
    local = []
    for g in layout.gdofs:
        i = int(np.searchsorted(g, dof))
        hit = i < len(g) and g[i] == dof
        local.append(SimpleNamespace(dof=i, value=force.value) if hit else None)
    return local


class DistributedLTSSolver(_LockStepCycle):
    """Multi-level LTS-Newmark, domain-decomposed.

    Requires ``layout.dof_level_local`` (pass ``dof_level`` to
    :func:`repro.runtime.halo.build_rank_layout`); a
    :class:`DistributedLTSPlan` may stand for the layout.  ``dt`` is the
    coarse cycle step, as in
    :class:`repro.core.lts_newmark.LTSNewmarkSolver`.  What derives from
    the layout alone is kept as :attr:`plan`; to step the same
    decomposition again, :meth:`DistributedLTSPlan.bind` it.
    """

    def __init__(
        self,
        layout: RankLayout | DistributedLTSPlan,
        dt: float,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        self.plan = plan = (
            layout if isinstance(layout, DistributedLTSPlan) else DistributedLTSPlan(layout)
        )
        super().__init__(dt, force)
        self.layout = layout = plan.layout
        self.world = world if world is not None else MailboxWorld(layout.n_ranks)
        require(
            self.world.n_ranks == layout.n_ranks,
            "world size must match layout",
            SolverError,
        )
        self.comms: list[RankComm] = self.world.comms()
        self.active_levels = plan.active_levels
        self._plans = {k: p.fork() for k, p in plan.exchange.items()}
        # Every product overwrites its whole output, so level 1's needs
        # no zeroing; the finer levels' come with their depths.
        self._states = [
            _RankState(
                self.dt, self.active_levels[0], restr0.fork(),
                [d.bind() for d in depths], np.empty(len(g)), force=f, minv=minv,
                tier=getattr(K, "tier", ""),
            )
            for restr0, depths, g, f, minv, K in zip(
                plan.restr0, plan.depths, layout.gdofs,
                _rank_forces(layout, force), plan.Minv, layout.K_local,
            )
        ]
        #: Per level, each rank's apply output (what the exchange sums).
        self._outputs = {
            k: [st.outputs[j] for st in self._states]
            for j, k in enumerate(self.active_levels)
        }

    def check_no_leaks(self) -> None:
        """Assert every sent message was consumed (clean-run invariant).

        A non-empty mailbox after a run means a schedule bug or an
        injected duplicate — surfaced as :class:`CommError` naming the
        leaked channels.
        """
        leaked = self.world.channels()
        if leaked:
            raise CommError(
                f"{self.world.pending()} undelivered message(s) after run: "
                f"{self.world.describe_channels(leaked)}"
            )

    def _fields(self, u0: np.ndarray, v0: np.ndarray) -> RankFields:
        """Scattered replicas: checkpoints receive the per-rank lists."""
        return RankFields(self.layout, self.layout.scatter(u0), self.layout.scatter(v0))

    # -- collectives -----------------------------------------------------
    def _sum_shared(self, level: int) -> None:
        """Sum the shared-DOF entries of ``level``'s apply outputs across
        ranks, in place, through the level's exchange plan.

        Two BSP supersteps: all ranks send their partial boundary values,
        then all ranks receive and accumulate.  Receives accumulate in
        ascending peer order so the result is deterministic.

        Packing and accumulation run through the ``plan``'s persistent
        per-channel buffers (``Send`` copies, so the staging buffer is
        immediately reusable); channels the plan dropped as structurally
        zero are skipped symmetrically — neither side sends, so no
        zero-length messages are ever queued and ``check_no_leaks()``
        still holds.
        """
        plan, z_locals = self._plans[level], self._outputs[level]
        for r in range(plan.n_ranks):
            z = z_locals[r]
            send = self.comms[r].Send
            for peer, idx, buf in zip(
                plan.peers[r], plan.indices[r], plan.send_bufs[r]
            ):
                z.take(idx, out=buf, mode="clip")
                send(buf, peer)
        for r in range(plan.n_ranks):
            z = z_locals[r]
            recv = self.comms[r].recv
            for peer, idx, acc in zip(
                plan.peers[r], plan.indices[r], plan.acc_bufs[r]
            ):
                z.take(idx, out=acc, mode="clip")
                acc += recv(peer)
                z[idx] = acc

    def workspace_bytes(self) -> int:
        """Bytes of persistent hot-path scratch the solver owns: the
        rank states (apply outputs, compact recursion, index maps, what
        the restricted products report of their scratch) — counted as
        the serial solver counts its one state — plus ``1/M`` and the
        exchange pack/accumulate buffers."""
        total = sum(m.nbytes for m in self.plan.Minv)
        total += sum(st.nbytes() for st in self._states)
        total += sum(p.workspace_bytes() for p in self._plans.values())
        return int(total)

    def step(self, u_locals: list[np.ndarray], v_locals: list[np.ndarray]) -> None:
        """One LTS cycle of the coarse step ``dt`` across all ranks: one
        ``(u, v)`` replica pair per rank, advanced in place."""
        self.world.begin_superstep()
        self._cycle(u_locals, v_locals)


class DistributedNewmarkSolver(DistributedLTSSolver):
    """Non-LTS reference scheme, domain-decomposed (Eqs. (5)-(6)): the
    one-level :class:`DistributedLTSSolver`, every DOF on level 1
    whatever levels the layout carries."""

    def __init__(
        self,
        layout: RankLayout,
        dt: float,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        one_level = [np.ones(len(g), dtype=np.int64) for g in layout.gdofs]
        super().__init__(
            replace(layout, dof_level_local=one_level), dt, world, force
        )
