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

The recursion is the serial solver's compact one
(:mod:`repro.core.lts_newmark`, ``mode="optimized"``), held per rank and
advanced in lock step: a substep costs each rank work proportional to
its *local* active set, never to its local vector.  A rank's depth-``i``
active set is, over the levels ``k >= level_i``, its level-``k``
columns, the rows its level-``k`` product writes, **and every local
index the level's exchange plan keeps** — a shared DOF that only a
peer's gray-halo element writes still receives a nonzero through the
exchange.  Ordering and compact state come from
:func:`repro.core.lts_newmark.compact_depths`, the builder the serial
solver uses; depth 0 is the four contiguous Newmark passes over the
whole local vector plus the O(active) fix-up.  The distributed solution
equals the serial one up to floating-point summation order (tested at
1e-12 for random level assignments and partitions): the partitioned
execution computes *the same scheme*, for any partition.  Non-LTS
Newmark is the same solver with every DOF on level 1.

There is no time loop here: ``run`` hands a :class:`RankFields` view of
the per-rank replicas to :func:`repro.core.newmark.run_cycles`, the one
cycle loop the serial solvers and the façade also use.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.lts_newmark import compact_depths
from repro.core.newmark import run_cycles
from repro.core.operator import AssembledOperator, Restriction
from repro.runtime.comm import MailboxWorld, RankComm
from repro.runtime.halo import ExchangePlan, RankLayout
from repro.util.errors import CommError, SolverError
from repro.util.validation import check_positive, require


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
    ``cols``, able to fork when its *class* is: a caller's proxy that
    forwards attribute lookups has no fork of its own and is used as is."""
    fork = getattr(type(sub), "fork", None)
    return Restriction(
        cols, sub.nnz, sub.apply,
        _fork=fork and (lambda: _restriction(cols, fork(sub))),
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
    products, the per-level exchange channels, the active sets with the
    compact recursion's index maps, and ``1/M``.  Stepping changes none
    of it, so one plan serves any number of solvers, concurrently too:
    :meth:`bind` gives each its own vectors, buffers and operator scratch.
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
        # Active sets, finest first: whatever a level >= k can make
        # nonzero on this rank, through its own product or the exchange.
        by_rank = []
        for r in range(n_ranks):
            active, acts = np.zeros(len(layout.gdofs[r]), dtype=bool), []
            for j in range(len(levels) - 1, 0, -1):
                active = active | col_masks[r][j] | supports[r][j]
                for idx in self.exchange[levels[j]].indices[r]:
                    active[idx] = True
                acts.append(active)
            by_rank.append(compact_depths(levels[1:], restr[r][1:], acts[::-1]))
        #: ``depths[i][r]``: rank ``r``'s index maps at depth ``i``.
        self.depths = [list(ds) for ds in zip(*by_rank)]
        #: The rank-local ``1/M`` the exchanged sums are scaled by, and
        #: the same over each depth's active set (suffixes of depth 0's).
        self.Minv = [1.0 / M for M in layout.M_local]
        top = self.depths[0] if self.depths else []
        minv0 = [m[d.idx] for m, d in zip(self.Minv, top)]
        self.minv = [
            [m[len(m) - len(d.idx):] for m, d in zip(minv0, ds)]
            for ds in self.depths
        ]

    def bind(self, dt: float, world=None, force=None) -> "DistributedLTSSolver":
        """A solver stepping this plan: only buffers are allocated."""
        return DistributedLTSSolver(self, dt, world, force)


class DistributedLTSSolver:
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
        self.layout = layout = plan.layout
        self.dt = check_positive(dt, "dt", SolverError)
        self.force = force
        # A point source (one nonzero entry, see
        # repro.sem.sources.PointSource) lives at one local index on each
        # rank that holds its DOF; any other force is scattered densely.
        dof = getattr(force, "dof", None)
        self._force_at: list[tuple[int, int]] | None = None
        if dof is not None:
            self._force_at = []
            for r, g in enumerate(layout.gdofs):
                i = int(np.searchsorted(g, dof))
                if i < len(g) and g[i] == dof:
                    self._force_at.append((r, i))
        self.world = world if world is not None else MailboxWorld(layout.n_ranks)
        require(
            self.world.n_ranks == layout.n_ranks,
            "world size must match layout",
            SolverError,
        )
        self.comms: list[RankComm] = self.world.comms()
        self.t = 0.0
        self.n_cycles_taken = 0
        self.active_levels = plan.active_levels
        # One persistent apply output per rank, shared by every level (a
        # level's result is consumed before the next apply).
        self._zl: list[np.ndarray] = [np.empty(len(g)) for g in layout.gdofs]
        self._Minv, self._minv = plan.Minv, plan.minv
        self._apply0 = [rs.fork().apply for rs in plan.restr0]
        self._plans = {k: p.fork() for k, p in plan.exchange.items()}
        #: ``_depths[i][r]``: rank ``r``'s compact state at depth ``i``.
        self._depths = [
            [d.bind(z) for d, z in zip(ds, self._zl)] for ds in plan.depths
        ]
        #: Depth 0's per-rank states (empty with one level) and their
        #: saved copies of the active rows.
        self._top = self._depths[0] if self._depths else []
        self._u0l = [np.empty(len(d.idx)) for d in self._top]
        self._v0l = [np.empty(len(d.idx)) for d in self._top]
        #: Per rank, the one buffer every fine level's apply reads (each
        #: substep scatters the level's columns into it first); always
        #: finite, since the matrix-free gather multiplies the entries it
        #: does not use by a zero mask.
        self._wl = [np.zeros(len(d.z)) for d in self._top]

    def _subtract_force(self, z_locals: list[np.ndarray]) -> None:
        """``z -= f(t)`` on every rank's replica, in place."""
        if self.force is None:
            return
        if self._force_at is not None:
            value = self.force.value(self.t)
            for r, i in self._force_at:
                z_locals[r][i] -= value
        else:
            f_locals = self.layout.scatter(self.force(self.t))
            for r in range(self.layout.n_ranks):
                z_locals[r] -= f_locals[r]

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing (fields live with the
        caller; pair this with the ``u_locals``/``v_locals`` vectors)."""
        return {"t": self.t, "cycle": self.n_cycles_taken}

    def restore(self, state: dict) -> None:
        """Resume the schedule position saved by :meth:`state`."""
        self.t = float(state["t"])
        self.n_cycles_taken = int(state["cycle"])

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

    def run(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        n_cycles: int,
        health: HealthGuard | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint: Callable | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter global staggered state, run cycles, gather back.

        ``health`` checks the per-rank replicas on its cadence;
        ``on_checkpoint(cycle, u_locals, v_locals)`` fires every
        ``checkpoint_every`` completed cycles with copies of the
        replicas (cycle counts are the solver totals, so resumed runs
        keep their cadence).
        """
        fields = RankFields(
            self.layout, self.layout.scatter(u0), self.layout.scatter(v0)
        )
        return run_cycles(
            self, fields, n_cycles, health=health,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
        )

    # -- collectives -----------------------------------------------------
    def _exchange_sum(
        self, z_locals: list[np.ndarray], plan: ExchangePlan, tag: int = 0
    ) -> None:
        """Sum shared-DOF entries across ranks, in place.

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
        for r in range(plan.n_ranks):
            z = z_locals[r]
            send = self.comms[r].Send
            for peer, idx, buf in zip(
                plan.peers[r], plan.indices[r], plan.send_bufs[r]
            ):
                z.take(idx, out=buf, mode="clip")
                send(buf, peer, tag)
        for r in range(plan.n_ranks):
            z = z_locals[r]
            recv = self.comms[r].recv
            for peer, idx, acc in zip(
                plan.peers[r], plan.indices[r], plan.acc_bufs[r]
            ):
                z.take(idx, out=acc, mode="clip")
                acc += recv(peer, tag)
                z[idx] = acc

    def workspace_bytes(self) -> int:
        """Bytes of persistent hot-path scratch the solver owns: apply
        outputs, ``1/M``, exchange pack/accumulate buffers, and the
        compact recursion state with its index maps (the rank-local
        operators' own scratch is theirs to report)."""
        bufs = [*self._zl, *self._Minv, *self._wl, *self._u0l, *self._v0l]
        bufs += [d.idx for d in self._top]
        bufs += self._minv[0] if self._minv else []
        for ds in self._depths:
            for d in ds:
                bufs += [d.restr.cols, d.colpos, d.u, d.v, d.F, d.r, d.c]
        total = sum(b.nbytes for b in bufs)
        total += sum(p.workspace_bytes() for p in self._plans.values())
        return int(total)

    def _advance(self, i: int, n_steps: int) -> None:
        """Advance every rank's auxiliary system of levels
        ``active_levels[i+1:]`` on its local active set, in lock step.

        Per rank this is :meth:`repro.core.lts_newmark.LTSNewmarkSolver
        ._advance` — same compact updates, same closed form on the
        leading ``n_diff`` entries — with the level's halo sum between
        the apply and the gather, and the gathered rows scaled by
        ``1/M`` (the rank-local ``K`` is bare).
        """
        ds = self._depths[i]
        lv = ds[0].level
        dt_k = self.dt / float(2 ** (lv - 1))
        plan, z = self._plans[lv], self._zl
        kids = self._depths[i + 1] if i + 1 < len(self._depths) else None
        if kids is not None:
            ratio = 2 ** (kids[0].level - lv)
            inner = [(d.u[d.n_diff:], d.r[d.n_diff:], d.r[:d.n_diff]) for d in ds]
        for s in range(n_steps):
            for d, w in zip(ds, self._wl):
                d.u.take(d.colpos, out=d.c, mode="clip")
                w[d.restr.cols] = d.c
                d.restr.apply(w, out=d.z)
            self._exchange_sum(z, plan)
            for r, (d, minv) in enumerate(zip(ds, self._minv[i])):
                rhs = d.r
                d.z.take(d.idx, out=rhs, mode="clip")
                rhs *= minv
                rhs += d.F  # rhs = F + A P_k u on the active set
                if kids is not None:
                    u_in, r_in, _ = inner[r]
                    np.copyto(kids[r].F, r_in)
                    np.copyto(kids[r].u, u_in)
                elif s == 0:
                    np.multiply(rhs, -(0.5 * dt_k), out=d.v)
                else:
                    rhs *= dt_k
                    d.v -= rhs
            if kids is not None:
                self._advance(i + 1, ratio)
                for d, kid, (u_in, r_in, r_out) in zip(ds, kids, inner):
                    np.subtract(kid.u, u_in, out=r_in)
                    r_in /= dt_k  # recon = (u_fine - u) / dt_k
                    r_out *= -(0.5 * dt_k)
                    if s == 0:
                        np.copyto(d.v, d.r)
                    else:
                        d.r *= 2.0
                        d.v += d.r
            for d in ds:
                np.multiply(d.v, dt_k, out=d.r)
                d.u += d.r

    def step(self, u_locals: list[np.ndarray], v_locals: list[np.ndarray]) -> None:
        """One LTS cycle of the coarse step ``dt`` across all ranks."""
        self.world.begin_superstep()
        dt, z = self.dt, self._zl
        for apply, u, zr in zip(self._apply0, u_locals, z):
            apply(u, out=zr)
        self._exchange_sum(z, self._plans[self.active_levels[0]])
        for zr, minv in zip(z, self._Minv):
            zr *= minv
        self._subtract_force(z)  # z = A P_1 u - f; the apply output is ours
        fine = self._top
        for d, u, v, zr, u0, v0 in zip(fine, u_locals, v_locals, z, self._u0l, self._v0l):
            u.take(d.idx, out=u0, mode="clip")
            v.take(d.idx, out=v0, mode="clip")
            zr.take(d.idx, out=d.F, mode="clip")
            np.copyto(d.u, u0)
        for u, v, zr in zip(u_locals, v_locals, z):
            # Plain Newmark on the whole local vector: with one level
            # that is the scheme; with more, the closed form of every
            # DOF outside the coarsest active set, whose rows are saved
            # above and overwritten below.
            zr *= dt
            v -= zr
            np.multiply(v, dt, out=zr)
            u += zr
        if fine:
            self._advance(0, 2 ** (fine[0].level - 1))
        for d, u, v, u0, v0 in zip(fine, u_locals, v_locals, self._u0l, self._v0l):
            # The active rows from the recursion's result:
            # v += 2 (u_fine - u) / dt, u += dt v on the saved copies.
            rec = d.r
            np.subtract(d.u, u0, out=rec)
            rec *= 2.0 / dt
            v0 += rec
            v[d.idx] = v0
            np.multiply(v0, dt, out=rec)
            u0 += rec
            u[d.idx] = u0
        self.t += dt
        self.n_cycles_taken += 1


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
