"""Distributed Newmark and LTS-Newmark over the mailbox runtime.

SPMD execution, rank-serialized: every rank holds only its local vectors
and partial operators (:class:`repro.runtime.halo.RankLayout`); each
stiffness application performs the partial product and a halo exchange
that sums shared-DOF contributions — one synchronization per substep,
exactly the pattern whose load sensitivity Fig. 1 illustrates.

The rank-local stiffness is consumed through the operator protocol
(``K_local[r] @ u``), so both layout backends — assembled partial CSR
and matrix-free tensor-product (``build_rank_layout(backend="matfree")``)
— run unchanged, in any dimension the SEM layer discretizes (1D
intervals through the 3D hexahedral meshes of the paper's benchmarks)
and for any physics it declares (scalar acoustic or multi-component
elastic; the interleaved elastic DOFs exchange through the same halo
plans).  With the matrix-free backend, the LTS solver's
per-level application restricts the stiffness to the active level's
elements plus their gray halo (:meth:`repro.sem.matfree
.MatrixFreeStiffness.masked_subset`) instead of masking a full local
product, as the paper's Sec. II-C implementation does.

The distributed LTS recursion is the full-vector reference scheme applied
to rank-local vectors, so the distributed solution equals the serial
solver up to floating-point summation order (tested at ~1e-12): the
partitioned execution computes *the same scheme*, for any partition.

There is no time loop here: ``run`` hands a :class:`RankFields` view of
the per-rank replicas to :func:`repro.core.newmark.run_cycles`, the one
cycle loop the serial solvers and the façade also use.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.newmark import run_cycles
from repro.core.workspace import make_apply_into
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


class _DistributedBase:
    """Shared machinery: halo-summed ``A`` application and state I/O."""

    def __init__(
        self,
        layout: RankLayout,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        self.layout = layout
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
        # Pooled hot-path state: the full-operator exchange plan, one
        # persistent apply output per rank, and in-place appliers for the
        # rank-local stiffness (built lazily on first use).
        self._plan_full: ExchangePlan | None = None
        self._zl: list[np.ndarray] = [
            np.empty(len(g)) for g in layout.gdofs
        ]
        self._apply_into_local = [make_apply_into(K) for K in layout.K_local]

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

    def _full_plan(self) -> ExchangePlan:
        if self._plan_full is None:
            self._plan_full = self.layout.exchange_plan()
        return self._plan_full

    def workspace_bytes(self) -> int:
        """Bytes of persistent hot-path scratch (apply outputs, exchange
        pack/accumulate buffers, per-level plans where present)."""
        total = sum(z.nbytes for z in self._zl)
        if self._plan_full is not None:
            total += self._plan_full.workspace_bytes()
        for plan in getattr(self, "_plans", {}).values():
            total += plan.workspace_bytes()
        for attr in ("_uml", "_F1l"):
            total += sum(b.nbytes for b in getattr(self, attr, ()))
        return int(total)

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
        self,
        z_locals: list[np.ndarray],
        tag: int = 0,
        plan: ExchangePlan | None = None,
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
        still holds.  ``plan=None`` uses the cached full-operator plan.
        """
        if plan is None:
            plan = self._full_plan()
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

    def _apply_A(self, u_locals: list[np.ndarray]) -> list[np.ndarray]:
        """Global ``A u = M^{-1} K u`` on consistent local vectors.

        Writes into the persistent per-rank outputs ``self._zl`` — the
        returned list is reused by the next apply, so callers must
        consume it before re-entering."""
        lay = self.layout
        z = self._zl
        for r in range(lay.n_ranks):
            self._apply_into_local[r](u_locals[r], z[r])
        self._exchange_sum(z)
        for r in range(lay.n_ranks):
            z[r] /= lay.M_local[r]
        return z


class DistributedNewmarkSolver(_DistributedBase):
    """Non-LTS reference scheme, domain-decomposed (Eqs. (5)-(6))."""

    def __init__(
        self,
        layout: RankLayout,
        dt: float,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        super().__init__(layout, world, force)
        self.dt = check_positive(dt, "dt", SolverError)

    def step(self, u_locals: list[np.ndarray], v_locals: list[np.ndarray]) -> None:
        self.world.begin_superstep()
        z = self._apply_A(u_locals)
        self._subtract_force(z)  # z = A u - f; the apply output is ours
        for r in range(self.layout.n_ranks):
            v_locals[r] -= self.dt * z[r]
            u_locals[r] += self.dt * v_locals[r]
        self.t += self.dt
        self.n_cycles_taken += 1


class DistributedLTSSolver(_DistributedBase):
    """Multi-level LTS-Newmark, domain-decomposed.

    Requires ``layout.dof_level_local`` (pass ``dof_level`` to
    :func:`repro.runtime.halo.build_rank_layout`).  ``dt`` is the coarse
    cycle step, as in :class:`repro.core.lts_newmark.LTSNewmarkSolver`.
    """

    def __init__(
        self,
        layout: RankLayout,
        dt: float,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        super().__init__(layout, world, force)
        require(
            len(layout.dof_level_local) == layout.n_ranks,
            "layout must carry dof levels (build_rank_layout(dof_level=...))",
            SolverError,
        )
        self.dt = check_positive(dt, "dt", SolverError)
        all_levels: set[int] = set()
        for lv in layout.dof_level_local:
            all_levels.update(int(x) for x in np.unique(lv))
        require(min(all_levels, default=1) >= 1, "levels must be >= 1", SolverError)
        #: Non-empty levels across the whole domain (every rank follows the
        #: same global schedule even if a level is locally absent).
        self.active_levels = sorted(all_levels)
        self._masks = [
            {
                k: (layout.dof_level_local[r] == k)
                for k in self.active_levels
            }
            for r in range(layout.n_ranks)
        ]
        # Per-level restricted operators where the backend supports it
        # (matrix-free): apply only the level's elements + gray halo.
        self._K_level: list[dict[int, object] | None] = []
        for r in range(layout.n_ranks):
            K = layout.K_local[r]
            if hasattr(K, "masked_subset"):
                self._K_level.append(
                    {k: K.masked_subset(self._masks[r][k]) for k in self.active_levels}
                )
            else:
                self._K_level.append(None)
        self._K_level_into = [
            None if d is None else {k: make_apply_into(d[k]) for k in d}
            for d in self._K_level
        ]
        # Per-level exchange plans: channel positions outside every
        # sharer's structural row support carry only zeros, so each
        # level's plan keeps just the reachable slice (and drops
        # untouched channels outright).  Message volume then scales with
        # the level footprint instead of the full interface.
        self._plans: dict[int, ExchangePlan] = {
            k: layout.exchange_plan(supports=self._level_supports(k))
            for k in self.active_levels
        }
        self._uml = [np.empty(len(g)) for g in layout.gdofs]  # mask scratch
        self._F1l = [np.empty(len(g)) for g in layout.gdofs]

    def _level_supports(self, k: int) -> list[np.ndarray]:
        """Per-rank boolean masks of rows level ``k``'s restricted
        stiffness can write (elements of the level plus gray halo)."""
        supports = []
        for r in range(self.layout.n_ranks):
            if self._K_level[r] is not None:
                supports.append(self._K_level[r][k].row_support())
            else:
                K = self.layout.K_local[r]
                cols = np.nonzero(self._masks[r][k])[0]
                mask = np.zeros(K.shape[0], dtype=bool)
                if len(cols):
                    mask[np.unique(K.tocsc()[:, cols].indices)] = True
                supports.append(mask)
        return supports

    # -- level-restricted stiffness application ---------------------------
    def _apply_level(self, k: int, u_locals: list[np.ndarray]) -> list[np.ndarray]:
        """Level-``k`` ``A`` application into the persistent per-rank
        outputs ``self._zl`` (consumed by callers before the next
        apply), exchanged through the level's coalesced plan."""
        lay = self.layout
        z = self._zl
        for r in range(lay.n_ranks):
            if self._K_level_into[r] is not None:
                self._K_level_into[r][k](u_locals[r], z[r])
            else:
                um = self._uml[r]
                np.multiply(u_locals[r], self._masks[r][k], out=um)
                self._apply_into_local[r](um, z[r])
        self._exchange_sum(z, plan=self._plans[k])
        for r in range(lay.n_ranks):
            z[r] /= lay.M_local[r]
        return z

    # -- recursion (reference scheme on local vectors) --------------------
    def _advance(
        self,
        i: int,
        u_locals: list[np.ndarray],
        F_locals: list[np.ndarray],
        n_steps: int,
    ) -> list[np.ndarray]:
        lay = self.layout
        lv = self.active_levels[i]
        dt_k = self.dt / float(2 ** (lv - 1))
        u = [x.copy() for x in u_locals]
        last = i == len(self.active_levels) - 1
        if last:
            v = [np.zeros_like(x) for x in u]
            for s in range(n_steps):
                z = self._apply_level(lv, u)
                for r in range(lay.n_ranks):
                    rhs = F_locals[r] + z[r]
                    if s == 0:
                        v[r] = -(0.5 * dt_k) * rhs
                    else:
                        v[r] -= dt_k * rhs
                    u[r] += dt_k * v[r]
            return u
        ratio = 2 ** (self.active_levels[i + 1] - lv)
        v = [np.zeros_like(x) for x in u]
        for m in range(n_steps):
            z = self._apply_level(lv, u)
            F2 = [F_locals[r] + z[r] for r in range(lay.n_ranks)]
            u_fine = self._advance(i + 1, u, F2, ratio)
            for r in range(lay.n_ranks):
                recon = (u_fine[r] - u[r]) / dt_k
                if m == 0:
                    v[r] = recon
                else:
                    v[r] += 2.0 * recon
                u[r] += dt_k * v[r]
        return u

    def step(self, u_locals: list[np.ndarray], v_locals: list[np.ndarray]) -> None:
        """One LTS cycle of the coarse step ``dt`` across all ranks."""
        self.world.begin_superstep()
        lay = self.layout
        if len(self.active_levels) == 1:
            z = self._apply_level(self.active_levels[0], u_locals)
            self._subtract_force(z)
            for r in range(lay.n_ranks):
                v_locals[r] -= self.dt * z[r]
                u_locals[r] += self.dt * v_locals[r]
        else:
            z = self._apply_level(self.active_levels[0], u_locals)
            # Copy out of the shared apply output: the recursion below
            # re-enters _apply_level, which would overwrite it.
            F1 = self._F1l
            for r in range(lay.n_ranks):
                F1[r][:] = z[r]
            self._subtract_force(F1)
            n_sub = 2 ** (self.active_levels[1] - 1)
            u_t = self._advance(1, u_locals, F1, n_sub)
            for r in range(lay.n_ranks):
                v_locals[r] += (2.0 / self.dt) * (u_t[r] - u_locals[r])
                u_locals[r] += self.dt * v_locals[r]
        self.t += self.dt
        self.n_cycles_taken += 1
