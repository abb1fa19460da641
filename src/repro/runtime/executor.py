"""Distributed Newmark and LTS-Newmark over the mailbox runtime.

SPMD execution, rank-serialized: every rank holds only its local vectors
and partial operators (:class:`repro.runtime.halo.RankLayout`); each
stiffness application performs the partial product and a halo exchange
that sums shared-DOF contributions — one synchronization per substep,
exactly the pattern whose load sensitivity Fig. 1 illustrates.

Every rank-local product — the matrix-free share of
:func:`repro.runtime.halo.build_rank_layout`, or a caller's own CSR —
runs through one level-apply path, in any dimension the SEM layer
discretizes and for any physics it declares (the interleaved elastic
DOFs exchange through the same halo plans): level ``k`` on rank ``r`` is
a :class:`~repro.core.operator.Restriction` of the rank's partial ``K``
to the rank's level-``k`` columns — the level's elements plus their gray
halo (:meth:`repro.sem.matfree.MatrixFreeStiffness.masked_subset`), or a
CSR column block — exchanged through a plan that keeps only the shared
DOFs some sharer can write.  A CSR or NumPy-tier share has ``1/M``
folded into its entries, so the sum of the ranks' scaled partials is the
serial operator's product; a fused share is raw, and, as in SPECFEM, the
rank's phases scale the summed share (``Minv (a + b)``).

No LTS arithmetic lives here.  The cycle and the plan are the serial
solver's (:mod:`repro.core.lts_newmark`): one
:class:`~repro.core.lts_newmark._RankState` per rank steps the rank's
replica in its level-sorted numbering, and the one lock-step driver runs
the ranks' phases with this module's halo sum between each level's
apply and its update, so a substep costs each rank work proportional to
its *local* active set.  What ranks add to the
:class:`~repro.core.lts_newmark.LTSPlan` is the exchange channels; on
one rank none is used: the run is the serial run, bit for bit.  A rank's
active sets also hold **every local index the level's exchange plan
keeps** (a shared DOF only a peer's gray-halo element writes still
receives a nonzero through the exchange), and the plan relabels those
indices with the products, so the halo sum packs and accumulates each
level's output where it lies.

The halo sum (:class:`_HaloSum`) is two passes per level — a pack into
the level's one payload buffer and an accumulate in ascending peer
order, one C call each whenever the fused build loads, NumPy loops
otherwise, bitwise equal — around one zero-copy ``Isend`` and one
``recv`` per message.

The distributed solution equals the serial one up to floating-point
summation order (tested at 1e-12 against the serial solver and the
tests' literal Algorithm 1 oracle for random level assignments and
partitions, and bitwise on one rank): the partitioned execution computes
*the same scheme*, for any partition.
Non-LTS Newmark is the same solver on a layout with every DOF on level 1.

There is no time loop or field view here either: ``run`` hands the
per-rank replicas, laid out by the plan's
:class:`~repro.core.newmark.ReplicaMap`, to
:func:`repro.core.newmark.run_cycles` as one
:class:`~repro.core.newmark.Fields` — the loop and the view the serial
solvers and the façade use, a serial run being the one-replica case.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.lts_newmark import LTSPlan, _LockStepCycle
from repro.runtime.comm import MailboxWorld, RankComm
from repro.runtime.halo import RankLayout
from repro.sem import fused
from repro.util.errors import CommError, SolverError
from repro.util.validation import require


class _HaloSum:
    """One level's halo sum over one solver's rank outputs: calling it
    adds every shared entry's peer contributions into each rank's
    output, in place.

    Two BSP supersteps around two passes.  The pack fills every
    channel's slot of the forked plan's payload from the senders'
    outputs; every rank then sends its slots with ``Isend``, the views
    themselves; every rank receives its messages and an accumulate adds
    them in, receivers ascending and, per receiver, peers ascending, so
    a row three ranks share sums in a fixed order.  With ``compiled``
    each pass is one C call (:mod:`repro.sem.fused`'s ``halo_pack`` /
    ``halo_accumulate``), else a NumPy loop over the channels — the
    same copies and adds in the same order, bitwise equal.

    A received message that is its slot (every message, in a clean
    world) is already in place.  Anything else — a copy a fault plan
    duplicated or bit-flipped in flight — is copied into the slot
    first.  Channels the plan dropped as structurally zero are skipped
    by both sides, so no zero-length message is ever queued and
    ``check_no_leaks()`` holds.
    """

    def __init__(self, plan, outputs: list[np.ndarray], comms: list[RankComm],
                 compiled: bool):
        #: Every channel, in payload order (see :meth:`ExchangePlan.routes
        #: <repro.runtime.halo.ExchangePlan.routes>`).
        self.routes = routes = plan.routes()
        slots = [s for per_rank in plan.slots for s in per_rank]
        slot_of = {(dst, src): s for (dst, src, _, _), s in zip(routes, slots)}
        #: Per message, sender ranks ascending, each its peers ascending.
        self.sends = [
            (comms[src].Isend, slot_of[dst, src], dst)
            for src, peers in enumerate(plan.peers) for dst in peers
        ]
        #: Per message, in payload order.
        self.receives = [
            (comms[dst].recv, src, s) for (dst, src, _, _), s in zip(routes, slots)
        ]
        #: The NumPy accumulate's gather buffer (empty on the C path).
        self.scratch = np.empty(
            0 if compiled else max((len(ix) for _, _, ix, _ in routes), default=0)
        )
        if compiled:
            self._bind_c(plan.payload, outputs)
            return
        self._gathers = [
            (outputs[src].take, src_ix, s) for (_, src, _, src_ix), s in zip(routes, slots)
        ]
        self._adds = [
            (outputs[dst], dst_ix, self.scratch[:len(dst_ix)], s)
            for (dst, _, dst_ix, _), s in zip(routes, slots)
        ]
        self.pack, self.accumulate = self._pack, self._accumulate

    def _bind_c(self, payload: np.ndarray, outputs: list[np.ndarray]) -> None:
        """Bind the C passes: per channel its payload offset, and the
        addresses of the output and the indices each pass goes through
        (int64 tables built once; the arrays they point to are held
        here, by :attr:`routes` and the solver's states)."""
        dst, src, dst_ix, src_ix = zip(*self.routes) if self.routes else ((),) * 4
        off = np.cumsum([0, *map(len, dst_ix)], dtype=np.int64)

        def addresses(arrays, dtype):
            arrays = list(arrays)
            if not all(a.dtype == dtype and a.flags.c_contiguous for a in arrays):
                raise TypeError(f"the halo passes read C-contiguous {np.dtype(dtype)} arrays")
            return np.array([a.ctypes.data for a in arrays], dtype=np.int64)

        self._c_args = [
            (off, addresses((outputs[r] for r in ranks), np.float64), addresses(ixs, np.int64))
            for ranks, ixs in ((src, src_ix), (dst, dst_ix))
        ]
        self.pack, self.accumulate = (
            fused.bind_phase(name, len(self.routes), *args, payload)
            for name, args in zip(("halo_pack", "halo_accumulate"), self._c_args)
        )

    def _pack(self) -> None:
        for take, idx, slot in self._gathers:
            take(idx, out=slot, mode="clip")

    def _accumulate(self) -> None:
        for z, idx, acc, slot in self._adds:
            z.take(idx, out=acc, mode="clip")
            acc += slot
            z[idx] = acc

    def __call__(self) -> None:
        self.pack()
        for isend, slot, dst in self.sends:
            isend(slot, dst)
        for recv, src, slot in self.receives:
            msg = recv(src)
            if msg is not slot:
                if msg.shape != slot.shape:
                    raise CommError(
                        f"rank {recv.__self__.rank} receive from {src}: message "
                        f"shape {msg.shape} != its slot {slot.shape}"
                    )
                slot[...] = msg
        self.accumulate()


class DistributedLTSSolver(_LockStepCycle):
    """Multi-level LTS-Newmark, domain-decomposed.

    Requires ``layout.dof_level_local`` (pass ``dof_level`` to
    :func:`repro.runtime.halo.build_rank_layout`); the layout's
    :class:`~repro.core.lts_newmark.LTSPlan` may stand for it.  ``dt`` is
    the coarse cycle step, as in
    :class:`repro.core.lts_newmark.LTSNewmarkSolver`.  What derives from
    the layout alone is kept as :attr:`plan`; to step the same
    decomposition again, :meth:`~repro.core.lts_newmark.LTSPlan.bind` it.
    """

    def __init__(
        self,
        layout: RankLayout | LTSPlan,
        dt: float,
        world: MailboxWorld | None = None,
        force: Callable[[float], np.ndarray] | None = None,
    ):
        self.plan = plan = layout if isinstance(layout, LTSPlan) else LTSPlan(layout)
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
        self._bind(plan.numberings)
        #: Per level, each rank's apply output (what the exchange sums).
        self._outputs = {
            k: [st.outputs[j] for st in self._states]
            for j, k in enumerate(self.active_levels)
        }
        compiled = fused.available()
        self._sums = {
            k: _HaloSum(p, self._outputs[k], self.comms, compiled)
            for k, p in self._plans.items()
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

    # -- collectives -----------------------------------------------------
    def _sum_shared(self, level: int) -> None:
        """Sum the shared-DOF entries of ``level``'s apply outputs across
        ranks, in place: the level's :class:`_HaloSum`."""
        self._sums[level]()

    def workspace_bytes(self) -> int:
        """Bytes of persistent hot-path scratch the solver owns: the
        rank states (apply outputs, compact recursion, what
        the restricted products report of their scratch) — counted as
        the serial solver counts its one state — plus the exchange
        payloads and the NumPy accumulate's scratch."""
        total = sum(st.nbytes() for st in self._states)
        total += sum(p.workspace_bytes() for p in self._plans.values())
        total += sum(h.scratch.nbytes for h in self._sums.values())
        return int(total)

    def cycle(self, us, vs) -> None:
        """The lock-step cycle, opening a superstep of the world first."""
        self.world.begin_superstep()
        super().cycle(us, vs)

    def step(self, u_locals: list[np.ndarray], v_locals: list[np.ndarray]) -> None:
        """One LTS cycle of the coarse step ``dt`` across all ranks: one
        ``(u, v)`` pair per rank in ``plan.replicas``' order, in place."""
        self.cycle(u_locals, v_locals)
