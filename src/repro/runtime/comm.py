"""In-memory mailbox communicator with mpi4py-style semantics.

mpi4py is unavailable offline, so the distributed executor runs all ranks
in one process, interleaved in BSP supersteps; messages travel through a
shared mailbox keyed ``(src, dst, tag)``.  The API mirrors the mpi4py
buffer conventions (``Send``/``Recv``/``Allreduce`` with NumPy arrays) so
the executor's communication pattern is exactly what an MPI port would
issue — the halo-exchange code would transfer to ``mpi4py.MPI.COMM_WORLD``
unchanged.

Semantics: sends are non-blocking; receives pop in FIFO order per
``(src, dst, tag)`` channel and raise :class:`CommError` when empty — a
deliberate departure from blocking MPI, because in a rank-serialized
runtime a blocking receive would be a deadlock anyway, and failing fast
surfaces schedule bugs (receiving before the peer's superstep ran).

``Send`` queues a copy of its buffer (buffered, like ``MPI_Bsend``).
``Isend`` queues the buffer itself, so the receiver gets the very array
that was sent and no payload is copied; its rule is ``MPI_Isend``'s: the
sender leaves the buffer alone until the receive has completed.  Either
way the message is counted and passes the world's transport hooks
(:class:`repro.runtime.faults.FaultyWorld` duplicates and bit-flips
copies, never the sender's buffer).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.util.errors import CommError
from repro.util.validation import require


class MailboxWorld:
    """Shared state for a set of :class:`RankComm` endpoints."""

    def __init__(self, n_ranks: int):
        require(n_ranks >= 1, "need at least one rank", CommError)
        self.n_ranks = int(n_ranks)
        self._boxes: dict[tuple[int, int, int], deque] = {}
        self.sent_messages = 0
        self.sent_volume = 0  # total array elements shipped

    def comm(self, rank: int) -> "RankComm":
        require(0 <= rank < self.n_ranks, f"rank {rank} out of range", CommError)
        return RankComm(self, rank)

    def comms(self) -> list["RankComm"]:
        """One endpoint per rank."""
        return [RankComm(self, r) for r in range(self.n_ranks)]

    def pending(self) -> int:
        """Number of undelivered messages (0 after a clean run)."""
        return sum(len(q) for q in self._boxes.values())

    def channels(self, dst: int | None = None) -> dict[tuple[int, int, int], int]:
        """Non-empty channels as ``{(src, dst, tag): queue depth}``.

        ``dst`` restricts the view to one destination rank — the
        introspection behind the "no message pending" diagnostics and
        the executors' end-of-run leak check.
        """
        return {
            k: len(q)
            for k, q in self._boxes.items()
            if q and (dst is None or k[1] == dst)
        }

    def begin_superstep(self) -> None:
        """BSP superstep boundary hook (no-op here).

        The distributed executors call this once per solver step;
        :class:`repro.runtime.faults.FaultyWorld` overrides it to
        advance its deterministic fault schedule.
        """

    @staticmethod
    def describe_channels(channels: Mapping) -> str:
        """Render a ``channels()`` mapping for error messages."""
        return ", ".join(
            f"(src={s}, dst={d}, tag={t}) x{n}"
            for (s, d, t), n in sorted(channels.items())
        )

    # -- internals -----------------------------------------------------
    def _push(self, src: int, dst: int, tag: int, payload: np.ndarray) -> None:
        # Hot path (one call per message): format nothing, build no queue
        # unless the check fails or the channel is new.
        if not 0 <= dst < self.n_ranks:
            raise CommError(f"dest rank {dst} out of range")
        box = self._boxes.get((src, dst, tag))
        if box is None:
            box = self._boxes[src, dst, tag] = deque()
        box.append(payload)
        self.sent_messages += 1
        self.sent_volume += payload.size

    def _pop(self, src: int, dst: int, tag: int) -> np.ndarray:
        box = self._boxes.get((src, dst, tag))
        if not box:
            inbound = self.channels(dst)
            detail = (
                f"pending for rank {dst}: {self.describe_channels(inbound)}"
                if inbound
                else f"no channels pending for rank {dst}"
            )
            raise CommError(
                f"rank {dst} receive from {src} tag {tag}: no message pending "
                f"(peer superstep not executed yet, or the message was "
                f"lost?); {detail}"
            )
        return box.popleft()


class RankComm:
    """Per-rank communicator endpoint (mpi4py-flavoured API subset)."""

    def __init__(self, world: MailboxWorld, rank: int):
        self.world = world
        self.rank = int(rank)

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- point to point -------------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered send of a copy of ``buf``."""
        self.world._push(self.rank, int(dest), int(tag), np.array(buf, copy=True))

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Zero-copy send: queue ``buf`` itself, counted as ``Send``
        counts.  ``MPI_Isend``'s rule: leave ``buf`` alone until the
        receive has completed — writing it earlier changes what the peer
        receives.  The receiver's ``recv`` returns ``buf`` (the same
        object) unless a transport fault replaced it with a copy.
        ``dest`` and ``tag`` are ints, taken as given."""
        self.world._push(self.rank, dest, tag, buf)

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0) -> None:
        """Receive into ``buf`` (shape/dtype must match the message)."""
        msg = self.world._pop(int(source), self.rank, int(tag))
        if msg.shape != buf.shape:
            raise CommError(
                f"rank {self.rank} Recv from {source} tag {tag}: shape "
                f"{msg.shape} != buffer {buf.shape}"
            )
        buf[...] = msg

    def recv(self, source: int, tag: int = 0) -> np.ndarray:
        """Allocating receive."""
        return self.world._pop(int(source), self.rank, int(tag))


def allreduce_sum(comms: list[RankComm], values: list[np.ndarray]) -> list[np.ndarray]:
    """SUM all-reduce over every rank's array (driver-side collective).

    Because ranks are serialized, collectives are orchestrated by the
    driver that holds all endpoints; this matches how the executor calls
    them and keeps reduction order deterministic (rank ascending).
    """
    require(len(comms) == len(values), "one value per rank required", CommError)
    total = np.array(values[0], copy=True)
    for v in values[1:]:
        total = total + v
    return [total.copy() for _ in comms]
