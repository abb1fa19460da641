"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing in ``src/`` is instrumented.  The traced pass hands the solvers
duck-typed proxies that time the public call they forward —

* :class:`TracedOperator` — a stiffness operator whose ``restrict()``
  returns timing :class:`~repro.core.operator.Restriction` objects, one
  per LTS level;
* :class:`TracedStiffness` — a rank-local ``K_local[r]`` whose
  ``masked_subset()`` is timed per rank x level;
* :class:`TimingWorld` — a :class:`~repro.runtime.comm.MailboxWorld`
  whose endpoints time ``Send`` / ``recv`` (the way
  :class:`~repro.runtime.faults.FaultyWorld` already wraps the world);
* :class:`TracedClient` — a :class:`~repro.service.client.ServiceClient`
  that times every HTTP round trip

— and keeps the spans in memory until the run ends.  The proxies change
no arithmetic: ``test_harness.py`` checks results are bitwise equal to
the unproxied solver's.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.core.operator import Restriction
from repro.runtime.comm import MailboxWorld, RankComm
from repro.service.client import ServiceClient


class Tracer:
    """In-memory span store.

    A span is ``(name, start, end, parent, request)``: ``parent`` is the
    index of the span that caused it (-1 for a root) and ``request`` the
    identifier shared by all spans of one request — one LTS cycle, one
    Newmark step, one service job.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[tuple | None] = []
        self.parent = -1
        self.request = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def leaf(self, nid: int, t0: float, t1: float) -> None:
        """Record a finished span under the currently open one."""
        self.rows.append((nid, t0, t1, self.parent, self.request))

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Open a span that the leaves recorded inside it hang from."""
        nid = self.name_id(name)
        outer_parent, outer_request = self.parent, self.request
        index = len(self.rows)
        self.rows.append(None)
        self.parent = index
        if request is not None:
            self.request = request
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.rows[index] = (nid, t0, t1, outer_parent, self.request)
            self.parent, self.request = outer_parent, outer_request

    def export(self) -> dict:
        """The spans as JSON-ready columns (microseconds from the first
        start) — written out once, when the pass ends."""
        rows = [r for r in self.rows if r is not None]
        origin = min((r[1] for r in rows), default=0.0)
        return {
            "columns": ["name", "start_us", "duration_us", "parent", "request"],
            "names": self.names,
            "spans": [
                [r[0], round((r[1] - origin) * 1e6, 1),
                 round((r[2] - r[1]) * 1e6, 1), r[3], r[4]]
                for r in rows
            ],
        }


# ----------------------------------------------------------------------
# Serial solver: operator proxy
# ----------------------------------------------------------------------
def level_span(k: int) -> str:
    return f"sem.apply.level{k}"


FULL_APPLY = "sem.apply.full"


class TracedOperator:
    """Stiffness-operator proxy for :class:`LTSNewmarkSolver`.

    Forwards the whole protocol to ``op``; ``restrict(cols)`` wraps the
    returned restriction's apply in a span named after the LTS level
    the columns belong to.  The solver applies the stiffness only
    through its restrictions — the one-level Newmark baseline too, whose
    single restriction is all columns, level 1 — so ``apply`` is timed
    for completeness and stays unused.
    """

    def __init__(self, op, tracer: Tracer, dof_level: np.ndarray):
        self._op = op
        self._tracer = tracer
        self._dof_level = dof_level
        self._full = tracer.name_id(FULL_APPLY)

    shape = property(lambda self: self._op.shape)
    nnz = property(lambda self: self._op.nnz)

    def __getattr__(self, name):
        return getattr(self._op, name)

    def apply(self, u, out=None):
        t0 = perf_counter()
        z = self._op.apply(u, out=out)
        self._tracer.leaf(self._full, t0, perf_counter())
        return z

    def __matmul__(self, u):
        return self.apply(u)

    def reach(self, col_mask):
        return self._op.reach(col_mask)

    def workspace_bytes(self) -> int:
        return self._op.workspace_bytes()

    def restrict(self, cols) -> Restriction:
        inner = self._op.restrict(cols)
        nid = self._tracer.name_id(level_span(int(self._dof_level[inner.cols[0]])))
        leaf = self._tracer.leaf
        inner_apply = inner.apply

        def _apply(u, out=None):
            t0 = perf_counter()
            z = inner_apply(u, out=out)
            leaf(nid, t0, perf_counter())
            return z

        return Restriction(
            cols=inner.cols, ops=inner.ops, _apply=_apply,
            workspace_bytes=inner.workspace_bytes,
        )


# ----------------------------------------------------------------------
# Distributed executor: rank-local stiffness and mailbox proxies
# ----------------------------------------------------------------------
def rank_level_span(rank: int, k: int) -> str:
    return f"runtime.compute.rank{rank}.level{k}"


class TracedStiffness:
    """``layout.K_local[r]`` proxy: times the rank's applies per level.

    :class:`DistributedLTSSolver` asks each rank's stiffness for one
    ``masked_subset`` per active level, coarsest first; the proxy hands
    back the real subset wrapped under ``(rank, level)``.  A level absent
    on a rank still gets its (empty, near-free) subset, so its place in
    the call order is what names it — checked against the mask whenever
    the mask is not empty.
    """

    def __init__(self, K, tracer: Tracer, rank: int, level: int,
                 active_levels=(), dof_level_local=None):
        self._K = K
        self._tracer = tracer
        self._rank = rank
        self._nid = tracer.name_id(rank_level_span(rank, level))
        self._active_levels = tuple(active_levels)
        self._dof_level_local = dof_level_local
        self._next = 0

    shape = property(lambda self: self._K.shape)
    nnz = property(lambda self: self._K.nnz)

    def __getattr__(self, name):
        return getattr(self._K, name)

    def apply(self, u, out=None):
        t0 = perf_counter()
        z = self._K.apply(u, out=out)
        self._tracer.leaf(self._nid, t0, perf_counter())
        return z

    def __matmul__(self, u):
        return self.apply(u)

    def masked_subset(self, col_mask):
        k = self._active_levels[self._next]
        self._next += 1
        if col_mask.any() and not np.all(self._dof_level_local[col_mask] == k):
            raise AssertionError(
                f"rank {self._rank}: masked_subset call order no longer "
                f"follows the active levels (expected level {k})"
            )
        return TracedStiffness(
            self._K.masked_subset(col_mask), self._tracer, self._rank, k
        )


MAILBOX_SEND = "runtime.comm.send"
MAILBOX_RECV = "runtime.comm.recv"


class _TimedComm(RankComm):
    """A :class:`RankComm` whose point-to-point calls are spans."""

    def __init__(self, world: "TimingWorld", rank: int):
        super().__init__(world, rank)
        self._leaf = world.tracer.leaf
        self._send_id = world.tracer.name_id(MAILBOX_SEND)
        self._recv_id = world.tracer.name_id(MAILBOX_RECV)

    def Send(self, buf, dest, tag=0):
        t0 = perf_counter()
        super().Send(buf, dest, tag)
        self._leaf(self._send_id, t0, perf_counter())

    def recv(self, source, tag=0):
        t0 = perf_counter()
        msg = super().recv(source, tag)
        self._leaf(self._recv_id, t0, perf_counter())
        return msg


class TimingWorld(MailboxWorld):
    """A mailbox world whose endpoints time every send and receive."""

    def __init__(self, n_ranks: int, tracer: Tracer):
        super().__init__(n_ranks)
        self.tracer = tracer

    def comm(self, rank: int) -> RankComm:
        return _TimedComm(self, rank)

    def comms(self) -> list[RankComm]:
        return [_TimedComm(self, r) for r in range(self.n_ranks)]


# ----------------------------------------------------------------------
# Service: HTTP round trips
# ----------------------------------------------------------------------
HTTP_SUBMIT = "service.http.submit"
HTTP_STATUS = "service.http.status"
HTTP_FETCH = "service.http.fetch"


class TracedClient(ServiceClient):
    """A service client that records one span per HTTP round trip."""

    def __init__(self, url: str, tracer: Tracer, timeout: float = 60.0):
        super().__init__(url, timeout=timeout)
        self._tracer = tracer
        self._ids = {
            n: tracer.name_id(n) for n in (HTTP_SUBMIT, HTTP_STATUS, HTTP_FETCH)
        }

    def _timed(self, name: str, call, *args, **kwargs):
        t0 = perf_counter()
        out = call(*args, **kwargs)
        self._tracer.leaf(self._ids[name], t0, perf_counter())
        return out

    def submit(self, *args, **kwargs):
        return self._timed(HTTP_SUBMIT, super().submit, *args, **kwargs)

    def job(self, job_id):
        return self._timed(HTTP_STATUS, super().job, job_id)

    def fetch(self, job_id, output):
        return self._timed(HTTP_FETCH, super().fetch, job_id, output)
