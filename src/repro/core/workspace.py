"""Hot-path buffer pool and steady-state performance probes.

The paper's Sec. II-C stresses that the optimized LTS implementation
must cost, per substep, only the work of the active set.  Our NumPy
implementation restricted the *operation count* early on, but every
stiffness apply and vector update still paid the Python/NumPy
allocator: gather buffers, contraction temporaries, a fresh scatter
vector per apply, and a temporary per axpy.  This module is the
allocation-discipline layer that removes that overhead:

* :class:`Workspace` — a tiny named buffer pool.  Operators and solvers
  own one, request buffers by name once, and reuse them on every
  subsequent step; ``nbytes`` makes the footprint observable.
* :func:`csr_matvec_into` — ``out=``-style CSR products (via the
  ``csr_matvec`` kernel scipy's own ``@`` uses, accumulated into a
  caller buffer), behind a wrapped matrix's ``apply(u, out=)``;
  every solver applies its stiffness through that protocol.
* :class:`HotPathStats` / :class:`HotPathTracer` — the opt-in evidence:
  steady-state steps/sec, tracemalloc block/byte deltas per step, and
  pooled workspace bytes, surfaced in
  ``SimulationResult.metadata["perf"]`` and the CLI summary.

Everything here is backend-agnostic; the SEM-specific pooling (kernel
workspaces, the sort-plan segment-sum scatter) lives in
:mod:`repro.sem.matfree`.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.errors import SolverError
from repro.util.validation import require


class Workspace:
    """Named preallocated buffers for a hot loop.

    ``buf(key, shape)`` returns the same C-contiguous array on every
    call with matching shape — the caller overwrites it fully (or
    zero-fills explicitly); contents are never guaranteed across calls.
    Keys are any hashable (kernels key by ``(name, batch_shape)``
    tuples so unusual batch sizes get their own buffers).  Requesting
    a known key with a different shape is a bug in the caller (shapes
    of pooled buffers are fixed at operator/solver construction) and
    raises :class:`~repro.util.errors.SolverError`.  The hit path is
    deliberately bare — one dict probe and one tuple compare — because
    it runs inside every kernel contraction.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}

    def buf(self, key, shape: tuple | int, dtype=np.float64) -> np.ndarray:
        b = self._bufs.get(key)
        if b is not None:
            if b.shape == shape:
                return b
            if isinstance(shape, (int, np.integer)):
                shape = (int(shape),)
            if b.shape != tuple(shape) or b.dtype != np.dtype(dtype):
                raise SolverError(
                    f"workspace buffer {key!r} requested with shape "
                    f"{shape}/{dtype}, but holds {b.shape}/{b.dtype}"
                )
            return b
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        b = np.empty(shape, dtype=dtype)
        self._bufs[key] = b
        return b

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pool."""
        return sum(b.nbytes for b in self._bufs.values())


def csr_matvec_into(A, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = A @ x`` for CSR ``A`` without allocating the result.

    Uses the same row-sequential ``csr_matvec`` kernel scipy's ``@``
    dispatches to, so the result is bitwise identical to ``A @ x``;
    falls back to an allocating product (plus copy) if the private
    sparsetools entry point ever moves.
    """
    try:
        from scipy.sparse import _sparsetools

        out[:] = 0.0
        _sparsetools.csr_matvec(
            A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out
        )
    except (ImportError, AttributeError):  # pragma: no cover - scipy internals moved
        out[:] = A @ x
    return out


def workspace_bytes(*objs) -> int:
    """Sum of ``workspace_bytes()`` over objects exposing it (0 for the
    rest) — the aggregate a solver reports for its operator + scratch."""
    total = 0
    for o in objs:
        fn = getattr(o, "workspace_bytes", None)
        if fn is not None:
            total += int(fn() if callable(fn) else fn)
    return total


def reachable_buffers(root) -> dict[int, int]:
    """``id -> nbytes`` of every distinct array buffer reachable from
    ``root`` — through attributes, containers, bound methods and
    closures, never into a module, a class or a function's globals.
    What the stage cache charges its entries by, a solver plan as well
    as a bare array."""
    seen, buffers, stack = set(), {}, [root]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            if o.base is None:
                buffers[id(o)] = o.nbytes
            stack.append(o.base)  # a view's buffer is its base's
        elif isinstance(o, types.FunctionType):
            stack.extend(c.cell_contents for c in o.__closure__ or ())
        else:
            stack.extend(gc.get_referents(o))
    return buffers


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
@dataclass
class HotPathStats:
    """Steady-state evidence that the hot path stays allocation-free.

    ``allocs_per_step`` is the *net new tracemalloc blocks* per traced
    step (live allocations that survive the step — 0 for a pooled
    loop); ``alloc_peak_bytes_per_step`` is the worst transient
    tracemalloc peak over the step's starting point (temporaries that
    live only inside the step); ``workspace_bytes`` the preallocated
    pool footprint those temporaries moved into.
    """

    steps_per_second: float
    steps_measured: int
    steps_traced: int
    allocs_per_step: float
    alloc_peak_bytes_per_step: int
    workspace_bytes: int

    def as_dict(self) -> dict:
        return {
            "steps_per_second": float(self.steps_per_second),
            "steps_measured": int(self.steps_measured),
            "steps_traced": int(self.steps_traced),
            "allocs_per_step": float(self.allocs_per_step),
            "alloc_peak_bytes_per_step": int(self.alloc_peak_bytes_per_step),
            "workspace_bytes": int(self.workspace_bytes),
        }


class HotPathTracer:
    """tracemalloc window over a few steady-state steps of a live run.

    Call :meth:`before_step` / :meth:`after_step` around every solver
    step; the tracer skips ``warmup`` steps (first-touch lazily builds
    pooled buffers), traces the next ``trace`` steps, then stops
    tracing so the remainder of the run is unperturbed.  If tracemalloc
    was already running (an outer profiler), it is left running.
    """

    def __init__(self, warmup: int = 1, trace: int = 4):
        require(warmup >= 0 and trace >= 1, "need warmup >= 0, trace >= 1", SolverError)
        self.warmup = warmup
        self.trace = trace
        self._started_here = False
        self._snap_before = None
        self._base_current = 0
        self.peak_bytes = 0
        self.net_blocks = 0
        self.steps_traced = 0

    def before_step(self, step_index: int) -> None:
        if step_index == self.warmup:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_here = True
            self._snap_before = tracemalloc.take_snapshot()
        if self.warmup <= step_index < self.warmup + self.trace:
            current, _ = tracemalloc.get_traced_memory()
            self._base_current = current
            tracemalloc.reset_peak()

    def after_step(self, step_index: int) -> None:
        if self.warmup <= step_index < self.warmup + self.trace:
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(self.peak_bytes, peak - self._base_current)
            self.steps_traced += 1
        if step_index == self.warmup + self.trace - 1:
            snap_after = tracemalloc.take_snapshot()
            diff = snap_after.compare_to(self._snap_before, "lineno")
            self.net_blocks = sum(max(d.count_diff, 0) for d in diff)
            self.close()

    def close(self) -> None:
        """Stop tracing if this tracer started it.  Idempotent; call it
        when the run ends (or fails) inside the traced window."""
        self._snap_before = None
        if self._started_here:
            tracemalloc.stop()
            self._started_here = False

    def stats(
        self, steps_per_second: float, steps_measured: int, workspace: int = 0
    ) -> HotPathStats:
        traced = max(self.steps_traced, 1)
        return HotPathStats(
            steps_per_second=steps_per_second,
            steps_measured=steps_measured,
            steps_traced=self.steps_traced,
            allocs_per_step=self.net_blocks / traced,
            alloc_peak_bytes_per_step=int(self.peak_bytes),
            workspace_bytes=int(workspace),
        )


def measure_hot_path(
    step: Callable[[], None],
    n_steps: int = 10,
    warmup: int = 2,
    workspace: int = 0,
) -> HotPathStats:
    """Measure a stepping callable in isolation (benchmarks and the
    allocation-budget tests): ``warmup`` untimed calls, ``n_steps``
    timed calls for steps/sec, then a traced window for the
    allocation metrics."""
    require(n_steps >= 1, "n_steps must be >= 1", SolverError)
    for _ in range(warmup):
        step()
    t0 = time.perf_counter()
    for _ in range(n_steps):
        step()
    elapsed = time.perf_counter() - t0
    tracer = HotPathTracer(warmup=1, trace=min(4, n_steps))
    for i in range(1 + tracer.trace):
        tracer.before_step(i)
        step()
        tracer.after_step(i)
    return tracer.stats(
        steps_per_second=n_steps / max(elapsed, 1e-12),
        steps_measured=n_steps,
        workspace=workspace,
    )
