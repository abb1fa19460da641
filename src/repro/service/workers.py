"""The worker fleet: bounded concurrency, one shared stage cache.

Each worker is a thread claiming jobs off the
:class:`~repro.service.jobs.JobQueue` and publishing results through
the :class:`~repro.service.jobs.JobStore`.  Every job runs inline in
its worker thread and resolves its pipeline *through the one shared*
:class:`~repro.api.cache.StageCache`; the matrix-free kernels and
scipy's CSR matvec both release the GIL for the bulk of a step, so
worker threads overlap on either backend.

* a **simulation job** is one call to
  :func:`repro.api.ensemble.run_member` — the runner ensemble members
  go through.  N queued variants of one warm model resolve each
  distinct mesh / assembler / levels / partition artifact, and the rank
  layout and solver plan built on them, exactly once: the second
  request for a warm model binds the cached plan to fresh buffers and
  pays only the stepping.
* an **ensemble job** runs :func:`repro.api.ensemble.run_ensemble` with
  the shared cache (members one at a time within the job; job-level
  parallelism comes from the pool).

With a ``cache_dir`` the cache's on-disk layer keeps the expensive
artifacts across server restarts.

Results are published atomically (``results/<id>.npz`` via
:func:`repro.util.io.atomic_savez` of
:meth:`repro.api.SimulationResult.to_payload`) *before* the job is marked
``done``, so a ``done`` record always has a complete result behind it.
Failures never kill a worker: the job is marked ``failed`` with the
error message and the worker moves on.

``drain()`` is the graceful-shutdown half of the durability story:
workers stop claiming, finish the job they own, and exit — queued jobs
stay queued *on disk* and are recovered by the next server on the same
data directory.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.api.cache import StageCache
from repro.api.ensemble import EnsembleSpec, run_ensemble, run_member
from repro.service.jobs import JobQueue, JobRecord
from repro.util.errors import ConfigError
from repro.util.io import atomic_savez

__all__ = ["WorkerPool"]


class WorkerPool:
    """``n_workers`` threads draining a :class:`JobQueue` (module docs).

    Parameters
    ----------
    queue:
        The queue to claim from (owns the store the results go to).
    cache:
        The shared :class:`StageCache`; a fresh memory-only one is
        created when omitted.  Give it a ``cache_dir`` to keep its
        artifacts across server restarts.
    n_workers:
        Worker threads, i.e. the bound on concurrent jobs.
    """

    _POLL_SECONDS = 0.2

    def __init__(
        self,
        queue: JobQueue,
        cache: StageCache | None = None,
        n_workers: int = 2,
    ):
        if int(n_workers) < 1:
            raise ConfigError(
                f"WorkerPool n_workers must be >= 1, got {n_workers}"
            )
        self.queue = queue
        self.store = queue.store
        self.cache = cache if cache is not None else StageCache()
        self.n_workers = int(n_workers)
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self.completed_total = 0
        self.failed_total = 0
        self.busy = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            raise ConfigError("WorkerPool is already started")
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def drain(self) -> None:
        """Graceful stop: finish owned jobs, leave the backlog queued.

        Idempotent.  After ``drain()`` returns, no worker thread is
        alive and every job is either terminal or ``queued`` on disk
        (ready for the next server to recover).
        """
        self._stopping.set()
        self.queue.close()
        for t in self._threads:
            t.join()
        self._threads.clear()

    @property
    def alive(self) -> int:
        """Number of live worker threads."""
        return sum(1 for t in self._threads if t.is_alive())

    # -- the loop -------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.claim(timeout=self._POLL_SECONDS)
            if job is None:
                continue
            with self._lock:
                self.busy += 1
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    self.busy -= 1

    def _run_job(self, job: JobRecord) -> None:
        t0 = time.perf_counter()
        try:
            if job.kind == "simulation":
                payload, meta = self._run_simulation(job)
            else:
                payload, meta = self._run_ensemble(job)
            # Publish the result *before* the terminal transition: a
            # "done" record must always have a complete file behind it.
            atomic_savez(self.store.result_path(job.id), **payload)
            meta.setdefault("member", {})["seconds"] = time.perf_counter() - t0
            meta["worker"] = threading.current_thread().name
            self.queue.finish(job.id, metadata=meta)
            with self._lock:
                self.completed_total += 1
        except Exception as e:  # a worker must survive anything
            self._fail(job, f"{type(e).__name__}: {e}")

    def _fail(self, job: JobRecord, message: str) -> None:
        self.queue.fail(job.id, message)
        with self._lock:
            self.failed_total += 1

    # -- the two job kinds ---------------------------------------------
    def _run_simulation(self, job: JobRecord) -> tuple[dict, dict]:
        result = run_member(job.spec, self.cache)
        md = result.metadata
        meta = {
            "member": {
                **md["member"],
                "build_seconds": md["build_seconds"],
                "run_seconds": md["run_seconds"],
                "kernel_tier": md["kernel_tier"],
            }
        }
        if "perf" in md:
            meta["perf"] = md["perf"]
        return result.to_payload(), meta

    def _run_ensemble(self, job: JobRecord) -> tuple[dict, dict]:
        spec = EnsembleSpec.from_dict(job.spec)
        res = run_ensemble(spec, jobs=1, cache=self.cache)
        payload: dict = {
            "summary_json": np.array(json.dumps(res.summary)),
            "n_members": np.array(len(res.members)),
        }
        for i, member in enumerate(res.members):
            for field, value in member.to_payload().items():
                payload[f"member_{i:03d}_{field}"] = value
        s = res.summary
        # Per-job traffic is the sum over member events — the shared
        # cache's global counters aggregate every job on the server.
        members = [m for m in s["members"] if m]
        meta = {
            "member": {
                "name": spec.name or spec.base.name,
                "n_members": s["n_members"],
                "cache_hits": sum(m.get("cache_hits", 0) for m in members),
                "cache_misses": sum(m.get("cache_misses", 0) for m in members),
                "stage_sharing": s["stage_sharing"],
            }
        }
        return payload, meta
