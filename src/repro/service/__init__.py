"""Simulation-as-a-service: job queue + HTTP API over :mod:`repro.api`.

The serving layer the ROADMAP's north star asks for, stdlib-only:

* :mod:`repro.service.jobs` — durable :class:`JobStore` (atomic JSON
  records, crash-recoverable) + priority :class:`JobQueue` with the
  ``queued -> running -> done | failed | cancelled`` lifecycle;
* :mod:`repro.service.workers` — the bounded :class:`WorkerPool`
  executing jobs through **one shared**
  :class:`~repro.api.cache.StageCache` on worker threads, so N
  requests against one warm model resolve each expensive stage exactly
  once;
* :mod:`repro.service.http` — :class:`ReproService`, a
  ``ThreadingHTTPServer`` JSON API (submit/list/status/cancel, atomic
  ``.npz`` result streaming, ``/healthz``, ``/metrics``) with graceful
  drain;
* :mod:`repro.service.client` — :class:`ServiceClient`, the stdlib
  urllib client behind ``python -m repro submit|status|fetch|cancel``.

Quickstart::

    python -m repro serve --data-dir /var/lib/repro --port 8642 &
    python -m repro submit examples/configs/quickstart.json
    python -m repro status <job-id> --wait
    python -m repro fetch <job-id> --output result.npz
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import DEFAULT_PORT, ReproService
from repro.service.jobs import JOB_STATES, JobQueue, JobRecord, JobStore
from repro.service.workers import WorkerPool

__all__ = [
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "JobQueue",
    "WorkerPool",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "DEFAULT_PORT",
]
