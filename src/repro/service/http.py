"""The HTTP face of the service: a stdlib JSON API over the job queue.

Endpoints (all JSON unless noted)::

    POST   /jobs                submit {"config": {...}} or
                                {"ensemble": {...}} (+ "priority",
                                "name"); a bare SimulationConfig body
                                is accepted too -> 201 + job record
    GET    /jobs[?state=...]    job summaries, oldest first
    GET    /jobs/<id>           one full job record (incl. spec)
    DELETE /jobs/<id>           cancel a queued job -> record
                                (409 for running/terminal jobs)
    GET    /jobs/<id>/result    the atomic result .npz, streamed
                                (409 until the job is done)
    GET    /healthz             liveness + runtime_info() (kernel
                                tiers, cores, REPRO_* env) + worker /
                                queue state
    GET    /metrics             queue depth, jobs by state, totals,
                                throughput, CacheStats

Errors are clean JSON bodies ``{"error": "..."}`` with 4xx for caller
mistakes (unknown job -> 404, invalid config/JSON -> 400, illegal
transition -> 409) and 5xx only for genuine server faults.  The server
is a ``ThreadingHTTPServer`` — one thread per request, which the
stepping workers never block because job execution happens on the
:class:`~repro.service.workers.WorkerPool`, not in request handlers.

:class:`ReproService` wires the whole stack (store + queue + pool +
cache + HTTP) and owns its lifecycle: ``start()`` for tests/embedding,
``serve_forever()`` for the CLI, and ``drain()`` for the graceful
SIGTERM path — stop accepting, finish running jobs, leave the backlog
queued on disk for the next server.
"""

from __future__ import annotations

import json
import re
import shutil
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse, parse_qs

from repro.api.cache import StageCache
from repro.service.jobs import JobQueue, JobRecord, JobStore
from repro.service.workers import WorkerPool
from repro.util.errors import ConfigError
from repro.util.sysinfo import runtime_info

__all__ = ["DEFAULT_PORT", "ReproService"]

#: The conventional service port (any free port works; CI binds 0).
DEFAULT_PORT = 8642

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{1,32})$")
_RESULT_PATH = re.compile(r"^/jobs/([0-9a-f]{1,32})/result$")
_MAX_BODY_BYTES = 64 * 1024 * 1024


def _summary(record: JobRecord) -> dict:
    """The ``GET /jobs`` row: everything but the (possibly large) spec."""
    d = record.to_dict()
    d.pop("spec")
    return d


class _Handler(BaseHTTPRequestHandler):
    """One request; ``self.service`` is injected by the subclass the
    server is constructed with."""

    service: "ReproService"
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.service.verbose:
            super().log_message(format, *args)

    def _send_json(self, code: int, obj) -> None:
        body = (json.dumps(obj, indent=2) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            raise ConfigError(
                f"Content-Length {header!r} is not an integer"
            ) from None
        if length <= 0:
            raise ConfigError("request body is empty; expected JSON")
        if length > _MAX_BODY_BYTES:
            raise ConfigError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"request body is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(
                f"request body must be a JSON object, got "
                f"{type(data).__name__}"
            )
        return data

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        path = urlparse(self.path).path
        if path != "/jobs":
            return self._error(404, f"no such endpoint: POST {path}")
        try:
            data = self._read_body()
            priority = data.pop("priority", 0)
            name = data.pop("name", "")
            if "ensemble" in data:
                kind, spec = "ensemble", data.pop("ensemble")
                if data:
                    raise ConfigError(
                        f"unexpected submission fields {sorted(data)} "
                        f"next to 'ensemble'"
                    )
            elif "config" in data:
                kind, spec = "simulation", data.pop("config")
                if data:
                    raise ConfigError(
                        f"unexpected submission fields {sorted(data)} "
                        f"next to 'config'"
                    )
            else:
                # A bare SimulationConfig body: the existing JSON config
                # format, submittable as-is (curl -d @quickstart.json).
                kind, spec = "simulation", data
            record = self.service.queue.submit(
                spec, kind=kind, priority=priority, name=name
            )
        except ConfigError as e:
            return self._error(400, str(e))
        self._send_json(201, record.to_dict())

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            return self._send_json(200, self.service.health())
        if path == "/metrics":
            return self._send_json(200, self.service.metrics())
        if path == "/jobs":
            state = parse_qs(parsed.query).get("state", [None])[0]
            try:
                records = self.service.queue.jobs(state=state)
            except ConfigError as e:
                return self._error(400, str(e))
            return self._send_json(
                200, {"jobs": [_summary(r) for r in records]}
            )
        m = _JOB_PATH.match(path)
        if m:
            record = self.service.queue.get(m.group(1))
            if record is None:
                return self._error(404, f"unknown job {m.group(1)!r}")
            return self._send_json(200, record.to_dict())
        m = _RESULT_PATH.match(path)
        if m:
            return self._send_result(m.group(1))
        return self._error(404, f"no such endpoint: GET {path}")

    def do_DELETE(self) -> None:  # noqa: N802
        path = urlparse(self.path).path
        m = _JOB_PATH.match(path)
        if not m:
            return self._error(404, f"no such endpoint: DELETE {path}")
        job_id = m.group(1)
        record = self.service.queue.get(job_id)
        if record is None:
            return self._error(404, f"unknown job {job_id!r}")
        try:
            record = self.service.queue.cancel(job_id)
        except ConfigError as e:
            return self._error(409, str(e))
        self._send_json(200, record.to_dict())

    def _send_result(self, job_id: str) -> None:
        record = self.service.queue.get(job_id)
        if record is None:
            return self._error(404, f"unknown job {job_id!r}")
        if record.state != "done":
            detail = f": {record.error}" if record.error else ""
            return self._error(
                409,
                f"job {job_id} is {record.state}{detail}; results exist "
                f"only for done jobs",
            )
        path = self.service.store.result_path(job_id)
        if not path.is_file():  # the done-implies-result contract broke
            return self._error(500, f"result file for job {job_id} is missing")
        size = path.stat().st_size
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(size))
        self.send_header(
            "Content-Disposition", f'attachment; filename="{path.name}"'
        )
        self.end_headers()
        with path.open("rb") as f:
            shutil.copyfileobj(f, self.wfile)


class ReproService:
    """The assembled service: store + queue + workers + cache + HTTP.

    Parameters
    ----------
    data_dir:
        Durable state root — job records and published results.  Two
        servers must not share a live data dir; one restarted server
        recovering a dead one's dir is the intended use.
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port (read it
        back from :attr:`port`).
    workers:
        Worker-pool width (concurrent jobs).
    cache_dir:
        Optional on-disk stage-cache layer: expensive artifacts (CSR,
        levels, partitions) persist across server restarts and are
        shareable by a whole single-host fleet (within one server the
        memory layer already shares them between jobs).
    verbose:
        Log one line per HTTP request to stderr (quiet by default).
    """

    def __init__(
        self,
        data_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: str | Path | None = None,
        cache: StageCache | None = None,
        verbose: bool = False,
    ):
        if cache is not None and cache_dir is not None:
            raise ConfigError(
                "pass either cache= (a StageCache) or cache_dir= (a "
                "path), not both"
            )
        self.store = JobStore(data_dir)
        self.cache = cache if cache is not None else StageCache(cache_dir=cache_dir)
        self.queue = JobQueue(self.store)
        self.pool = WorkerPool(self.queue, cache=self.cache, n_workers=workers)
        self.verbose = bool(verbose)
        self.started_at = time.time()
        self._info: dict | None = None
        self._info_lock = threading.Lock()
        self._server_thread: threading.Thread | None = None
        self._drained = False
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self.server = ThreadingHTTPServer((host, int(port)), handler)
        self.server.daemon_threads = True

    # -- addresses ------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return int(self.server.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ReproService":
        """Start workers + the HTTP thread and return immediately (the
        embedding/tests entry point; the CLI uses ``serve_forever``)."""
        self.pool.start()
        self._server_thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def serve_forever(self, stop: threading.Event | None = None) -> None:
        """Run until ``stop`` is set (or forever), then drain."""
        self.start()
        try:
            if stop is None:
                while True:
                    time.sleep(3600)
            else:
                stop.wait()
        finally:
            self.drain()

    def drain(self) -> None:
        """Graceful shutdown: stop accepting HTTP + new claims, finish
        the jobs workers own, persist everything, release the port.
        Idempotent."""
        if self._drained:
            return
        self._drained = True
        self.server.shutdown()
        self.server.server_close()
        if self._server_thread is not None:
            self._server_thread.join()
        self.pool.drain()

    # context-manager sugar for tests
    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    # -- introspection payloads -----------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` body: liveness + the same runtime/kernel-tier
        report ``python -m repro info`` prints (memoized — the first
        call pays the one-time fused-kernel compile probe)."""
        with self._info_lock:
            if self._info is None:
                self._info = runtime_info()
        return {
            "status": "ok",
            "workers": self.pool.n_workers,
            "workers_alive": self.pool.alive,
            "queue_depth": self.queue.depth,
            "uptime_seconds": time.time() - self.started_at,
            **self._info,
        }

    def metrics(self) -> dict:
        """The ``/metrics`` body: queue/throughput/cache observability."""
        uptime = max(time.time() - self.started_at, 1e-9)
        completed = self.pool.completed_total
        return {
            "uptime_seconds": uptime,
            "queue_depth": self.queue.depth,
            "jobs": self.queue.counts(),
            "workers": self.pool.n_workers,
            "workers_busy": self.pool.busy,
            "submitted_total": self.queue.submitted_total,
            "completed_total": completed,
            "failed_total": self.pool.failed_total,
            "throughput_jobs_per_second": completed / uptime,
            "cache": self.cache.stats.as_dict(),
            "cache_dir": (
                None if self.cache.cache_dir is None else str(self.cache.cache_dir)
            ),
        }
