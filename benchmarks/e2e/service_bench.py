"""``service_sweep``: ``python -m repro serve`` driven closed-loop.

The server is a subprocess (``--workers 2 --port 0``); two client
threads — one connection each, the next job submitted only after the
previous result is in hand — run ``ServiceClient.submit`` ->
``wait(poll=0.005)`` -> ``fetch``.  A cold phase submits jobs whose mesh
shape the cache has never seen; the warm phase cycles one model's source
over 16 positions for the measured window.  Every fetched result is
compared with a direct in-process ``Simulation.run`` of the same config.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api import Simulation
from repro.service import ServiceClient
from repro.service.client import ServiceError

from . import solver_bench, stats
from .calibration import Probe, at_reference_speed
from .checks import Checks
from .env import SRC
from .tracing import HTTP_FETCH, HTTP_STATUS, HTTP_SUBMIT, TracedClient, Tracer
from .workloads import N_CLIENTS, N_WORKERS, POLL_SECONDS, Workload

JOB_SPAN = "service.job"


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: Path):
        data_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = open(data_dir / "server.stderr", "w")
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(N_WORKERS),
             "--port", "0", "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True, env=env,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            url = None
            for line in self.proc.stdout:
                m = re.search(r"listening on (http://\S+)", line)
                if m:
                    url = m.group(1)
                    break
        finally:
            watchdog.cancel()
        if url is None:
            self.stop()
            raise RuntimeError(
                f"repro serve exited before listening (see {data_dir}/server.stderr)"
            )
        self.startup_s = perf_counter() - t0
        self.spawned_at = t0
        self.url = url

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _reference(cfg: dict) -> dict:
    r = Simulation(cfg).run()
    return {"traces": r.traces, "u": r.u}


def _matches(path: Path, ref: dict, tier: str) -> bool:
    """Fetched traces and final field within 1e-12 (relative to the
    reference's peak) of the direct run, on the requested kernel tier."""
    with np.load(path) as z:
        if str(z["kernel_tier"]) != tier:
            return False
        for key in ("traces", "u"):
            scale = max(float(np.abs(ref[key]).max()), 1e-300)
            if not float(np.abs(z[key] - ref[key]).max()) <= 1e-12 * scale:
                return False
    return True


def run_job(client: ServiceClient, cfg: dict, ref: dict, out: Path, tier: str,
            checks: Checks, lock: threading.Lock):
    """One closed-loop operation: submit -> wait -> fetch, timed to the
    moment the result file is in hand.  Returns ``(latency_ms, record)``
    or ``None`` when the job failed, was refused or timed out."""
    t0 = perf_counter()
    try:
        job_id = client.submit(config=cfg)["id"]
        record = client.wait(job_id, timeout=60.0, poll=POLL_SECONDS)
        ok = record["state"] == "done"
        if ok:
            client.fetch(job_id, out)
        latency_ms = (perf_counter() - t0) * 1e3
        detail = record.get("error") or record["state"]
    except ServiceError as e:
        ok, detail, latency_ms, record = False, str(e), 0.0, None
    with lock:
        if checks.check("job done and fetched", ok, detail):
            checks.check(
                "fetched result equals a direct Simulation.run to 1e-12",
                _matches(out, ref, tier),
                cfg["name"],
            )
    return (latency_ms, record) if ok else None


@dataclass
class Done:
    """One completed job as its client saw it."""

    latency_ms: float  # submit -> result file in hand, at reference speed
    raw_ms: float  # the same as measured
    record: dict  # the job's final record
    result_bytes: int


class Sweep:
    """The two closed-loop clients and what they recorded."""

    def __init__(self, url: str, workdir: Path, tier: str, checks: Checks,
                 probe: Probe, tracers: list[Tracer] | None = None):
        self.workdir = workdir
        self.tier = tier
        self.checks = checks
        self.probe = probe
        self.lock = threading.Lock()
        self.tracers = tracers
        self.clients = [
            ServiceClient(url) if tracers is None else TracedClient(url, tracers[k])
            for k in range(N_CLIENTS)
        ]
        self.request = 0

    def _one(self, k: int, cfg: dict, ref: dict, sink: list) -> None:
        out = self.workdir / f"client{k}.npz"
        if self.tracers is None:
            done = run_job(self.clients[k], cfg, ref, out, self.tier, self.checks, self.lock)
        else:
            with self.lock:
                self.request += 1
                request = self.request
            with self.tracers[k].span(JOB_SPAN, request=request):
                done = run_job(self.clients[k], cfg, ref, out, self.tier, self.checks, self.lock)
        if done is not None:
            sink.append(Done(done[0], done[0], done[1], out.stat().st_size))

    def each(self, jobs: list[dict], refs: list[dict]) -> list[Done]:
        """Every job once, one at a time, by the first client, a probe
        reading between jobs (the server is idle then).  The cold phase
        times the miss path, not two stage builds contending for the
        interpreter lock, which made its median flip between 80 and
        240 ms from run to run."""
        sink: list[Done] = []
        readings = [self.probe.sample()]
        for cfg, ref in zip(jobs, refs):
            self._one(0, cfg, ref, sink)
            readings.append(self.probe.sample())
        for d in sink:
            d.latency_ms = at_reference_speed(d.raw_ms, readings)
        return sink

    def cycle(self, jobs: list[dict], refs: list[dict], starts: list[int],
              seconds: float, segments: int = 4, at_least: int = 2):
        """Each client walks the jobs round-robin from its own start, in
        ``segments`` stretches with a probe reading between stretches:
        the probe needs an idle machine, and the clients keep both cores
        busy.  Returns the jobs done and, per stretch, jobs per second
        at reference speed."""
        position = list(starts)
        done: list[Done] = []
        rates: list[float] = []
        before = [self.probe.sample(), self.probe.sample()]
        for _ in range(segments):
            deadline = perf_counter() + seconds / segments

            def body(k: int, sink: list) -> None:
                while perf_counter() < deadline or len(sink) < at_least:
                    i = position[k] % len(jobs)
                    self._one(k, jobs[i], refs[i], sink)
                    position[k] += 1

            sinks: list[list[Done]] = [[] for _ in range(N_CLIENTS)]
            threads = [
                threading.Thread(target=body, args=(k, sinks[k])) for k in range(N_CLIENTS)
            ]
            t0 = perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = perf_counter() - t0
            after = [self.probe.sample(), self.probe.sample()]
            stretch = [d for sink in sinks for d in sink]
            for d in stretch:
                d.latency_ms = at_reference_speed(d.raw_ms, before + after)
            if stretch:
                rates.append(len(stretch) / at_reference_speed(wall, before + after))
            done += stretch
            before = after
        return done, rates


def _first_job_setup(workdir: Path, cfg: dict, ref: dict, tier: str,
                     checks: Checks, index: int):
    """Spawn -> "listening" -> first job done: the service's set-up.
    Returns the live server and the seconds it took."""
    server = Server(workdir / f"data{index}")
    out = workdir / "first.npz"
    done = run_job(ServiceClient(server.url), cfg, ref, out, tier, checks, threading.Lock())
    seconds = perf_counter() - server.spawned_at
    if done is None:
        server.stop()
        raise RuntimeError(f"first job failed: {checks.failures[-1]}")
    return server, seconds


def untraced(w: Workload, cfgs: dict, seconds: float, checks: Checks, workdir: Path):
    """End-to-end metrics of ``service_sweep``.  The solver-side ones
    (``lts_cycle_ms``, ``newmark_cycle_ms``, ``run_s``) are measured
    in-process on the warm job's config — what one worker's stepping
    costs with no service around it."""
    cfg = cfgs["solver"]
    probe = Probe()
    shots = solver_bench.OneShots(w, cfgs, checks, probe)
    shots.round(first=True, runs_only=True)
    ready = solver_bench.build_ready(cfg)
    lts_ms, nm_ms, detail = solver_bench.steady_state(
        w, ready, 0.2 * seconds, checks, probe
    )
    warm_refs = [_reference(c) for c in cfgs["warm"]]
    cold_refs = [_reference(c) for c in cfgs["cold"]]

    setups = []
    readings = [probe.sample()]
    server = None
    try:
        for i in range(w.setup_reps):
            if server is not None:
                server.stop()
            server, s = _first_job_setup(
                workdir, cfgs["warm"][0], warm_refs[0], w.tier, checks, i
            )
            setups.append(s)
            readings.append(probe.sample())
        setups = [at_reference_speed(s, readings) for s in setups]
        sweep = Sweep(server.url, workdir, w.tier, checks, probe)
        cold = sweep.each(cfgs["cold"], cold_refs)
        warm, rates = sweep.cycle(
            cfgs["warm"], warm_refs, cfgs["client_starts"], 0.8 * seconds
        )
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    if not cold or not warm:
        raise RuntimeError(f"no job completed: {checks.failures[:3]}")
    shots.round(first=False, runs_only=True)
    warm_ms = [d.latency_ms for d in warm]
    detail.update(
        setup_s=setups, run_s=shots.seconds["run_s"],
        job_warm=stats.summarize(warm_ms, 1),
        job_cold_ms=[d.latency_ms for d in cold],
        jobs_per_s_by_stretch=rates,
        uncorrected={
            "run_s": shots.uncorrected["run_s"],
            "job_warm_ms": [d.raw_ms for d in warm],
            "job_cold_ms": [d.raw_ms for d in cold],
        },
        probe=solver_bench.probe_summary(probe),
    )
    values = {
        "setup_s": statistics.median(setups),
        "lts_cycle_ms": lts_ms,
        "newmark_cycle_ms": nm_ms,
        "run_s": shots.median("run_s"),
        "peak_rss_mb": rss,
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": statistics.median(warm_ms),
        "job_cold_p50_ms": statistics.median(d.latency_ms for d in cold),
    }
    return values, detail


def traced(w: Workload, cfgs: dict, seconds: float, checks: Checks, workdir: Path,
           all_tracers: dict[str, Tracer], quick: bool = False):
    """Per-layer metrics: the solver layers on the warm job's config,
    then the service layers from client-side HTTP spans, the job
    records' timestamps and ``/metrics``.  Nothing here is corrected to
    reference speed: the parts are read against their own pass."""
    values, detail = solver_bench.traced(
        w, cfgs, 0.4 * seconds, checks, all_tracers["solver"], quick
    )
    warm_refs = [_reference(c) for c in cfgs["warm"]]
    cold_refs = [_reference(c) for c in cfgs["cold"]]
    tracers = [Tracer() for _ in range(N_CLIENTS)]
    all_tracers.update({f"client{k}": t for k, t in enumerate(tracers)})

    server, _ = _first_job_setup(workdir, cfgs["warm"][0], warm_refs[0], w.tier, checks, 0)
    try:
        sweep = Sweep(server.url, workdir, w.tier, checks, Probe(), tracers)
        sweep.each(cfgs["cold"], cold_refs)
        cold_spans = [len(t.rows) for t in tracers]
        t0 = perf_counter()
        warm, _ = sweep.cycle(
            cfgs["warm"], warm_refs, cfgs["client_starts"], 0.5 * seconds, segments=1
        )
        wall = perf_counter() - t0
        served = ServiceClient(server.url).metrics()
    finally:
        server.stop()

    def spans(name: str) -> list[float]:
        """Warm-phase span durations (ms) over both clients."""
        out = []
        for t, first in zip(tracers, cold_spans):
            nid = t.name_id(name)
            out += [(r[2] - r[1]) * 1e3 for r in t.rows[first:] if r[0] == nid]
        return out

    records = [d.record for d in warm]
    run_ms = [(r["finished_at"] - r["started_at"]) * 1e3 for r in records]
    sim_ms = [
        (r["metadata"]["member"]["build_seconds"] + r["metadata"]["member"]["run_seconds"]) * 1e3
        for r in records
    ]
    latency_ms = [d.raw_ms for d in warm]
    cache = served["cache"]
    values.update({
        "service.startup_ms": server.startup_s * 1e3,
        "service.http.submit_ms": statistics.median(spans(HTTP_SUBMIT)),
        "service.http.status_ms": statistics.median(spans(HTTP_STATUS)),
        "service.http.fetch_ms": statistics.median(spans(HTTP_FETCH)),
        "service.http.result_kb": statistics.median(d.result_bytes for d in warm) / 1024.0,
        "service.client.polls_per_job": len(spans(HTTP_STATUS)) / len(warm),
        "service.client.job_p95_ms": stats.percentile(latency_ms, 0.95),
        "service.queue.wait_ms": statistics.median(
            (r["started_at"] - r["submitted_at"]) * 1e3 for r in records
        ),
        "service.workers.run_ms": statistics.median(run_ms),
        "service.workers.sim_ms": statistics.median(sim_ms),
        "service.workers.package_ms": statistics.median(
            a - b for a, b in zip(run_ms, sim_ms)
        ),
        "service.workers.busy_frac": sum(run_ms) / 1e3 / (N_WORKERS * wall),
        # The server's own cache, not the in-process one measured above.
        "api.cache.hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "api.cache.resolutions_total": float(sum(cache["resolutions"].values())),
    })
    detail["service"] = {
        "warm_jobs": len(warm), "warm_wall_s": wall,
        "job_warm": stats.summarize(latency_ms, 1),
        "served": {k: served[k] for k in ("submitted_total", "completed_total", "failed_total")},
    }
    return values, detail
