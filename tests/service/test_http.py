"""HTTP API: round-trip parity with direct runs, restart recovery,
cancellation, error codes, and observability endpoints."""

import json
import socket
import threading
from urllib.parse import urlparse

import numpy as np
import pytest

import repro.service.workers as workers_mod
from repro.api import SimulationConfig, run
from repro.service import (
    JobQueue,
    JobStore,
    ReproService,
    ServiceClient,
    ServiceError,
)
from repro.util.errors import ConfigError
from svc_configs import small_config, small_ensemble


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc")
    with ReproService(
        root / "data", port=0, workers=2, cache_dir=root / "cache"
    ) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestRoundTrip:
    def test_simulation_matches_direct_run(self, client, tmp_path):
        """The acceptance bar: traces fetched over HTTP match
        ``repro.run`` on the same config to <= 1e-12."""
        cfg = small_config()
        job = client.submit(config=cfg, name="parity")
        assert job["state"] == "queued"
        record = client.wait(job["id"], timeout=120)
        assert record["state"] == "done", record.get("error")
        assert record["name"] == "parity"
        member = record["metadata"]["member"]
        assert member["seconds"] > 0
        assert member["cache_hits"] + member["cache_misses"] > 0

        out = client.fetch(job["id"], tmp_path / "fetched")
        assert out.suffix == ".npz"
        ref = run(SimulationConfig.from_dict(cfg))
        with np.load(out) as data:
            peak = np.abs(ref.traces).max()
            assert peak > 0
            dev = np.abs(data["traces"] - ref.traces).max() / peak
            assert dev <= 1e-12
            assert np.array_equal(data["times"], ref.times)

    def test_numpy_job_matches_direct_run(self, client, tmp_path):
        """A NumPy-tier job, run in a worker thread through the server's
        shared cache, steps to the same bits as a direct run."""
        cfg = small_config(fused=False, name="np")
        record = client.wait(client.submit(config=cfg)["id"], timeout=120)
        assert record["state"] == "done", record.get("error")
        assert record["metadata"]["member"]["kernel_tier"] == "numpy"
        ref = run(SimulationConfig.from_dict(cfg))
        with np.load(client.fetch(record["id"], tmp_path / "np")) as data:
            assert np.array_equal(data["traces"], ref.traces)

    def test_ensemble_round_trip(self, client, tmp_path):
        record = client.wait(
            client.submit(ensemble=small_ensemble(2))["id"], timeout=120
        )
        assert record["state"] == "done", record.get("error")
        assert record["metadata"]["member"]["n_members"] == 2
        with np.load(client.fetch(record["id"], tmp_path / "ens")) as data:
            assert int(data["n_members"]) == 2
            assert "member_001_traces" in data

    def test_bare_config_body_accepted(self, client):
        """POST /jobs with a raw SimulationConfig JSON body (the
        ``curl -d @quickstart.json`` path)."""
        record = client._json("POST", "/jobs", small_config())
        assert record["kind"] == "simulation"
        assert client.wait(record["id"], timeout=120)["state"] == "done"


class TestObservability:
    def test_healthz(self, client, service):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["workers_alive"] == 2
        assert health["version"]
        assert "usable_cores" in health
        assert "fused_available" in health

    def test_metrics(self, client):
        m = client.metrics()
        assert set(m["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert m["submitted_total"] >= m["completed_total"] > 0
        assert m["throughput_jobs_per_second"] > 0
        # The shared-cache provenance surfaces here: repeated configs
        # across this module's jobs produced hits, each distinct stage
        # was a miss exactly once.
        assert m["cache"]["hits"] > 0
        assert m["cache"]["misses"] > 0
        assert m["cache_dir"] is not None

    def test_job_listing_and_state_filter(self, client):
        rows = client.jobs()
        assert rows and all("spec" not in row for row in rows)
        done = client.jobs(state="done")
        assert {row["state"] for row in done} == {"done"}


class TestErrorPaths:
    def test_unknown_job_404(self, client):
        for fn in (
            lambda: client.job("deadbeef0000"),
            lambda: client.cancel("deadbeef0000"),
            lambda: client.fetch("deadbeef0000", "/tmp/never"),
        ):
            with pytest.raises(ServiceError) as exc:
                fn()
            assert exc.value.status == 404

    def test_invalid_config_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(config={"mesh": {"family": "nope"}})
        assert exc.value.status == 400
        assert "mesh family" in str(exc.value)

    def test_bad_state_filter_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.jobs(state="bogus")
        assert exc.value.status == 400

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._json("GET", "/nope")
        assert exc.value.status == 404

    def test_cancel_done_job_409(self, client):
        record = client.wait(
            client.submit(config=small_config())["id"], timeout=120
        )
        with pytest.raises(ServiceError) as exc:
            client.cancel(record["id"])
        assert exc.value.status == 409

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_400(self, service, length):
        """A Content-Length that is not a positive integer is a 400 JSON
        error, not a dropped connection."""
        host, port = urlparse(service.url).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
                .encode()
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", reply
        assert "error" in json.loads(body)

    def test_submit_needs_exactly_one_spec(self, client):
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit()
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit(config=small_config(), ensemble=small_ensemble())


class TestCancelOverHTTP:
    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        """Deterministic cancel: one worker, blocked on a gated job, so
        the second submission is reliably still queued."""
        release = threading.Event()
        claimed = threading.Event()
        real_run_member = workers_mod.run_member

        def gated(cfg, cache=None):
            claimed.set()
            assert release.wait(30.0)
            return real_run_member(cfg, cache)

        monkeypatch.setattr(workers_mod, "run_member", gated)
        with ReproService(tmp_path / "data", port=0, workers=1) as svc:
            client = ServiceClient(svc.url)
            blocker = client.submit(config=small_config())
            assert claimed.wait(30.0)
            victim = client.submit(config=small_config())
            cancelled = client.cancel(victim["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError) as exc:
                client.cancel(blocker["id"])  # running -> conflict
            assert exc.value.status == 409
            with pytest.raises(ServiceError) as exc:
                # No result until done — and the 409 names the state.
                client.fetch(blocker["id"], tmp_path / "early")
            assert exc.value.status == 409
            assert "running" in str(exc.value)
            release.set()
            assert client.wait(blocker["id"], timeout=60)["state"] == "done"
            assert client.metrics()["jobs"]["cancelled"] == 1


class TestRestartRecovery:
    def test_restarted_server_recovers_backlog(self, tmp_path):
        """The durability acceptance: kill a server with queued AND
        running jobs; a new server on the same data dir finishes them."""
        data_dir = tmp_path / "data"
        store = JobStore(data_dir)
        queue = JobQueue(store)
        interrupted = queue.submit(small_config(), priority=1)
        waiting = queue.submit(small_config())
        queue.claim(timeout=1.0)  # `interrupted` goes running...
        del queue, store  # ...and the "server" dies without finishing it

        with ReproService(data_dir, port=0, workers=1) as svc:
            client = ServiceClient(svc.url)
            ri = client.wait(interrupted.id, timeout=120)
            rw = client.wait(waiting.id, timeout=120)
        assert ri["state"] == "done"
        assert ri["metadata"]["recovered"] == 1
        assert rw["state"] == "done"
        assert "member" in ri["metadata"]

    def test_two_caches_conflict(self, tmp_path):
        from repro.api import StageCache

        with pytest.raises(ConfigError, match="not both"):
            ReproService(
                tmp_path / "d", cache=StageCache(), cache_dir=tmp_path / "c"
            )
