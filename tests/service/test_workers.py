"""WorkerPool: shared-cache exactly-once stage resolution, failure
isolation, and graceful drain."""

import threading
import time

import numpy as np
import pytest

import repro.service.workers as workers_mod
from repro.api import SimulationConfig, StageCache, run
from repro.service import JobQueue, JobStore, WorkerPool
from repro.util.errors import ConfigError
from svc_configs import small_config, small_ensemble


def _wait_terminal(queue, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rec = queue.get(job_id)
        if rec.terminal:
            return rec
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {rec.state} after {timeout}s")


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(JobStore(tmp_path))
    yield q
    q.close()


class TestSharedCacheProvenance:
    def test_identical_jobs_resolve_each_stage_exactly_once(self, queue):
        """The acceptance assertion: two jobs sharing stages resolve
        each shared stage exactly once, and the per-job provenance in
        the records proves it (first pays all misses, second all hits,
        global cache misses == distinct stages)."""
        cache = StageCache()
        pool = WorkerPool(queue, cache=cache, n_workers=1)
        pool.start()
        try:
            a = queue.submit(small_config())
            b = queue.submit(small_config())
            ra = _wait_terminal(queue, a.id)
            rb = _wait_terminal(queue, b.id)
        finally:
            pool.drain()
        assert (ra.state, rb.state) == ("done", "done")
        ma, mb = ra.metadata["member"], rb.metadata["member"]
        assert ma["cache_misses"] > 0
        assert mb["cache_misses"] == 0
        assert 0 < mb["cache_hits"] <= ma["cache_misses"]
        # Exactly once, globally: every build the second job skipped
        # is a build the cache performed exactly one time.
        assert cache.stats.misses == ma["cache_misses"]
        assert pool.completed_total == 2

    def test_numpy_jobs_share_the_memory_cache(self, queue):
        """NumPy-tier jobs run in the worker thread like fused ones:
        with no cache_dir, a repeat job resolves every stage from the
        pool's memory cache and steps to the same bits."""
        pool = WorkerPool(queue, n_workers=1)
        pool.start()
        try:
            numpy_job = small_config(fused=False)
            a = _wait_terminal(queue, queue.submit(numpy_job).id)
            b = _wait_terminal(queue, queue.submit(numpy_job).id)
        finally:
            pool.drain()
        assert (a.state, b.state) == ("done", "done")
        assert pool.cache.cache_dir is None
        assert a.metadata["member"]["kernel_tier"] == "numpy"
        assert a.metadata["member"]["cache_misses"] > 0
        assert b.metadata["member"]["cache_misses"] == 0
        assert b.metadata["member"]["cache_hits"] > 0
        with np.load(queue.store.result_path(a.id)) as da, np.load(
            queue.store.result_path(b.id)
        ) as db:
            assert np.array_equal(da["traces"], db["traces"])
            assert np.array_equal(da["u"], db["u"])

    def test_result_matches_direct_run(self, queue):
        pool = WorkerPool(queue, n_workers=1)
        pool.start()
        try:
            rec = _wait_terminal(queue, queue.submit(small_config()).id)
        finally:
            pool.drain()
        assert rec.state == "done"
        ref = run(SimulationConfig.from_dict(small_config()))
        with np.load(queue.store.result_path(rec.id)) as data:
            assert np.array_equal(data["traces"], ref.traces)
            assert np.array_equal(data["times"], ref.times)
        assert rec.metadata["member"]["seconds"] > 0

    def test_ensemble_job_records_stage_sharing(self, queue):
        pool = WorkerPool(queue, n_workers=1)
        pool.start()
        try:
            job = queue.submit(small_ensemble(3), kind="ensemble")
            rec = _wait_terminal(queue, job.id)
        finally:
            pool.drain()
        assert rec.state == "done"
        member = rec.metadata["member"]
        assert member["n_members"] == 3
        # Members differ only in source position: upstream stages are
        # shared, so the job must report real cache traffic.
        assert member["cache_hits"] > 0
        sharing = member["stage_sharing"]
        assert sharing["mesh"] == {"distinct": 1, "members": 3}
        with np.load(queue.store.result_path(rec.id)) as data:
            assert int(data["n_members"]) == 3
            assert data["member_002_traces"].shape[0] > 0


class TestFailureIsolation:
    def test_failed_job_does_not_kill_worker(self, queue, monkeypatch):
        def boom(cfg, cache=None):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(workers_mod, "run_member", boom)
        pool = WorkerPool(queue, n_workers=1)
        pool.start()
        try:
            rec = _wait_terminal(queue, queue.submit(small_config()).id)
            assert rec.state == "failed"
            assert rec.error == "RuntimeError: kaboom"
            assert not queue.store.result_path(rec.id).exists()
            assert pool.failed_total == 1
            assert pool.alive == 1  # the worker survived
            # ... and keeps working once the fault is gone.
            monkeypatch.undo()
            ok = _wait_terminal(queue, queue.submit(small_config()).id)
            assert ok.state == "done"
        finally:
            pool.drain()

    def test_n_workers_validated(self, queue):
        with pytest.raises(ConfigError, match="n_workers"):
            WorkerPool(queue, n_workers=0)


class TestDrain:
    def test_drain_finishes_owned_jobs_and_leaves_backlog_queued(
        self, queue, monkeypatch
    ):
        release = threading.Event()
        claimed = threading.Event()
        real_run_member = workers_mod.run_member

        def gated(cfg, cache=None):
            claimed.set()
            assert release.wait(30.0)
            return real_run_member(cfg, cache)

        monkeypatch.setattr(workers_mod, "run_member", gated)
        pool = WorkerPool(queue, n_workers=1)
        pool.start()
        slow = queue.submit(small_config())
        backlog = [queue.submit(small_config()) for _ in range(2)]
        assert claimed.wait(30.0)

        drainer = threading.Thread(target=pool.drain)
        drainer.start()
        release.set()
        drainer.join(timeout=60.0)
        assert not drainer.is_alive()

        # The owned job finished; the backlog is still queued ON DISK,
        # ready for the next server on this data dir to recover.
        assert queue.get(slow.id).state == "done"
        for rec in backlog:
            assert queue.store.load(rec.id).state == "queued"
        assert pool.alive == 0
        pool.drain()  # idempotent
