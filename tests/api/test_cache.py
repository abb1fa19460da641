"""StageCache unit behavior: LRU bounds, exactly-once builds under
threads, disk persistence, key-mismatch/corruption rejection — plus the
content-key layer (stage_key / per-spec sub-hashes) it is addressed by."""

import gc
import multiprocessing
import threading
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import (
    BackendSpec,
    SimulationConfig,
    StageCache,
    Simulation,
    stage_key,
)
from oracles import csr
from repro.core.operator import AssembledOperator
from repro.sem.matfree import MatrixFreeStiffness
from repro.util.errors import ConfigError


def make_config(**overrides) -> SimulationConfig:
    base = dict(
        mesh={"family": "uniform_grid", "params": {"shape": [5, 5]}},
        material={
            "model": "acoustic",
            "regions": [{"elements": [12], "values": {"c": 3.0}}],
        },
        order=3,
        time={"n_cycles": 4, "c_cfl": 0.35},
        source={"position": [1.0, 2.0], "f0": 0.8},
    )
    base.update(overrides)
    return SimulationConfig.from_dict(base)


class TestGetOrCreate:
    def test_memory_hit_and_events(self):
        cache = StageCache()
        calls = []
        events: dict = {}
        build = lambda: calls.append(1) or np.arange(4.0)
        a = cache.get_or_create("k:1", build, stage="mesh", events=events)
        b = cache.get_or_create("k:1", build, stage="mesh", events=events)
        assert a is b and len(calls) == 1
        assert events == {"misses": 1, "hits": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.resolutions == {"mesh": 1}
        assert "k:1" in cache and len(cache) == 1

    def test_build_exactly_once_under_racing_threads(self):
        cache = StageCache()
        builds = []

        def build():
            builds.append(1)
            return np.zeros(8)

        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_create("k:race", build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)

    def test_pack_without_unpack_rejected(self):
        cache = StageCache()
        with pytest.raises(ConfigError, match="pack= and unpack="):
            cache.get_or_create("k:1", lambda: 1, pack=lambda o: {})

    def test_invalid_caps_rejected(self):
        with pytest.raises(ConfigError, match="max_entries"):
            StageCache(max_entries=0)
        with pytest.raises(ConfigError, match="max_bytes"):
            StageCache(max_bytes=0)

    def test_clear_drops_memory(self):
        cache = StageCache()
        cache.get_or_create("k:1", lambda: np.zeros(4))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


class TestLRU:
    def test_entry_cap_evicts_least_recently_used(self):
        cache = StageCache(max_entries=2)
        cache.get_or_create("k:a", lambda: np.zeros(2))
        cache.get_or_create("k:b", lambda: np.zeros(2))
        cache.get_or_create("k:a", lambda: np.zeros(2))  # a now most recent
        cache.get_or_create("k:c", lambda: np.zeros(2))  # evicts b
        assert "k:a" in cache and "k:c" in cache and "k:b" not in cache
        assert cache.stats.evictions == 1
        # b rebuilds on next access
        cache.get_or_create("k:b", lambda: np.zeros(2))
        assert cache.stats.misses == 4

    def test_byte_cap_evicts_under_memory_pressure(self):
        one_kb = 1024
        cache = StageCache(max_bytes=3 * one_kb)
        for name in ("a", "b", "c", "d"):
            cache.get_or_create(f"k:{name}", lambda: np.zeros(one_kb // 8))
        assert cache.stats.evictions >= 1
        assert cache.nbytes <= 3 * one_kb
        assert "k:d" in cache  # newest always survives

    def test_oversized_entry_still_caches(self):
        cache = StageCache(max_bytes=64)
        big = cache.get_or_create("k:big", lambda: np.zeros(1024))
        assert "k:big" in cache
        assert cache.get_or_create("k:big", lambda: np.zeros(1024)) is big


class TestDiskLayer:
    CODEC = dict(
        pack=lambda a: {"a": a},
        unpack=lambda d: d["a"],
    )

    def test_persist_and_warm_start(self, tmp_path):
        cold = StageCache(cache_dir=tmp_path)
        a = cold.get_or_create("mesh:abc", lambda: np.arange(6.0), **self.CODEC)
        assert cold.stats.disk_writes == 1
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1 and files[0].name == "mesh-abc.npz"

        warm = StageCache(cache_dir=tmp_path)
        b = warm.get_or_create(
            "mesh:abc", lambda: pytest.fail("must not rebuild"), **self.CODEC
        )
        assert np.array_equal(a, b)
        assert warm.stats.disk_hits == 1 and warm.stats.resolutions == {}

    def test_no_codec_means_memory_only(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        cache.get_or_create("mesh:abc", lambda: object())
        assert list(tmp_path.glob("*.npz")) == []

    def test_corrupted_file_is_rejected_and_recomputed(self, tmp_path):
        cold = StageCache(cache_dir=tmp_path)
        cold.get_or_create("mesh:abc", lambda: np.arange(6.0), **self.CODEC)
        path = next(tmp_path.glob("*.npz"))
        path.write_bytes(b"not a zip archive")

        warm = StageCache(cache_dir=tmp_path)
        rebuilt = warm.get_or_create(
            "mesh:abc", lambda: np.arange(6.0), **self.CODEC
        )
        assert np.array_equal(rebuilt, np.arange(6.0))
        assert warm.stats.disk_rejects == 1
        # The bad file was replaced by a healthy rewrite.
        assert warm.stats.disk_writes == 1
        third = StageCache(cache_dir=tmp_path)
        third.get_or_create(
            "mesh:abc", lambda: pytest.fail("must not rebuild"), **self.CODEC
        )
        assert third.stats.disk_hits == 1

    def test_key_mismatch_is_rejected(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        cache.get_or_create("mesh:abc", lambda: np.arange(6.0), **self.CODEC)
        path = next(tmp_path.glob("*.npz"))
        # Masquerade the file as a different key: must not be trusted.
        path.rename(tmp_path / "mesh-def.npz")
        other = StageCache(cache_dir=tmp_path)
        out = other.get_or_create("mesh:def", lambda: np.zeros(3), **self.CODEC)
        assert np.array_equal(out, np.zeros(3))
        assert other.stats.disk_rejects == 1

    def test_non_array_pack_rejected(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        with pytest.raises(ConfigError, match="ndarray"):
            cache.get_or_create(
                "mesh:abc",
                lambda: 7,
                pack=lambda o: {"x": o},
                unpack=lambda d: d["x"],
            )


class TestStageKeys:
    def test_backend_and_name_never_invalidate(self):
        a = make_config()
        b = make_config(
            name="other", backend={"stiffness": "matfree", "threads": 2}
        )
        for stage in ("mesh", "material", "assembler", "levels", "parts"):
            assert stage_key(stage, a) == stage_key(stage, b)

    def test_source_move_only_invalidates_force(self):
        a = make_config()
        b = make_config(source={"position": [2.0, 3.0], "f0": 0.8})
        assert stage_key("assembler", a) == stage_key("assembler", b)
        assert stage_key("parts", a) == stage_key("parts", b)
        assert stage_key("force", a) != stage_key("force", b)

    def test_material_change_invalidates_downstream(self):
        a = make_config()
        b = make_config(material={"model": "acoustic"})
        assert stage_key("mesh", a) == stage_key("mesh", b)
        for stage in ("material", "assembler", "levels", "parts"):
            assert stage_key(stage, a) != stage_key(stage, b)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown pipeline stage"):
            stage_key("solver", make_config())


class TestSimulationThroughCache:
    def test_two_simulations_share_resolved_stages(self):
        cache = StageCache()
        a = Simulation(make_config(), cache=cache)
        b = Simulation(
            make_config(source={"position": [2.0, 3.0], "f0": 0.8}),
            cache=cache,
        )
        assert a.assembler is b.assembler
        assert a.levels is b.levels
        assert cache.stats.resolutions["assembler"] == 1
        assert b.cache_summary()["hits"] >= 2

    def test_results_match_uncached(self):
        cache = StageCache()
        cfg = make_config()
        cached = Simulation(cfg, cache=cache).run()
        plain = Simulation(cfg).run()
        assert np.array_equal(cached.u, plain.u)
        assert np.array_equal(cached.traces, plain.traces)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_assembler_entry_of_an_assembled_config_is_ignored(self, dim, tmp_path):
        """A cache directory that once held the assembled backend's
        assembler entry (its ``K`` as CSR arrays, under the same content
        key) opens without error: the stage is memory-only, so the entry
        is never read, and the run is the cold one, bit for bit."""
        cfg = make_config() if dim == 2 else make_config(
            mesh={"family": "refined_interval", "params": {"n_coarse": 12, "n_fine": 4}},
            source={"position": [0.3], "f0": 4.0},
        )
        sim = Simulation(cfg, cache=StageCache(cache_dir=tmp_path))
        K = csr.K(Simulation(cfg).assembler)
        sim.cache._disk_store(sim.stage_key("assembler"), {
            "K_data": K.data, "K_indices": K.indices, "K_indptr": K.indptr,
            "shape": np.array(K.shape, dtype=np.int64),
        })
        (entry,) = tmp_path.glob("assembler-*.npz")
        got = sim.run()
        assert sim.cache.stats.disk_hits == 0 and sim.cache.stats.disk_rejects == 0
        assert sim.cache.stats.resolutions["assembler"] == 1
        assert list(tmp_path.glob("assembler-*.npz")) == [entry]  # none written
        assert list(tmp_path.glob("levels-*.npz"))  # the disk layer is live
        plain = Simulation(cfg).run()
        assert np.array_equal(got.u, plain.u) and np.array_equal(got.v, plain.v)

    def test_disk_key_change_recomputes(self, tmp_path):
        Simulation(make_config(), cache=StageCache(cache_dir=tmp_path)).levels
        other = Simulation(make_config(order=4), cache=StageCache(cache_dir=tmp_path))
        other.levels
        # Different sub-hash -> different file; no stale artifact reused.
        assert other.cache.stats.disk_hits == 0
        assert other.cache.stats.resolutions["levels"] == 1
        assert len(list(tmp_path.glob("levels-*.npz"))) == 2

    def test_variants_resolve_assembler_once(self):
        cache = StageCache()
        sim = Simulation(make_config(), cache=cache)
        base = sim.run()
        numpy_leg = sim.variant(backend=BackendSpec(fused=False)).run()
        assert cache.stats.resolutions["assembler"] == 1
        assert cache.stats.resolutions["levels"] == 1
        assert np.array_equal(base.times, numpy_leg.times)

    def test_simulation_never_assembles(self):
        """No stage of a run builds a matrix: the assembler, the solver
        plan and the rank layout hold matrix-free products only."""
        sim = Simulation(make_config(partition={"n_ranks": 2}), cache=StageCache())
        sim.run()
        seen, stack = set(), [sim.assembler, sim.solver_plan, sim.rank_layout]
        while stack:
            o = stack.pop()
            if id(o) in seen or isinstance(o, (type, types.ModuleType, np.ndarray)):
                continue
            seen.add(id(o))
            assert not sp.issparse(o) and not isinstance(o, AssembledOperator), type(o)
            stack.extend(gc.get_referents(o))
        assert all(isinstance(K, MatrixFreeStiffness) for K in sim.rank_layout.K_local)

    def test_variant_backend_swap_keeps_assembler_shared(self):
        sim = Simulation(make_config(), cache=StageCache())
        sim.run()
        var = sim.variant(backend=BackendSpec(stiffness="matfree"))
        assert var.assembler is sim.assembler
        var.run()


def _race_for_stage(cache_dir, barrier, out):
    """Child-process body for the cross-process disk-layer race: one
    private StageCache per process, same cache_dir, same key."""
    builds = []

    def build():
        builds.append(1)
        time.sleep(0.05)  # widen the race window past the build start
        return {"data": np.arange(64.0)}

    cache = StageCache(cache_dir=cache_dir)
    barrier.wait()  # both processes hit get_or_create together
    value = cache.get_or_create(
        "stage:racetest",
        build,
        stage="race",
        pack=lambda v: {"data": v["data"]},
        unpack=lambda d: {"data": d["data"]},
    )
    out.put({
        "correct": bool(np.array_equal(value["data"], np.arange(64.0))),
        "builds": len(builds),
        "stats": cache.stats.as_dict(),
    })


class TestCrossProcessDiskSharing:
    def test_two_processes_racing_get_or_create(self, tmp_path):
        """Two *processes* race the same key through the disk layer:
        both must succeed (atomic_savez means no torn reads), each
        builds at most once, and nothing is ever rejected as corrupt —
        the contract multi-process and multi-server cache_dir sharing
        rests on."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_race_for_stage, args=(tmp_path, barrier, out))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        assert all(r["correct"] for r in results)
        # Per-process build locks can't span processes, so both MAY
        # build — but never twice, and never read garbage.
        assert all(r["builds"] <= 1 for r in results)
        assert sum(r["builds"] for r in results) >= 1
        assert all(r["stats"]["disk_rejects"] == 0 for r in results)

        # The survivor on disk is a valid artifact: a third, fresh
        # cache warm-starts from it without building at all.
        events: dict = {}
        fresh = StageCache(cache_dir=tmp_path)
        value = fresh.get_or_create(
            "stage:racetest",
            lambda: (_ for _ in ()).throw(AssertionError("rebuilt!")),
            stage="race",
            pack=lambda v: {"data": v["data"]},
            unpack=lambda d: {"data": d["data"]},
            events=events,
        )
        assert np.array_equal(value["data"], np.arange(64.0))
        assert fresh.stats.disk_hits == 1
        assert events == {"misses": 1}
