"""Tests for the machine model and cluster simulator (Figs. 9-13 engine)."""

import numpy as np
import pytest

from repro.core import assign_levels, theoretical_speedup
from repro.mesh import trench_mesh, uniform_grid
from repro.runtime import CPU_NODE, GPU_NODE, ClusterSimulator, MachineModel, cache_hit_metric
from repro.runtime.perfmodel import scaled
from repro.runtime.simulate import simulate_scaling
from repro.runtime.trace import render_timeline, trace_cycle


@pytest.fixture(scope="module")
def sim_setup():
    mesh = trench_mesh(nx=12, ny=12, nz=6)
    a = assign_levels(mesh)
    return mesh, a


class TestMachineModel:
    def test_cache_hit_fraction_decreasing(self):
        m = CPU_NODE
        assert m.cache_hit_fraction(10) > m.cache_hit_fraction(10_000)

    def test_gpu_has_no_cache_bonus(self):
        assert GPU_NODE.time_per_element(1) == GPU_NODE.time_per_element(1_000_000)

    def test_cpu_faster_with_small_working_set(self):
        assert CPU_NODE.time_per_element(10) < CPU_NODE.time_per_element(100_000)

    def test_compute_time_zero_elements(self):
        assert CPU_NODE.compute_time(0) == 0.0

    def test_gpu_launch_overhead_floor(self):
        t1 = GPU_NODE.compute_time(1)
        assert t1 > GPU_NODE.kernel_launch_overhead  # overhead dominates

    def test_comm_alpha_beta(self):
        m = CPU_NODE
        assert m.comm_time(2, 100.0) == pytest.approx(2 * m.alpha + 100 * m.beta)
        assert m.comm_time(0, 50.0) == 0.0

    def test_scaled_machine(self):
        s = scaled(CPU_NODE, 10.0)
        assert s.elem_step_cost == pytest.approx(10 * CPU_NODE.elem_step_cost)
        assert s.cache_capacity == pytest.approx(CPU_NODE.cache_capacity / 10)
        assert s.alpha == CPU_NODE.alpha  # latency is per event


class TestCacheMetric:
    def test_lts_beats_non_lts(self, sim_setup):
        """Fig. 12: per-level working sets raise the hit metric."""
        mesh, a = sim_setup
        counts = a.counts().astype(float) / 8.0  # per-rank share
        steps = 2.0 ** np.arange(a.n_levels)
        machine = scaled(CPU_NODE, 50.0)
        lts = cache_hit_metric(machine, counts, steps)
        non = cache_hit_metric(
            machine, np.array([counts.sum()]), np.array([a.p_max])
        )
        assert lts > non

    def test_more_ranks_more_hits(self, sim_setup):
        mesh, a = sim_setup
        machine = scaled(CPU_NODE, 50.0)
        steps = 2.0 ** np.arange(a.n_levels)
        h16 = cache_hit_metric(machine, a.counts() / 16.0, steps)
        h128 = cache_hit_metric(machine, a.counts() / 128.0, steps)
        assert h128 > h16


class TestClusterSimulator:
    def test_single_rank_no_comm_no_stall(self, sim_setup):
        mesh, a = sim_setup
        parts = np.zeros(mesh.n_elements, dtype=int)
        sim = ClusterSimulator(mesh, a, parts, 1, CPU_NODE)
        cost = sim.lts_cycle()
        assert cost.comm_time == 0.0
        assert cost.stall_time == 0.0

    def test_serial_lts_speedup_near_model(self, sim_setup):
        """On one rank, LTS/non-LTS wall ratio ~ Eq. (9) (cache aside)."""
        mesh, a = sim_setup
        parts = np.zeros(mesh.n_elements, dtype=int)
        machine = MachineModel(
            name="flat", ranks_per_node=8, elem_step_cost=1e-6,
            alpha=0.0, beta=0.0, cache_max_gain=0.0,
        )
        sim = ClusterSimulator(mesh, a, parts, 1, machine)
        ratio = sim.non_lts_cycle().cycle_time / sim.lts_cycle().cycle_time
        assert ratio == pytest.approx(theoretical_speedup(a), rel=1e-6)

    def test_imbalanced_partition_stalls(self, sim_setup):
        """Hoarding the fine strip on one rank creates stalls (Fig. 1)."""
        mesh, a = sim_setup
        half = (mesh.element_centroids()[:, 1] > 3).astype(int)
        sim = ClusterSimulator(mesh, a, half, 2, CPU_NODE)
        cost = sim.lts_cycle()
        assert cost.stall_time > 0.0

    def test_barrier_never_faster_than_neighbor(self, sim_setup):
        mesh, a = sim_setup
        parts = (np.arange(mesh.n_elements) % 4).astype(int)
        t_nb = ClusterSimulator(mesh, a, parts, 4, CPU_NODE, sync="neighbor").lts_cycle()
        t_ba = ClusterSimulator(mesh, a, parts, 4, CPU_NODE, sync="barrier").lts_cycle()
        assert t_ba.cycle_time >= t_nb.cycle_time - 1e-15

    def test_non_lts_cycle_does_not_depend_on_sync(self, sim_setup):
        """Uniform ``dt_min`` steps: the slowest rank paces every step
        under either sync, so both give the same cycle."""
        mesh, a = sim_setup
        parts = (np.arange(mesh.n_elements) % 4).astype(int)
        costs = [
            ClusterSimulator(mesh, a, parts, 4, CPU_NODE, sync=sync).non_lts_cycle()
            for sync in ("neighbor", "barrier")
        ]
        assert costs[0] == costs[1]

    def test_performance_is_dt_over_cycle(self, sim_setup):
        mesh, a = sim_setup
        parts = np.zeros(mesh.n_elements, dtype=int)
        sim = ClusterSimulator(mesh, a, parts, 1, CPU_NODE)
        c = sim.lts_cycle()
        assert c.performance == pytest.approx(a.dt / c.cycle_time)

    def test_simulate_scaling_helper(self, sim_setup):
        mesh, a = sim_setup
        from repro.partition import partition_scotch_p

        res = simulate_scaling(mesh, a, partition_scotch_p, [2, 4], scaled(CPU_NODE, 10))
        assert len(res) == 2
        assert res[1].non_lts_performance > res[0].non_lts_performance
        assert all(r.lts_speedup > 1.0 for r in res)


class TestTrace:
    def test_trace_events_cover_all_stages(self, sim_setup):
        mesh, a = sim_setup
        parts = (np.arange(mesh.n_elements) % 2).astype(int)
        sim = ClusterSimulator(mesh, a, parts, 2, CPU_NODE)
        tr = trace_cycle(sim)
        assert len(tr.events) == 2 * sim.schedule.n_stages
        assert tr.cycle_time == pytest.approx(sim.lts_cycle().cycle_time)

    @pytest.mark.parametrize("sync", ["neighbor", "barrier"])
    def test_trace_records_the_cycle_replay(self, sim_setup, sync):
        """The trace and :meth:`ClusterSimulator.lts_cycle` read one
        replay: the same cycle time and worst stall, exactly."""
        mesh, a = sim_setup
        half = (mesh.element_centroids()[:, 1] > 3).astype(int)
        sim = ClusterSimulator(mesh, a, half, 2, CPU_NODE, sync=sync)
        tr = trace_cycle(sim)
        cost = sim.lts_cycle()
        assert tr.cycle_time == cost.cycle_time
        stall = np.zeros(2)
        for e in tr.events:
            assert e.ready <= e.start <= e.end
            stall[e.rank] += e.start - e.ready
        assert stall.max() == cost.stall_time

    def test_barrier_starts_every_rank_of_a_stage_together(self, sim_setup):
        mesh, a = sim_setup
        parts = (np.arange(mesh.n_elements) % 3).astype(int)
        sim = ClusterSimulator(mesh, a, parts, 3, CPU_NODE, sync="barrier")
        events = trace_cycle(sim).events
        for s in range(sim.schedule.n_stages):
            stage = [e for e in events if e.stage == s]
            assert len(stage) == 3
            assert len({e.start for e in stage}) == 1
            assert stage[0].start == max(e.ready for e in stage)

    def test_render_produces_rows_per_rank(self, sim_setup):
        mesh, a = sim_setup
        parts = (np.arange(mesh.n_elements) % 2).astype(int)
        sim = ClusterSimulator(mesh, a, parts, 2, CPU_NODE)
        out = render_timeline(trace_cycle(sim))
        assert out.count("rank") == 2
        assert "#" in out

    def test_stall_fraction_bounded(self, sim_setup):
        mesh, a = sim_setup
        half = (mesh.element_centroids()[:, 1] > 6).astype(int)
        sim = ClusterSimulator(mesh, a, half, 2, CPU_NODE)
        tr = trace_cycle(sim)
        for r in range(2):
            assert 0.0 <= tr.stall_fraction(r) <= 1.0
