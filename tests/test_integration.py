"""End-to-end integration tests across all packages.

Each test exercises a full pipeline a user of the library would run:
mesh -> levels -> SEM -> partition -> distributed execution -> metrics ->
performance simulation, asserting the paper's qualitative claims hold on
the assembled system (not just on isolated units).
"""

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels, theoretical_speedup
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import refined_interval, trench_mesh, uniform_grid
from repro.partition import (
    PARTITIONERS,
    lts_hypergraph,
    hypergraph_cutsize,
    mpi_volume,
    partition_report,
)
from repro.runtime import (
    CPU_NODE,
    ClusterSimulator,
    DistributedLTSSolver,
    MailboxWorld,
    build_rank_layout,
)
from repro.runtime.perfmodel import scaled
from repro.sem import SemND, point_source, ricker
from oracles import csr


class TestFullPipeline1D:
    """Seismic-shot pipeline on a refined 1D mesh, distributed 3 ways."""

    def test_source_to_seismogram_distributed_equals_serial(self):
        mesh = refined_interval(n_coarse=18, n_fine=6, refinement=4, coarse_h=0.2)
        sem = SemND(mesh, order=4)
        levels = assign_levels(mesh, c_cfl=0.4, order=4)
        dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
        src = sem.nearest_dof(0.5)
        force = point_source(sem.n_dof, src, sem.M, ricker(f0=1.5))
        rec = sem.nearest_dof(3.0)

        serial = LTSNewmarkSolver(csr.A(sem), dof_level, levels.dt, force=force)
        # Solvers step their plan's level-sorted numbering: fields go in
        # and come out through its replica map.
        m = serial.plan.replicas
        (u,), (v,) = m.scatter(np.zeros(sem.n_dof)), m.scatter(np.zeros(sem.n_dof))
        trace_serial = []
        for _ in range(40):
            u, v = serial.step(u, v)
            trace_serial.append(m.gather([u])[rec])

        parts = PARTITIONERS["SCOTCH-P"](mesh, levels, 3, seed=0)
        layout = build_rank_layout(sem, parts, 3, dof_level=dof_level)
        world = MailboxWorld(3)
        dist = DistributedLTSSolver(layout, levels.dt, world=world, force=force)
        m = dist.plan.replicas
        ul = m.scatter(np.zeros(sem.n_dof))
        vl = m.scatter(np.zeros(sem.n_dof))
        trace_dist = []
        for _ in range(40):
            dist.step(ul, vl)
            trace_dist.append(m.gather(ul)[rec])

        trace_serial = np.asarray(trace_serial)
        trace_dist = np.asarray(trace_dist)
        assert np.max(np.abs(trace_serial)) > 0  # the wave actually arrived
        assert np.max(np.abs(trace_serial - trace_dist)) < 1e-12
        assert world.pending() == 0


class TestPartitionToSimulation:
    """Mesh -> partition -> simulated wall-clock, checking Fig-9 claims."""

    @pytest.fixture(scope="class")
    def setup(self):
        mesh = trench_mesh(nx=12, ny=12, nz=6)
        levels = assign_levels(mesh)
        machine = scaled(CPU_NODE, 100.0)
        return mesh, levels, machine

    def test_lts_aware_beats_baseline_wallclock(self, setup):
        mesh, levels, machine = setup
        k = 8
        naive = PARTITIONERS["SCOTCH"](mesh, levels, k, seed=0)
        aware = PARTITIONERS["SCOTCH-P"](mesh, levels, k, seed=0)
        t_naive = ClusterSimulator(mesh, levels, naive, k, machine).lts_cycle()
        t_aware = ClusterSimulator(mesh, levels, aware, k, machine).lts_cycle()
        assert t_aware.cycle_time < t_naive.cycle_time

    def test_lts_beats_non_lts_for_every_strategy(self, setup):
        mesh, levels, machine = setup
        k = 8
        for name, fn in PARTITIONERS.items():
            parts = fn(mesh, levels, k, seed=0)
            sim = ClusterSimulator(mesh, levels, parts, k, machine)
            assert sim.lts_cycle().performance > sim.non_lts_cycle().performance, name

    def test_simulated_speedup_bounded_by_model(self, setup):
        mesh, levels, machine = setup
        k = 8
        ts = theoretical_speedup(levels)
        parts = PARTITIONERS["SCOTCH-P"](mesh, levels, k, seed=0)
        sim = ClusterSimulator(mesh, levels, parts, k, machine)
        speedup = sim.lts_cycle().performance / sim.non_lts_cycle().performance
        # Cache effects can push slightly past the pure-work model; stalls
        # and comm push below it.  It must stay in a sane band.
        assert 0.5 * ts < speedup < 1.5 * ts

    def test_report_and_volume_consistency(self, setup):
        mesh, levels, machine = setup
        parts = PARTITIONERS["PaToH 0.05"](mesh, levels, 4, seed=0)
        rep = partition_report(mesh, levels, parts, 4)
        h = lts_hypergraph(mesh, levels)
        assert rep.mpi_volume == pytest.approx(hypergraph_cutsize(h, parts, 4))
        assert rep.mpi_volume == pytest.approx(mpi_volume(mesh, levels, parts, 4))


class TestVelocityContrastPipeline2D:
    """2D: levels from velocity contrast, optimized LTS, partition, run."""

    def test_end_to_end(self):
        mesh = uniform_grid((8, 8))
        mesh.c = mesh.c.copy()
        mesh.c[27:29] = 4.0
        mesh.c[35:37] = 4.0
        sem = SemND(mesh, order=3)
        levels = assign_levels(mesh, c_cfl=0.4, order=3, grade=True)
        assert levels.n_levels >= 2
        assert theoretical_speedup(levels) > 1.5

        dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
        assert np.unique(dof_level).tolist() == [1, 2, 3]  # the inner reconstruct runs
        u0 = np.exp(-((sem.node_coords[:, 0] - 4) ** 2 + (sem.node_coords[:, 1] - 4) ** 2))
        v0 = staggered_initial_velocity(csr.A(sem), levels.dt, u0, np.zeros_like(u0))

        u_ref, _ = algorithm1(csr.A(sem), dof_level, levels.dt, u0, v0, 5)
        u_opt, _ = LTSNewmarkSolver(csr.A(sem), dof_level, levels.dt).run(u0, v0, 5)
        assert np.max(np.abs(u_ref - u_opt)) < 1e-12

        parts = PARTITIONERS["MeTiS"](mesh, levels, 4, seed=0)
        layout = build_rank_layout(sem, parts, 4, dof_level=dof_level)
        u_dist, _ = DistributedLTSSolver(layout, levels.dt).run(u0, v0, 5)
        assert np.max(np.abs(u_dist - u_ref)) < 1e-11


class TestScalingShapes:
    """Coarse end-to-end check of the strong-scaling story (Fig. 9/13)."""

    def test_lts_scaling_efficiency_degrades_with_granularity(self):
        mesh = trench_mesh(nx=12, ny=12, nz=6)
        levels = assign_levels(mesh)
        machine = scaled(CPU_NODE, 100.0)
        ts = theoretical_speedup(levels)
        effs = []
        ref = None
        for k in (4, 16, 64):
            parts = PARTITIONERS["SCOTCH-P"](mesh, levels, k, seed=0)
            sim = ClusterSimulator(mesh, levels, parts, k, machine)
            perf = sim.lts_cycle().performance
            if ref is None:
                ref = sim.non_lts_cycle().performance
            effs.append(perf / (ref * (k / 4) * ts))
        # Efficiency at 64 ranks is materially below the 4-rank value:
        # the finest level has run out of elements per rank.
        assert effs[-1] < 0.9 * effs[0]
