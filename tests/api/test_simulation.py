"""Simulation-driver tests: resolved pipeline stages, scheme semantics,
and serial-vs-distributed SimulationResult agreement (2D and 3D)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.api import (
    BackendSpec,
    PartitionSpec,
    Simulation,
    SimulationConfig,
    StageCache,
    relative_deviation,
    run,
)
from repro.sem import ElasticSemND, SemND
from repro.util.errors import ConfigError
from oracles import csr


def config_2d(**overrides) -> SimulationConfig:
    base = dict(
        name="2d-case",
        mesh={"family": "uniform_grid", "params": {"shape": [6, 6]}},
        material={
            "model": "acoustic",
            "regions": [{"elements": [14, 15], "values": {"c": 4.0}}],
        },
        order=3,
        time={"n_cycles": 12, "c_cfl": 0.35},
        source={"position": [1.0, 3.0], "f0": 0.8},
        receivers={"positions": [[4.0, 3.0], [5.0, 3.0]]},
    )
    base.update(overrides)
    return SimulationConfig.from_dict(base)


def config_3d(**overrides) -> SimulationConfig:
    base = dict(
        name="3d-case",
        mesh={
            "family": "trench",
            "params": {"nx": 6, "ny": 4, "nz": 2, "band_radii": [0.8]},
        },
        material={"model": "elastic", "lam": 2.0, "mu": 1.0},
        order=2,
        time={"n_cycles": 6, "c_cfl": 0.35},
        source={"position": [1.0, 2.0, 0.5], "component": 2, "f0": 0.5},
        receivers={"positions": [[4.0, 2.0, 0.5]], "component": 2},
    )
    base.update(overrides)
    return SimulationConfig.from_dict(base)


class TestPipelineStages:
    def test_assembler_dispatch(self):
        """The material model alone picks the class, in every dimension."""
        sem2 = Simulation(config_2d()).assembler
        assert type(sem2) is SemND and sem2.dim == 2
        sem3 = Simulation(config_3d()).assembler
        assert type(sem3) is ElasticSemND and sem3.dim == 3
        cfg1 = SimulationConfig.from_dict(
            {
                "mesh": {"family": "refined_interval",
                         "params": {"n_coarse": 8, "n_fine": 4}},
                "time": {"n_cycles": 2},
            }
        )
        sem1 = Simulation(cfg1).assembler
        assert type(sem1) is SemND and sem1.dim == 1
        cfg3a = config_3d(material={"model": "acoustic"}, source=None, receivers=None)
        sem3a = Simulation(cfg3a).assembler
        assert type(sem3a) is SemND and sem3a.dim == 3

    def test_elastic_on_1d_mesh_rejected(self):
        cfg = SimulationConfig.from_dict(
            {
                "mesh": {"family": "uniform_interval", "params": {"n_elements": 4}},
                "material": {"model": "elastic"},
                "time": {"n_cycles": 1},
            }
        )
        with pytest.raises(ConfigError, match="elastic materials need a 2D or 3D"):
            Simulation(cfg).assembler

    def test_levels_follow_material_velocity(self):
        """The fast inclusion, not mesh geometry, creates the levels."""
        sim = Simulation(config_2d())
        assert sim.levels.n_levels >= 2
        lvl = sim.levels.level
        assert lvl[14] == sim.levels.n_levels  # fast element = finest level
        no_region = Simulation(config_2d(material={"model": "acoustic"}))
        assert no_region.levels.n_levels == 1

    def test_component_validation(self):
        with pytest.raises(ConfigError, match="scalar physics"):
            Simulation(config_2d(source={"position": [1.0, 3.0], "component": 1})).force
        with pytest.raises(ConfigError, match="out of range"):
            Simulation(
                config_3d(source={"position": [1.0, 2.0, 0.5], "component": 3})
            ).force

    def test_position_dimension_validation(self):
        with pytest.raises(ConfigError, match="2 coordinates but the mesh is 3D"):
            Simulation(config_3d(source={"position": [1.0, 2.0]})).force

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_source_on_a_clamped_dof_refused(self, dim):
        """A source on a Dirichlet DOF would move the clamped node and
        send no wave into the domain: refused, naming the position.  The
        same source one element inside runs."""
        make, extra = config_2d, {}
        if dim == 1:
            mesh = {"family": "refined_interval", "params": {
                "n_coarse": 16, "n_fine": 4, "refinement": 2, "coarse_h": 0.125}}
            inside, corner = [1.0], [0.0]
        elif dim == 2:
            mesh, inside, corner = None, [1.0, 3.0], [0.0, 6.0]
        else:  # elastic: every component of the corner node is clamped
            make, extra = config_3d, {"component": 2}
            mesh, inside, corner = None, [1.0, 2.0, 0.5], [0.0, 0.0, 0.0]
        over = dict(dirichlet=True, source={"position": corner, "f0": 0.8, **extra})
        if dim == 1:
            over.update(mesh=mesh, material={"model": "acoustic"}, receivers=None)
        with pytest.raises(ConfigError, match=rf"source position \{corner}.*is Dirichlet"):
            Simulation(make(**over)).force
        over["source"] = {"position": inside, "f0": 0.8, **extra}
        sim = Simulation(make(**over))
        assert sim.assembler.dirichlet_mask[sim.force.dof] == 1.0
        # Without Dirichlet rows the corner is an ordinary DOF.
        over.update(dirichlet=False, source={"position": corner, "f0": 0.8, **extra})
        assert Simulation(make(**over)).force is not None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_receiver_on_a_clamped_dof_refused(self, dim):
        """A receiver on a Dirichlet DOF would record zeros: refused,
        naming the receiver's index and position.  The same receiver one
        element inside records the wave."""
        make, extra = config_2d, {}
        if dim == 1:
            mesh = {"family": "refined_interval", "params": {
                "n_coarse": 16, "n_fine": 4, "refinement": 2, "coarse_h": 0.125}}
            inside, corner, src = [1.0], [0.0], [0.75]
        elif dim == 2:
            mesh, inside, corner, src = None, [1.0, 3.0], [0.0, 6.0], [2.0, 3.0]
        else:  # elastic: every component of the corner node is clamped
            make, extra = config_3d, {"component": 2}
            mesh, inside, corner, src = None, [4.0, 2.0, 0.5], [6.0, 4.0, 0.0], [1.0, 2.0, 0.5]
        over = dict(dirichlet=True, source={"position": src, "f0": 0.8, **extra},
                    receivers={"positions": [inside, corner], **extra})
        if dim == 1:
            over.update(mesh=mesh, material={"model": "acoustic"})
        with pytest.raises(ConfigError, match=rf"receiver #1 at \{corner}.*is Dirichlet"):
            Simulation(make(**over)).receiver_dofs
        over["receivers"] = {"positions": [inside], **extra}
        assert np.abs(Simulation(make(**over)).run().traces).max() > 0
        # Without Dirichlet rows the corner is an ordinary DOF.
        over.update(dirichlet=False, receivers={"positions": [corner], **extra})
        assert Simulation(make(**over)).receiver_dofs is not None

    def test_t_end_mode_lands_exactly(self):
        cfg = config_2d(time={"t_end": 1.0, "c_cfl": 0.35})
        sim = Simulation(cfg)
        assert sim.n_cycles * sim.dt == pytest.approx(1.0, abs=1e-15)
        assert sim.dt <= sim.levels.dt + 1e-15

    def test_newmark_scheme_is_single_level_at_fine_step(self):
        sim = Simulation(config_2d(time={"n_cycles": 3, "c_cfl": 0.35,
                                         "scheme": "newmark"}))
        assert np.all(sim.dof_level == 1)
        assert sim.dt == sim.levels.dt_min

    def test_schemes_cover_the_same_physical_duration(self):
        """n_cycles counts coarse-cycle spans under both schemes: the
        newmark baseline takes p_max fine steps per cycle."""
        lts = Simulation(config_2d())
        nm = Simulation(config_2d(time={"n_cycles": 12, "c_cfl": 0.35,
                                        "scheme": "newmark"}))
        assert lts.levels.p_max > 1
        assert nm.n_cycles == 12 * lts.levels.p_max
        assert nm.n_cycles * nm.dt == pytest.approx(lts.n_cycles * lts.dt)

    def test_result_fields_and_metadata(self):
        res = Simulation(config_2d()).run()
        assert res.traces.shape == (12, 2)
        assert res.times.shape == (12,)
        assert res.times[-1] == pytest.approx(12 * res.dt)
        assert res.u.shape == res.v.shape
        assert res.parts is None
        md = res.metadata
        assert md["scheme"] == "lts" and md["n_ranks"] == 1
        assert md["n_dof"] == Simulation(config_2d()).assembler.n_dof

    @pytest.mark.parametrize("resilient", [False, True])
    def test_perf_metadata_opt_in(self, resilient, tmp_path):
        """One loop: ``perf`` is recorded on checkpointed, health-guarded
        and resumed runs too (the old resilient path dropped it)."""
        def cfg(ckpt_dir):
            if not resilient:
                return config_2d()
            return config_2d(
                resilience={
                    "checkpoint_every": 4,
                    "checkpoint_dir": str(tmp_path / ckpt_dir),
                    "health_check_every": 1,
                }
            )

        plain = Simulation(cfg("a")).run()
        assert "perf" not in plain.metadata
        assert ("resilience" in plain.metadata) == resilient
        # The resilient leg also resumes mid-run (into a fresh
        # checkpoint dir: a newer checkpoint there would win).
        resume = tmp_path / "a" / "ckpt_00000004.npz" if resilient else None
        res = Simulation(cfg("b")).run(perf=True, resume=resume)
        perf = res.metadata["perf"]
        assert perf["steps_per_second"] > 0
        assert perf["steps_traced"] >= 1
        assert perf["workspace_bytes"] > 0
        assert perf["allocs_per_step"] <= 16
        # Tracing must not perturb the results.
        assert np.array_equal(res.u, plain.u)
        assert np.array_equal(res.traces, plain.traces)

    @pytest.mark.parametrize("resilient", [False, True])
    def test_perf_metadata_distributed(self, resilient, tmp_path):
        cfg = config_2d(
            partition={"n_ranks": 3},
            resilience=(
                {"checkpoint_every": 4, "checkpoint_dir": str(tmp_path)}
                if resilient
                else {}
            ),
        )
        res = Simulation(cfg).run(perf=True)
        perf = res.metadata["perf"]
        assert perf["steps_per_second"] > 0
        assert perf["steps_traced"] >= 1
        assert ("resilience" in res.metadata) == resilient


#: The kernel tiers a config can ask for: NumPy, and fused wherever it loads.
TIERS = {"numpy": {"fused": False}, "auto": {}}


class TestSerialDistributedAgreement:
    @pytest.mark.parametrize("tier", list(TIERS))
    def test_2d_acoustic(self, tier):
        cfg = config_2d(backend=TIERS[tier])
        serial = run(cfg)
        dist = run(replace(cfg, partition=PartitionSpec(n_ranks=4)))
        assert dist.parts is not None and len(dist.parts) == 36
        assert "messages" in dist.metadata
        assert relative_deviation(serial, dist) < 1e-11
        assert np.abs(serial.v - dist.v).max() <= 1e-11 * max(
            np.abs(serial.v).max(), 1.0
        )
        assert np.abs(serial.traces).max() > 0

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_3d_elastic(self, tier):
        cfg = config_3d(backend=TIERS[tier])
        serial = run(cfg)
        dist = run(replace(cfg, partition=PartitionSpec(n_ranks=3)))
        assert relative_deviation(serial, dist) < 1e-11
        assert np.abs(serial.traces).max() > 0

    def test_tier_and_serial_variants_agree_and_share_stages(self):
        """The cross-checks the examples run: a distributed config against
        its serial variant and its NumPy-tier variant, through one cache."""
        sim = Simulation(config_2d(partition={"n_ranks": 3}), cache=StageCache())
        dist = sim.run()
        serial = sim.variant(partition=PartitionSpec(n_ranks=1)).run()
        numpy_leg = sim.variant(backend=BackendSpec(fused=False)).run()
        assert serial.parts is None and dist.parts is not None
        assert numpy_leg.metadata["kernel_tier"] == "numpy"
        assert relative_deviation(serial, dist) < 1e-11
        assert relative_deviation(dist, numpy_leg) < 1e-12
        assert sim.cache.stats.resolutions["assembler"] == 1

    def test_partition_variant_keeps_fused_choice(self):
        """A distributed leg derived from a NumPy-tier config runs the
        NumPy tier on every rank, as the base does serially."""
        sim = Simulation(config_2d(backend={"stiffness": "matfree", "fused": False}))
        dist = sim.variant(partition=PartitionSpec(n_ranks=3))
        assert dist.config.backend.fused is False
        base, leg = sim.run(), dist.run()
        assert base.metadata["kernel_tier"] == leg.metadata["kernel_tier"] == "numpy"
        assert relative_deviation(base, leg) < 1e-11

    def test_variant_shares_resolved_stages(self):
        sim = Simulation(config_2d())
        sim.run()
        var = sim.variant(backend=BackendSpec(stiffness="matfree"))
        assert var.assembler is sim.assembler  # no re-assembly
        assert var.levels is sim.levels
        assert var.config.backend.stiffness == "matfree"
        # An identical partition spec shares the resolved parts ...
        same = sim.variant(partition=PartitionSpec(n_ranks=1))
        assert same.assembler is sim.assembler
        assert "parts" in same.__dict__ and same.parts is None
        # ... while an actually different one re-derives them (only).
        dist = sim.variant(partition=PartitionSpec(n_ranks=3))
        assert dist.assembler is sim.assembler
        assert "parts" not in dist.__dict__
        assert dist.parts is not None and len(dist.parts) == 36

    def test_distributed_newmark_scheme(self):
        cfg = config_2d(time={"n_cycles": 3, "c_cfl": 0.35, "scheme": "newmark"})
        serial = run(cfg)
        dist = run(replace(cfg, partition=PartitionSpec(n_ranks=2)))
        assert relative_deviation(serial, dist) < 1e-12


class TestFacadeMatchesManualWiring:
    def test_serial_run_equals_hand_wired_solver(self):
        """The façade adds nothing to the numerics: a hand-wired
        LTSNewmarkSolver from the same resolved stages is bit-identical."""
        from repro.core.lts_newmark import LTSNewmarkSolver

        cfg = config_2d()
        sim = Simulation(cfg)
        res = sim.run()
        solver = LTSNewmarkSolver(
            sim.operator(), sim.dof_level, sim.dt, force=sim.force
        )
        m = solver.plan.replicas  # step runs in the plan's numbering
        (u,), (v,) = m.scatter(np.zeros(sim.assembler.n_dof)), m.scatter(np.zeros(sim.assembler.n_dof))
        for _ in range(sim.n_cycles):
            u, v = solver.step(u, v)
        u, v = m.gather([u]), m.gather([v])
        assert np.array_equal(res.u, u)
        assert np.array_equal(res.v, v)

    def test_1d_acoustic_runs_end_to_end(self):
        cfg = SimulationConfig.from_dict(
            {
                "mesh": {
                    "family": "refined_interval",
                    "params": {"n_coarse": 16, "n_fine": 8, "refinement": 4,
                               "coarse_h": 0.125},
                },
                "order": 4,
                "dirichlet": True,
                "time": {"n_cycles": 10, "c_cfl": 0.4},
                "source": {"position": [0.5], "f0": 2.0},
                "receivers": {"positions": [[1.0]]},
            }
        )
        res = run(cfg)
        assert res.levels.n_levels == 3
        assert np.all(np.isfinite(res.u))

    def test_1d_density_reaches_the_assembler(self):
        """A 1D acoustic config assembles with its resolved material, as
        in 2D and 3D: ``rho`` scales the mass, and a constant density
        cancels out of ``A = M^{-1} K``."""
        spec = {
            "mesh": {"family": "uniform_interval", "params": {"n_elements": 4}},
            "time": {"n_cycles": 1},
        }
        unit = Simulation(SimulationConfig.from_dict(spec)).assembler
        sim = Simulation(SimulationConfig.from_dict(
            {**spec, "material": {"model": "acoustic", "rho": 2.0}}
        ))
        sem = sim.assembler
        assert isinstance(sem, SemND)
        assert np.array_equal(sem.material.rho, np.full(4, 2.0))
        assert np.array_equal(sem.material.c, sim.material.c)
        assert np.array_equal(sem.M, 2.0 * unit.M)
        assert np.abs(csr.A(sem) - csr.A(unit)).max() <= 1e-14 * np.abs(csr.A(unit)).max()
