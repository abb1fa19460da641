"""Façade-level resilience: the acceptance tests of the fault-tolerant layer.

Kill-and-resume determinism (bitwise serial, <= 1e-12 distributed),
supervised recovery from planned faults matching the fault-free
reference, silent-corruption detection by the health guard, and the CLI
``--resume`` / atomic ``--output`` paths.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.api.simulation as simulation_mod
from repro.__main__ import main as cli_main
from repro.api import (
    ResilienceSpec,
    Simulation,
    SimulationConfig,
    relative_deviation,
)
from repro.runtime import CheckpointState, load_checkpoint, save_checkpoint
from repro.util.errors import ConfigError, SolverError

REPO = Path(__file__).resolve().parents[2]

BASE = {
    "mesh": {
        "family": "refined_interval",
        "params": {"n_coarse": 16, "n_fine": 8, "refinement": 4},
    },
    "time": {"n_cycles": 10},
    "source": {"position": [0.3], "f0": 4.0},
    "receivers": {"positions": [[0.7]]},
}


#: A 2D case for the checkpoint format: version 2 renumbered 1D DOFs
#: only, so 2D version-1 files keep resuming.
BASE_2D = {
    "mesh": {"family": "uniform_grid", "params": {"shape": [6, 6]}},
    "material": {
        "model": "acoustic",
        "regions": [{"elements": [14, 15], "values": {"c": 4.0}}],
    },
    "order": 3,
    "time": {"n_cycles": 10, "c_cfl": 0.35},
    "source": {"position": [1.0, 3.0], "f0": 0.8},
    "receivers": {"positions": [[4.0, 3.0]]},
}


def config(base=BASE, **extra) -> SimulationConfig:
    return SimulationConfig.from_dict({**base, **extra})


@pytest.fixture(scope="module")
def serial_reference():
    return Simulation(config()).run()


@pytest.fixture(scope="module")
def distributed_reference():
    return Simulation(config(partition={"n_ranks": 3})).run()


class TestResilienceSpec:
    def test_defaults_are_disabled(self):
        spec = ResilienceSpec()
        assert not spec.enabled
        assert spec.fault_plan() is None
        assert config().resilience == spec

    def test_round_trip(self):
        cfg = config(
            resilience={
                "checkpoint_every": 2,
                "checkpoint_dir": "/tmp/ck",
                "max_restarts": 3,
                "health_check_every": 1,
                "faults": [{"kind": "crash", "rank": 1, "superstep": 4}],
            },
            partition={"n_ranks": 2},
        )
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.resilience.enabled
        assert len(cfg.resilience.fault_plan().events) == 1

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            config(resilience={"checkpoint_every": 2})

    def test_energy_factor_requires_health_cadence(self):
        with pytest.raises(ConfigError, match="health_check_every"):
            config(resilience={"energy_factor": 10.0})

    def test_faults_need_multiple_ranks(self):
        with pytest.raises(ConfigError, match="n_ranks"):
            config(
                resilience={"faults": [{"kind": "crash", "rank": 0}]}
            )

    def test_bad_fault_event_is_config_error(self):
        with pytest.raises(ConfigError, match="fault event"):
            config(
                partition={"n_ranks": 2},
                resilience={"faults": [{"kind": "gremlin"}]},
            )

    def test_content_hash_ignores_resilience_and_name(self):
        plain = config()
        tweaked = config(
            name="other",
            resilience={"checkpoint_every": 2, "checkpoint_dir": "x"},
        )
        assert plain.content_hash() == tweaked.content_hash()
        assert plain.content_hash() != config(time={"n_cycles": 11}).content_hash()


class TestKillAndResume:
    @pytest.mark.parametrize("tier", ["auto", "numpy"])
    def test_serial_resume_is_bitwise(self, tmp_path, tier, serial_reference):
        cfg = config(
            backend={"stiffness": "matfree", **({"fused": False} if tier == "numpy" else {})},
            resilience={
                "checkpoint_every": 3,
                "checkpoint_dir": str(tmp_path),
            },
        )
        full = Simulation(cfg).run()
        # "kill" after cycle 6: only the checkpoint file survives
        ckpt = tmp_path / "ckpt_00000006.npz"
        assert ckpt.exists()
        resumed = Simulation(cfg).run(resume=ckpt)
        assert np.array_equal(resumed.u, full.u)
        assert np.array_equal(resumed.v, full.v)
        assert np.array_equal(resumed.traces, full.traces)
        assert resumed.metadata["resilience"]["resumed_from_cycle"] == 6
        if tier == "auto":  # the default backend: the reference's
            assert np.array_equal(full.u, serial_reference.u)
        else:
            assert relative_deviation(serial_reference, full) <= 1e-12

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_plain_guarded_and_resumed_runs_are_bitwise(
        self, tmp_path, monkeypatch, n_ranks
    ):
        """One loop for every run: hooks off, hooks on (no faults), or
        resumed mid-run produce the same bits — and the plain run does
        not so much as construct the resilience machinery."""
        partition = {"n_ranks": n_ranks}

        def forbidden(*args, **kwargs):
            raise AssertionError("plain run touched the resilience machinery")

        with monkeypatch.context() as m:
            for name in ("FaultyWorld", "latest_checkpoint", "save_checkpoint"):
                m.setattr(simulation_mod, name, forbidden)
            plain = Simulation(config(partition=partition)).run()
        assert "resilience" not in plain.metadata

        guarded = Simulation(
            config(
                partition=partition,
                resilience={
                    "checkpoint_every": 4,
                    "checkpoint_dir": str(tmp_path),
                    "health_check_every": 1,
                },
            )
        ).run()
        assert guarded.metadata["resilience"]["health_checks"] == 10
        assert guarded.metadata["resilience"]["checkpoints_written"] == 2
        # resilience off, resume given: still the same loop
        resumed = Simulation(config(partition=partition)).run(
            resume=tmp_path / "ckpt_00000004.npz"
        )
        assert resumed.metadata["resilience"]["resumed_from_cycle"] == 4
        assert resumed.metadata["resilience"]["checkpoints_written"] == 0
        for other in (guarded, resumed):
            assert np.array_equal(other.u, plain.u)
            assert np.array_equal(other.v, plain.v)
            assert np.array_equal(other.traces, plain.traces)

    def test_resume_skips_completed_work(self, tmp_path):
        cfg = config(
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)}
        )
        full = Simulation(cfg).run()
        final = tmp_path / "ckpt_00000010.npz"
        done = Simulation(cfg).run(resume=final)
        assert np.array_equal(done.u, full.u)
        assert np.array_equal(done.traces, full.traces)

    def test_checkpoint_stores_traces_so_far(self, tmp_path):
        cfg = config(
            resilience={"checkpoint_every": 3, "checkpoint_dir": str(tmp_path)}
        )
        full = Simulation(cfg).run()
        state = load_checkpoint(tmp_path / "ckpt_00000006.npz")
        assert state.traces.shape == (6, 1)
        assert np.array_equal(state.traces, full.traces[:6])

    def test_keep_checkpoints_prunes(self, tmp_path):
        cfg = config(
            resilience={
                "checkpoint_every": 2,
                "checkpoint_dir": str(tmp_path),
                "keep_checkpoints": 2,
            }
        )
        Simulation(cfg).run()
        names = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
        assert names == ["ckpt_00000008.npz", "ckpt_00000010.npz"]

    def test_config_hash_mismatch_refused(self, tmp_path):
        cfg = config(
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)}
        )
        Simulation(cfg).run()
        other = config(time={"n_cycles": 12}, source={"position": [0.4], "f0": 3.0})
        with pytest.raises(ConfigError, match="different configuration"):
            Simulation(other).run(resume=tmp_path / "ckpt_00000005.npz")

    def test_backend_change_does_not_refuse_resume(self, tmp_path):
        """Regression: the backend section is an execution plan, not
        physics — a checkpoint written under ``threads=None`` must
        resume under ``threads=2`` (or on the other tier) instead of
        being rejected by the config-hash check."""
        cfg = config(
            backend={"stiffness": "matfree"},  # threads=None
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)},
        )
        full = Simulation(cfg).run()
        ckpt = tmp_path / "ckpt_00000005.npz"
        threaded = config(
            backend={"stiffness": "matfree", "threads": 2},
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)},
        )
        resumed = Simulation(threaded).run(resume=ckpt)
        assert resumed.metadata["resilience"]["resumed_from_cycle"] == 5
        assert relative_deviation(full, resumed) <= 1e-12
        # ... and across a fused choice too.
        other_backend = config(
            backend={"stiffness": "matfree", "fused": False},
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)},
        )
        crossed = Simulation(other_backend).run(resume=ckpt)
        assert relative_deviation(full, crossed) <= 1e-12

    def test_rank_count_mismatch_refused(self, tmp_path):
        """Two refusals, each asserted by its own words.  A façade
        checkpoint of another rank count fails the content hash (the
        partition is part of it); a hash-less 3-replica state on a
        2-rank config fails the replica count."""
        cfg = config(
            partition={"n_ranks": 3},
            resilience={"checkpoint_every": 5, "checkpoint_dir": str(tmp_path)},
        )
        Simulation(cfg).run()
        ckpt = tmp_path / "ckpt_00000005.npz"
        with pytest.raises(ConfigError, match="written by a different configuration"):
            Simulation(config(partition={"n_ranks": 2})).run(resume=ckpt)
        state = load_checkpoint(ckpt)
        state.config_hash = None
        assert state.n_ranks == 3
        with pytest.raises(ConfigError, match="3 per-rank replicas but this run has 2 ranks"):
            Simulation(config(partition={"n_ranks": 2})).run(resume=state)


class TestResumeMatrix:
    """Every (checkpoint, run) pair reaches the outcome it reached when
    serial checkpoints held no replicas: the replicas copied, the global
    field scattered onto ranks or started from serially, or a refusal.
    Checkpoints come from a run of 1 or 3 ranks, written to disk with
    their content hash or handed over in memory without one."""

    #: (checkpoint replicas, run ranks, hashed) -> outcome.
    OUTCOMES = {
        (1, 1, True): "copy", (1, 3, True): "refuse",
        (3, 1, True): "refuse", (3, 3, True): "replicas",
        (1, 1, False): "copy", (1, 3, False): "scatter",
        (3, 1, False): "from-global", (3, 3, False): "replicas",
    }
    KEYS = {"version", "cycle", "t", "u", "v", "n_ranks", "traces", "dt",
            "n_cycles_total", "config_hash"}

    @staticmethod
    def _write(tmp_path_factory, base):
        out = {}
        for n in (1, 3):
            d = tmp_path_factory.mktemp(f"ranks{n}")
            cfg = config(
                base,
                partition={"n_ranks": n},
                resilience={"checkpoint_every": 5, "checkpoint_dir": str(d)},
            )
            out[n] = (d / "ckpt_00000005.npz", Simulation(cfg).run())
        return out

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """Per rank count, the cycle-5 checkpoint file and the
        uninterrupted result."""
        return self._write(tmp_path_factory, BASE)

    @pytest.fixture(scope="class")
    def written_2d(self, tmp_path_factory):
        """:meth:`written` for the 2D case."""
        return self._write(tmp_path_factory, BASE_2D)

    @pytest.mark.parametrize("replicas,ranks,hashed", sorted(OUTCOMES))
    def test_outcome(self, replicas, ranks, hashed, written, monkeypatch):
        path, _ = written[replicas]
        state = load_checkpoint(path)
        resume = path
        if not hashed:
            # Several replicas are nudged, so that restoring them and
            # scattering the global field start from different values.
            nudge = (lambda xs: None) if replicas == 1 else (lambda xs: [x + 1.0 for x in xs])
            state = resume = CheckpointState(
                cycle=state.cycle, t=state.t, u=state.u, v=state.v,
                u_locals=nudge(state.u_locals), v_locals=nudge(state.v_locals),
                traces=state.traces,
            )
        starts = []
        real = simulation_mod.run_cycles

        def spy(solver, fields, *args, **kwargs):
            starts.append([x.copy() for x in fields.u])
            return real(solver, fields, *args, **kwargs)

        monkeypatch.setattr(simulation_mod, "run_cycles", spy)
        sim = Simulation(config(partition={"n_ranks": ranks}))
        outcome = self.OUTCOMES[replicas, ranks, hashed]
        if outcome == "refuse":
            with pytest.raises(ConfigError, match="written by a different configuration"):
                sim.run(resume=resume)
            assert not starts
            return
        result = sim.run(resume=resume)
        gdofs = [slice(None)] if ranks == 1 else sim.rank_layout.gdofs
        expected = {
            "copy": state.u_locals,
            "replicas": state.u_locals,
            "scatter": [state.u[g] for g in gdofs],
            "from-global": [state.u],
        }[outcome]
        # The run starts from replicas in the plan's (level-sorted)
        # numbering; ``expected`` is ascending in global id.
        start = sim.solver_plan.replicas.ascending(*starts)
        assert len(start) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(start, expected))
        _, full = written[ranks]
        if outcome == "copy" or (outcome == "replicas" and hashed):
            for key in ("u", "v", "traces"):
                assert np.array_equal(getattr(result, key), getattr(full, key)), key
        elif outcome != "replicas":  # the global field of another rank count
            assert relative_deviation(full, result) <= 1e-12

    @pytest.mark.parametrize("ranks", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_file_keys_and_version_1_layout(self, dim, ranks, request, tmp_path):
        """A serial file holds no replicas; a 3-rank one holds
        ``u_local_0..2`` / ``v_local_0..2``.  The state written by hand
        with ``np.savez`` in the version-1 key layout loads; in 2D it
        resumes bitwise, in 1D (whose DOFs version 2 renumbered) it is
        refused.  The version-2 file resumes bitwise in both."""
        base = BASE if dim == 1 else BASE_2D
        path, full = request.getfixturevalue("written" if dim == 1 else "written_2d")[ranks]
        keys = set(self.KEYS)
        if ranks > 1:
            keys |= {f"{x}_local_{r}" for x in "uv" for r in range(ranks)}
        with np.load(path) as ck:
            assert set(ck.files) == keys
            v1 = {
                "version": np.int64(1),
                "cycle": np.int64(ck["cycle"]),
                "t": np.float64(ck["t"]),
                "u": ck["u"],
                "v": ck["v"],
                "n_ranks": np.int64(ranks),
            }
            if ranks > 1:
                for r in range(ranks):
                    v1[f"u_local_{r}"] = ck[f"u_local_{r}"]
                    v1[f"v_local_{r}"] = ck[f"v_local_{r}"]
            v1["traces"] = ck["traces"]
            v1["dt"] = np.float64(ck["dt"])
            v1["n_cycles_total"] = np.int64(ck["n_cycles_total"])
            v1["config_hash"] = np.array(str(ck["config_hash"]))
        np.savez(tmp_path / "v1.npz", **v1)
        state = load_checkpoint(tmp_path / "v1.npz")
        assert state.n_ranks == ranks and state.cycle == 5 and state.version == 1
        assert load_checkpoint(path).version == 2
        # Saving the loaded state again keeps its version (and DOF order).
        resaved = save_checkpoint(tmp_path / "resaved.npz", state)
        old = [tmp_path / "v1.npz", resaved]
        sim = Simulation(config(base, partition={"n_ranks": ranks}))
        if dim == 1:
            for resume in old:
                with pytest.raises(ConfigError, match="DOF order before version 2"):
                    sim.run(resume=resume)
        for resume in [path] if dim == 1 else [path, *old]:
            resumed = sim.run(resume=resume)
            assert resumed.metadata["resilience"]["resumed_from_cycle"] == 5
            for key in ("u", "v", "traces"):
                assert np.array_equal(getattr(resumed, key), getattr(full, key)), key


class TestSupervisedRecovery:
    def test_crash_recovery_matches_fault_free(self, tmp_path, distributed_reference):
        """The paper-scale story in miniature: rank 1 dies mid-run, the
        supervisor restores the last checkpoint and the final answer is
        identical to the run where nothing went wrong."""
        cfg = config(
            partition={"n_ranks": 3},
            resilience={
                "checkpoint_every": 3,
                "checkpoint_dir": str(tmp_path),
                "max_restarts": 1,
                "faults": [{"kind": "crash", "rank": 1, "superstep": 7}],
            },
        )
        result = Simulation(cfg).run()
        assert np.array_equal(result.u, distributed_reference.u)
        assert np.array_equal(result.traces, distributed_reference.traces)
        rmd = result.metadata["resilience"]
        assert rmd["attempts"] == 2
        assert rmd["recovery"][0]["error"] == "RankFailure"
        assert rmd["faults_injected"][0]["kind"] == "crash"

    def test_crash_without_checkpoints_restarts_cold(self, distributed_reference):
        cfg = config(
            partition={"n_ranks": 3},
            resilience={
                "max_restarts": 1,
                "faults": [{"kind": "crash", "rank": 0, "superstep": 2}],
            },
        )
        result = Simulation(cfg).run()
        assert np.array_equal(result.u, distributed_reference.u)
        assert result.metadata["resilience"]["checkpoints_written"] == 0

    def test_exhausted_budget_reraises(self):
        cfg = config(
            partition={"n_ranks": 2},
            resilience={
                "max_restarts": 1,
                "faults": [
                    {"kind": "crash", "rank": 0, "superstep": 1, "attempt": 0},
                    {"kind": "crash", "rank": 1, "superstep": 1, "attempt": 1},
                ],
            },
        )
        from repro.util.errors import RankFailure

        with pytest.raises(RankFailure):
            Simulation(cfg).run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_silent_corruption_caught_and_recovered(
        self, tmp_path, distributed_reference
    ):
        """A bit flip in a halo message (silent: the transport succeeds,
        and a ~1e300 field value is still finite) must be caught by the
        energy-growth guard within its cadence and healed by a
        supervised restart from the last good checkpoint."""
        cfg = config(
            partition={"n_ranks": 3},
            resilience={
                "checkpoint_every": 2,
                "checkpoint_dir": str(tmp_path),
                "max_restarts": 1,
                "health_check_every": 1,
                "energy_factor": 1e6,
                # bit 62 (top exponent bit): the ~1e-6 payload on the
                # 0->2 halo channel becomes ~1e302 — finite, so only
                # the energy proxy can flag it
                "faults": [
                    {
                        "kind": "bitflip", "superstep": 7,
                        "src": 0, "dst": 2, "bit": 62,
                    }
                ],
            },
        )
        result = Simulation(cfg).run()
        assert np.array_equal(result.u, distributed_reference.u)
        rmd = result.metadata["resilience"]
        assert rmd["attempts"] == 2
        assert rmd["recovery"][0]["error"] == "NumericalError"
        # caught within health_check_every (=1) cycles of the corrupted
        # superstep
        assert "cycle 8" in rmd["recovery"][0]["message"]
        assert "energy" in rmd["recovery"][0]["message"]
        assert rmd["faults_injected"][0]["kind"] == "bitflip"


def _repro(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


class TestCli:
    @pytest.fixture()
    def cfg_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        return path

    def test_resume_round_trip(self, tmp_path, cfg_file):
        """Run with checkpointing, then resume from the mid-run file:
        identical outputs."""
        out1, out2 = tmp_path / "a.npz", tmp_path / "b.npz"
        ckdir = tmp_path / "ck"
        proc = _repro(
            "run", str(cfg_file), "--checkpoint-dir", str(ckdir),
            "--checkpoint-every", "4", "--output", str(out1),
        )
        assert "checkpoint(s) written" in proc.stdout
        proc = _repro(
            "run", str(cfg_file), "--resume", str(ckdir / "ckpt_00000004.npz"),
            "--output", str(out2),
        )
        assert "resumed from cycle 4" in proc.stdout
        a, b = np.load(out1), np.load(out2)
        assert np.array_equal(a["u"], b["u"])
        assert np.array_equal(a["traces"], b["traces"])

    def test_resume_missing_checkpoint_exits_2(self, cfg_file, tmp_path):
        proc = _repro(
            "run", str(cfg_file), "--resume", str(tmp_path / "nope.npz"),
            check=False,
        )
        assert proc.returncode == 2
        assert "not found" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_checkpoint_every_without_dir_exits_2(self, cfg_file):
        proc = _repro(
            "run", str(cfg_file), "--checkpoint-every", "3", check=False
        )
        assert proc.returncode == 2
        assert "checkpoint_dir" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_resilience_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({**BASE, "resilience": {"checkpoints_every": 3}})
        )
        proc = _repro("run", str(bad), check=False)
        assert proc.returncode == 2
        assert "checkpoints_every" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_output_written_atomically(self, cfg_file, tmp_path, monkeypatch):
        """A crash during --output serialization leaves no partial file
        (in-process so np.savez can be failed mid-run)."""
        out = tmp_path / "out.npz"
        monkeypatch.setattr(
            np, "savez", lambda *a, **k: (_ for _ in ()).throw(OSError("full"))
        )
        with pytest.raises(OSError):
            cli_main(["run", str(cfg_file), "--output", str(out)])
        assert not out.exists()
        assert not list(tmp_path.glob(".out.npz.*"))

    def test_validate_accepts_resilience_block(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    **BASE,
                    "resilience": {
                        "checkpoint_every": 2,
                        "checkpoint_dir": str(tmp_path / "ck"),
                        "health_check_every": 1,
                    },
                }
            )
        )
        proc = _repro("validate", str(path), "--print")
        assert "OK" in proc.stdout
        printed = json.loads(proc.stdout.split("\n", 1)[1])
        assert printed["resilience"]["checkpoint_every"] == 2
