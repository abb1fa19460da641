"""Ensemble engine acceptance: sweep expansion, stage-key grouping,
and the bitwise warm-vs-cold contract across pool widths, dimensions,
kernel tiers, and serial/distributed execution."""

import json

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.api import (
    EnsembleSpec,
    Simulation,
    SimulationConfig,
    StageCache,
    SweepSpec,
    run_ensemble,
)
from repro.util.errors import ConfigError

BASE_2D = dict(
    mesh={"family": "uniform_grid", "params": {"shape": [6, 6]}},
    material={
        "model": "acoustic",
        "regions": [{"elements": [14, 15], "values": {"c": 4.0}}],
    },
    order=3,
    time={"n_cycles": 6, "c_cfl": 0.35},
    source={"position": [1.0, 3.0], "f0": 0.8},
    receivers={"positions": [[4.0, 3.0]]},
)

#: The kernel tiers a member can run: NumPy, and fused wherever it loads.
TIERS = {"numpy": {"fused": False}, "auto": {}}

BASE_3D = dict(
    mesh={
        "family": "trench",
        "params": {"nx": 6, "ny": 4, "nz": 2, "band_radii": [0.8]},
    },
    material={"model": "elastic", "lam": 2.0, "mu": 1.0},
    order=2,
    time={"n_cycles": 4, "c_cfl": 0.35},
    source={"position": [1.0, 2.0, 0.5], "component": 2, "f0": 0.5},
    receivers={"positions": [[4.0, 2.0, 0.5]], "component": 2},
)


def source_sweep(base, positions, **extra) -> EnsembleSpec:
    return EnsembleSpec.from_dict(
        {
            "name": "sweep",
            "base": base,
            "mode": "zip",
            "sweeps": [{"path": "source.position", "values": positions}],
            **extra,
        }
    )


class TestExpansion:
    def test_zip_mode(self):
        spec = source_sweep(BASE_2D, [[1.0, 3.0], [2.0, 3.0]])
        configs = spec.expand()
        assert spec.n_members == len(configs) == 2
        assert configs[0].source.position == (1.0, 3.0)
        assert configs[1].source.position == (2.0, 3.0)
        assert [c.name for c in configs] == ["sweep[0]", "sweep[1]"]
        # everything unswept is inherited
        assert configs[0].material == configs[1].material

    def test_product_mode(self):
        spec = EnsembleSpec.from_dict(
            {
                "base": BASE_2D,
                "sweeps": [
                    {"path": "source.f0", "values": [0.5, 0.8]},
                    {"path": "time.c_cfl", "values": [0.3, 0.35, 0.4]},
                ],
            }
        )
        configs = spec.expand()
        assert spec.n_members == len(configs) == 6
        assert {(c.source.f0, c.time.c_cfl) for c in configs} == {
            (f, c) for f in (0.5, 0.8) for c in (0.3, 0.35, 0.4)
        }

    def test_whole_section_sweep(self):
        spec = EnsembleSpec.from_dict(
            {
                "base": BASE_2D,
                "sweeps": [
                    {
                        "path": "backend",
                        "values": [{"fused": False}, {"fused": True}],
                    }
                ],
            }
        )
        assert [c.backend.fused for c in spec.expand()] == [False, True]

    def test_round_trips_through_dicts(self):
        spec = source_sweep(BASE_2D, [[1.0, 3.0], [2.0, 3.0]])
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(ConfigError, match="equal-length"):
            EnsembleSpec.from_dict(
                {
                    "base": BASE_2D,
                    "mode": "zip",
                    "sweeps": [
                        {"path": "source.f0", "values": [0.5, 0.8]},
                        {"path": "time.c_cfl", "values": [0.3]},
                    ],
                }
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown ensemble mode"):
            source_sweep(BASE_2D, [[1.0, 3.0]], mode="outer")

    def test_missing_section_named_in_error(self):
        base = {k: v for k, v in BASE_2D.items() if k != "source"}
        spec = EnsembleSpec.from_dict(
            {
                "base": base,
                "sweeps": [{"path": "source.position", "values": [[1, 3]]}],
            }
        )
        with pytest.raises(ConfigError, match="'source' section"):
            spec.expand()

    def test_invalid_member_names_sweep_values(self):
        spec = EnsembleSpec.from_dict(
            {
                "base": BASE_2D,
                "sweeps": [{"path": "source.f0", "values": [0.8, -1.0]}],
            }
        )
        with pytest.raises(ConfigError, match="member 1"):
            spec.expand()

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ConfigError, match="at least one sweep axis"):
            EnsembleSpec.from_dict({"base": BASE_2D, "sweeps": []})

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            SweepSpec(path="source.f0", values=())


class TestEngine:
    @pytest.mark.parametrize("tier", list(TIERS))
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_members_bitwise_equal_cold_solo_runs_2d(self, jobs, tier):
        base = {**BASE_2D, "backend": TIERS[tier]}
        spec = source_sweep(base, [[1.0, 3.0], [2.0, 3.0], [3.0, 3.0]])
        res = run_ensemble(spec, jobs=jobs)
        assert res.summary["jobs"] == jobs
        for cfg, member in zip(spec.expand(), res.members):
            solo = Simulation(cfg).run()
            assert np.array_equal(solo.u, member.u)
            assert np.array_equal(solo.traces, member.traces)

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_members_bitwise_equal_cold_solo_runs_3d(self, tier):
        base = {**BASE_3D, "backend": TIERS[tier]}
        spec = source_sweep(base, [[1.0, 2.0, 0.5], [2.0, 2.0, 0.5]])
        res = run_ensemble(spec, jobs=1)
        for cfg, member in zip(spec.expand(), res.members):
            solo = Simulation(cfg).run()
            assert np.array_equal(solo.u, member.u)
            assert np.array_equal(solo.traces, member.traces)

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_distributed_members_match_solo(self, tier):
        base = {
            **BASE_2D,
            "backend": TIERS[tier],
            "partition": {"n_ranks": 3},
        }
        spec = source_sweep(base, [[1.0, 3.0], [2.0, 3.0]])
        solos = [Simulation(cfg).run() for cfg in spec.expand()]
        for jobs in (1, 2):
            res = run_ensemble(spec, jobs=jobs)
            assert res.summary["stage_sharing"]["parts"] == {
                "distinct": 1, "members": 2,
            }
            for solo, member in zip(solos, res.members):
                assert member.parts is not None
                assert np.array_equal(solo.parts, member.parts)
                assert np.array_equal(solo.u, member.u)

    def test_each_distinct_stage_resolved_exactly_once(self):
        spec = source_sweep(
            BASE_2D, [[1.0, 3.0], [2.0, 3.0], [3.0, 3.0], [1.0, 2.0]]
        )
        res = run_ensemble(spec, jobs=2)
        r = res.summary["cache"]["resolutions"]
        assert r["mesh"] == 1
        assert r["assembler"] == 1
        assert r["levels"] == 1
        assert res.summary["stage_sharing"]["assembler"] == {
            "distinct": 1, "members": 4,
        }

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "thread"])
    def test_per_member_metadata_and_streaming(self, jobs, tmp_path):
        """One runner, one payload: members run one at a time or on
        overlapping threads report the same provenance and write the
        same ``.npz`` field set."""
        spec = source_sweep(BASE_2D, [[1.0, 3.0], [2.0, 3.0]])
        seen = []
        res = run_ensemble(
            spec, jobs=jobs, cache=StageCache(cache_dir=tmp_path),
            on_result=seen.append,
        )
        assert sorted(r.metadata["member"]["index"] for r in seen) == [0, 1]
        for i, member in enumerate(res.members):
            md = member.metadata["member"]
            assert set(md) == {
                "index", "name", "seconds", "cache_hits", "cache_misses",
            }
            assert md["index"] == i
            assert md["name"] == f"sweep[{i}]"
            # wall time of the whole member, not just its stepping
            assert md["seconds"] >= (
                member.metadata["build_seconds"] + member.metadata["run_seconds"]
            )
            assert md["cache_hits"] > 0
            assert set(member.to_payload()) == {
                "times", "u", "v", "traces", "receiver_dofs", "config_json",
                "kernel_tier", "dt", "level", "levels_dt", "levels_dt_min",
                "metadata_json",
            }
        assert res.summary["n_members"] == 2
        assert res.summary["throughput_members_per_second"] > 0

    def test_warm_disk_cache_replay_is_bitwise(self, tmp_path):
        spec = source_sweep(BASE_2D, [[1.0, 3.0], [2.0, 3.0]])
        cold = run_ensemble(spec, jobs=1, cache=StageCache(cache_dir=tmp_path))
        warm = run_ensemble(spec, jobs=1, cache=StageCache(cache_dir=tmp_path))
        assert warm.summary["cache"]["disk_hits"] >= 1  # levels
        assert "levels" not in warm.summary["cache"]["resolutions"]
        for a, b in zip(cold.members, warm.members):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.traces, b.traces)

    def test_plain_config_list_accepted(self):
        configs = [
            SimulationConfig.from_dict(BASE_2D),
            SimulationConfig.from_dict({**BASE_2D, "order": 4}),
        ]
        res = run_ensemble(configs, jobs=1)
        assert res.spec is None and len(res.members) == 2
        # different order -> nothing shared past the material stage
        assert res.summary["stage_sharing"]["assembler"]["distinct"] == 2

    def test_shared_cache_instance_reused(self):
        cache = StageCache()
        spec = source_sweep(BASE_2D, [[1.0, 3.0]])
        run_ensemble(spec, cache=cache)
        before = cache.stats.resolutions["assembler"]
        run_ensemble(spec, cache=cache)
        assert cache.stats.resolutions["assembler"] == before

    def test_bad_args_rejected(self):
        spec = source_sweep(BASE_2D, [[1.0, 3.0]])
        with pytest.raises(ConfigError, match="jobs"):
            run_ensemble(spec, jobs=0)
        with pytest.raises(ConfigError, match="at least one member"):
            run_ensemble([])

    def test_member_failure_propagates(self):
        # receivers off the mesh dimension fail at run time; the
        # ensemble surfaces the member's error instead of hanging.
        bad = {**BASE_2D, "receivers": {"positions": [[1.0, 2.0, 3.0]]}}
        spec = source_sweep(bad, [[1.0, 3.0], [2.0, 3.0]])
        with pytest.raises(ConfigError, match="coordinates"):
            run_ensemble(spec, jobs=2)


class TestEnsembleCLI:
    def test_cli_runs_sweep_and_writes_outputs(self, tmp_path, capsys):
        sweep = {
            "name": "cli-sweep",
            "base": BASE_2D,
            "mode": "zip",
            "sweeps": [
                {"path": "source.position", "values": [[1.0, 3.0], [2.0, 3.0]]}
            ],
        }
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(sweep))
        out_dir = tmp_path / "out"
        rc = cli_main(
            [
                "ensemble", str(sweep_file),
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(out_dir),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 members" in text and "cache:" in text
        assert (out_dir / "member_000.npz").exists()
        assert (out_dir / "member_001.npz").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_members"] == 2
        assert summary["cache_hits"] > 0
        member = np.load(out_dir / "member_000.npz")
        cfg = SimulationConfig.from_dict(
            json.loads(str(member["config_json"]))
        )
        solo = Simulation(cfg).run()
        assert np.array_equal(solo.u, member["u"])
        # same field set as `run --output` and service results
        assert str(member["kernel_tier"]) == solo.metadata["kernel_tier"]
        assert set(member.files) == set(solo.to_payload())

    def test_cli_rejects_bad_sweep(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": BASE_2D, "sweeps": []}))
        assert cli_main(["ensemble", str(bad)]) == 2
        assert "sweep axis" in capsys.readouterr().err
