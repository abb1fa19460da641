"""CLI tests: ``python -m repro run`` must reproduce the façade (and
therefore ``examples/quickstart.py``) receiver traces bit for bit, and
fail cleanly on bad configs."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import PartitionSpec, SimulationConfig, SimulationResult, run

REPO = Path(__file__).resolve().parents[2]
QUICKSTART = REPO / "examples" / "configs" / "quickstart.json"
HEX_TRENCH = REPO / "examples" / "configs" / "hex_trench_3d.json"


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


@pytest.fixture(scope="module")
def quickstart_reference():
    """The façade's own quickstart traces (what examples/quickstart.py
    records), serial and on two ranks."""
    cfg = SimulationConfig.from_file(QUICKSTART)
    return cfg, {1: run(cfg), 2: run(replace(cfg, partition=PartitionSpec(n_ranks=2)))}


class TestRunParity:
    @pytest.mark.parametrize("ranks", [1, 2])
    def test_cli_reproduces_quickstart_traces(self, tmp_path, ranks, quickstart_reference):
        ref = quickstart_reference[1][ranks]
        out = tmp_path / "quickstart.npz"
        proc = _repro("run", str(QUICKSTART), "--ranks", str(ranks), "--output", str(out))
        assert "LTS levels" in proc.stdout
        data = np.load(out)
        assert np.abs(ref.traces).max() > 0
        assert np.array_equal(data["traces"], ref.traces)
        assert np.array_equal(data["times"], ref.times)
        assert np.array_equal(data["receiver_dofs"], ref.receiver_dofs)

    def test_saved_config_round_trips(self, tmp_path, quickstart_reference):
        cfg, refs = quickstart_reference
        ref = refs[1]
        out = tmp_path / "out.npz"
        _repro("run", str(QUICKSTART), "--output", str(out))
        stored = json.loads(str(np.load(out)["config_json"]))
        assert SimulationConfig.from_dict(stored) == cfg
        # ... and the whole file reads back as the result it came from
        back = SimulationResult.from_payload(np.load(out))
        assert back.config == cfg and back.n_cycles == ref.n_cycles
        assert back.dt == ref.dt and back.levels.dt_min == ref.levels.dt_min
        assert np.array_equal(back.levels.level, ref.levels.level)
        assert back.metadata["kernel_tier"] == str(np.load(out)["kernel_tier"])

    def test_override_flags(self, tmp_path):
        out = tmp_path / "o.npz"
        proc = _repro("run", str(QUICKSTART), "--scheme", "newmark", "--ranks", "2",
                      "--output", str(out))
        assert "scheme=newmark" in proc.stdout
        assert "ranks=2" in proc.stdout


class TestValidateAndErrors:
    def test_validate_ok(self):
        proc = _repro("validate", str(QUICKSTART), "--print")
        assert "OK" in proc.stdout
        assert json.loads(proc.stdout.split("\n", 1)[1])["name"] == "quickstart"

    def test_validate_hex_trench_config(self):
        proc = _repro("validate", str(HEX_TRENCH))
        assert "OK" in proc.stdout

    def test_unknown_key_fails_with_actionable_message(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mesg": {"family": "trench"},
                                   "time": {"n_cycles": 1}}))
        proc = _repro("run", str(bad), check=False)
        assert proc.returncode == 2
        assert "unknown key 'mesg'" in proc.stderr
        assert "did you mean 'mesh'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_validate_refuses_non_finite_position(self, tmp_path):
        cfg = json.loads(QUICKSTART.read_text())
        cfg["source"]["position"] = [float("nan")]
        bad = tmp_path / "nan_source.json"
        bad.write_text(json.dumps(cfg))  # NaN is written as a bare literal
        proc = _repro("validate", str(bad), check=False)
        assert proc.returncode == 2
        assert "SourceSpec.position must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_fails_cleanly(self, tmp_path):
        proc = _repro("run", str(tmp_path / "nope.json"), check=False)
        assert proc.returncode == 2
        assert "not found" in proc.stderr


class TestEnsembleOutputDir:
    """``ensemble --output-dir`` must create missing directories and
    reject unwritable ones up front with a clean exit 2."""

    def _tiny_ensemble(self, tmp_path) -> Path:
        spec = {
            "name": "cli-ens",
            "mode": "zip",
            "base": {
                "mesh": {"family": "uniform_grid", "params": {"shape": [5, 5]}},
                "time": {"n_cycles": 2},
                "source": {"position": [1.0, 2.0], "f0": 0.8},
                "receivers": {"positions": [[3.0, 2.0]]},
                "backend": {"stiffness": "matfree"},
            },
            "sweeps": [
                {"path": "source.position",
                 "values": [[1.0, 2.0], [2.0, 2.0]]}
            ],
        }
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(spec))
        return path

    def test_missing_output_dir_is_created(self, tmp_path):
        spec = self._tiny_ensemble(tmp_path)
        out_dir = tmp_path / "deep" / "ly" / "nested"
        _repro("ensemble", str(spec), "--output-dir", str(out_dir))
        members = sorted(p.name for p in out_dir.glob("member_*.npz"))
        assert len(members) == 2

    def test_unwritable_output_dir_exits_2_before_running(self, tmp_path):
        spec = self._tiny_ensemble(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        proc = _repro(
            "ensemble", str(spec),
            "--output-dir", str(blocker / "sub"),
            check=False,
        )
        assert proc.returncode == 2
        assert "--output-dir" in proc.stderr
        assert "not writable" in proc.stderr
        assert proc.stdout == ""  # rejected before any member ran
