"""Smoke tests: the runnable examples must stay runnable.

Each example script asserts its own correctness claims internally (LTS
accuracy, distributed == serial, convergence order), so a clean exit is a
meaningful check, not just an import test.  Only the fast examples run
here; the scaling studies are exercised by the benchmarks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_quickstart_runs_and_reports_speedup():
    out = _run("quickstart.py")
    assert "speedup model" in out
    assert "wall-clock speedup" in out
    assert "LTS reproduces the Newmark baseline" in out


def test_distributed_wave_matches_serial():
    out = _run("distributed_wave.py")
    assert "reproduces the serial seismograms exactly" in out


def test_convergence_study_reaches_second_order():
    out = _run("convergence_study.py")
    assert "asymptotic order" in out
    assert "energy drift" in out


def test_elastic_basin_verifies():
    out = _run("elastic_basin.py")
    assert "elastic LTS run verified" in out


def test_hex_trench_3d_verifies_ranks_and_tiers():
    out = _run("hex_trench_3d.py")
    assert "3D hex LTS run verified" in out


def test_elastic_trench_3d_verifies_ranks_and_tiers():
    out = _run("elastic_trench_3d.py")
    assert "3D elastic LTS run verified" in out


def test_anisotropic_trench_3d_verifies_ranks_and_tiers():
    out = _run("anisotropic_trench_3d.py")
    assert "3D anisotropic LTS run verified" in out


def test_cluster_scaling_prints_both_tables():
    out = _run("cluster_scaling.py")
    assert "Trench CPU scaling" in out
    assert "Trench GPU scaling" in out
