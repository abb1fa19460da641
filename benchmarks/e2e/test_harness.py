"""Checks on the benchmark harness itself.

Outside the tier-1 gate, like the rest of ``benchmarks/``: a bare
``pytest`` from the repo root would collect this file by its name, so it
skips unless asked for —

    REPRO_BENCH_E2E=1 PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

It runs every workload twice through ``all --quick`` (about a minute
each on two cores).
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_E2E") != "1",
    reason="benchmark harness test; set REPRO_BENCH_E2E=1 to run it",
)

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, env  # noqa: E402
from benchmarks.e2e.metrics import (  # noqa: E402
    END_TO_END,
    END_TO_END_NAMES,
    EXACT_COUNTS,
    PER_LAYER,
    PER_LAYER_NAMES,
)
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS, generate  # noqa: E402

RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def _quick(tmp_path: Path, tag: str) -> tuple[dict, float]:
    out = tmp_path / f"{tag}.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        RUN + ["all", "--quick", "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as f:
        return json.load(f), elapsed


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _quick(tmp, "a"), _quick(tmp, "b")


def test_manifest_matches_the_code():
    with open(ROOT / "BENCHMARK.json") as f:
        manifest = json.load(f)
    assert manifest["end_to_end"] == [m.declaration() for m in END_TO_END]
    assert manifest["per_layer"] == [m.declaration() for m in PER_LAYER]
    assert manifest["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert manifest["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in END_TO_END_NAMES
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


def test_quick_pass_is_fast_and_complete(quick_runs):
    (result, elapsed), _ = quick_runs
    assert elapsed < 60.0
    assert set(result["workloads"]) == set(BY_NAME)
    for name, w in result["workloads"].items():
        assert w["failed"] == 0, (name, w["failures"])
        assert tuple(w["end_to_end"]) == END_TO_END_NAMES
        assert tuple(w["per_layer"]) == PER_LAYER_NAMES
        assert all(v > 0 for v in w["end_to_end"].values()), name
    prov = result["provenance"]
    for key in ("seed", "cpu_model", "nproc", "usable_cores", "python", "numpy",
                "scipy", "compiler", "accepted_cflags", "openmp", "thread_pins",
                "allocator_pins", "fused_load_seconds", "git_commit"):
        assert key in prov


def test_contract_line_has_exactly_the_declared_names():
    proc = subprocess.run(
        RUN + ["--workload", "trench_fused", "--seed", "3", "--seconds", "0.3",
               "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert tuple(line["metrics"]) == PER_LAYER_NAMES
    units = {m.name: m.unit for m in PER_LAYER}
    assert all(v["unit"] == units[n] for n, v in line["metrics"].items())


def test_exact_counts_repeat(quick_runs):
    (a, _), (b, _) = quick_runs
    for name in BY_NAME:
        for metric in EXACT_COUNTS:
            assert (
                a["workloads"][name]["per_layer"][metric]
                == b["workloads"][name]["per_layer"][metric]
            ), (name, metric)


def test_same_seed_same_configs_other_seed_other_configs():
    for w in WORKLOADS:
        assert generate(w, 5) == generate(w, 5)
        assert generate(w, 5) != generate(w, 6)


@pytest.mark.parametrize("name", ["trench_fused", "trench_ranks4"])
def test_proxies_leave_results_bitwise_unchanged(name):
    env.prepare()
    from benchmarks.e2e import solver_bench
    from benchmarks.e2e.tracing import Tracer

    cfg = generate(BY_NAME[name].quick(), 3)["solver"]
    tracer = Tracer()
    plain = solver_bench.build_ready(cfg)
    traced = solver_bench.build_ready(cfg, tracer=tracer)
    for _ in range(3):
        plain.step()
        with tracer.span(solver_bench.LTS_CYCLE):
            traced.step()
    assert solver_bench.same_fields(plain, traced)
    u = plain.fields[0]  # one global vector, or one vector per rank
    assert max(np.abs(x).max() for x in (u if isinstance(u, list) else [u])) > 0
    assert len(tracer.rows) > 3


def test_compare_flags_a_synthetic_regression(quick_runs, tmp_path, capsys):
    (a, _), _ = quick_runs
    same = copy.deepcopy(a)
    rows, regressed = compare.compare(a, same)
    assert regressed == 0 and all(r[-1] == "ok" for r in rows)

    slow = copy.deepcopy(a)
    slow["workloads"]["trench_fused"]["end_to_end"]["lts_cycle_ms"] *= 1.20
    slow["workloads"]["trench_fused"]["repeats"]["lts_cycle_ms"] = [
        v * 1.20 for v in a["workloads"]["trench_fused"]["repeats"]["lts_cycle_ms"]
    ]
    rows, regressed = compare.compare(a, slow)
    assert regressed == 1
    assert [r[:2] for r in rows if r[-1] == "regressed"] == [("trench_fused", "lts_cycle_ms")]

    noisy = copy.deepcopy(slow)
    noisy["workloads"]["trench_fused"]["repeats"]["lts_cycle_ms"] = [10.0, 20.0, 30.0]
    rows, regressed = compare.compare(a, noisy)
    assert regressed == 0
    assert [r[:2] for r in rows if r[-1] == "unresolved"] == [("trench_fused", "lts_cycle_ms")]

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(slow))
    assert compare.main([str(pa), str(pb)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(pa), str(pa)]) == 0
