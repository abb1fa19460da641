"""Command line of the benchmark.

``python3 benchmarks/e2e/run.py`` (or ``PYTHONPATH=src python -m
benchmarks.e2e``) followed by

* ``--workload W --seed S --seconds T --trace 0|1`` — one pass of one
  workload in this process: the end-to-end metrics (``--trace 0``) or
  the per-layer metrics with the tracing proxies in place (``--trace
  1``).  The last stdout line is the result object the driver reads.
* ``all --seed S [--seconds T] [--repeats R] [--quick] [--out F]`` —
  every workload, each pass alone in a fresh subprocess (never two at
  once): ``R`` untraced passes, then one traced; writes one result file.
* ``compare A.json B.json`` — two result files, metric by metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import env
from .metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS, emit
from .workloads import BY_NAME, WORKLOADS, generate


def _pass_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="length of the steady-state measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="fewest repeats that still emit every metric")
    return p


def sidecar_path(workload: str, trace: int) -> Path:
    return env.RESULTS / f"{workload}.trace{trace}.json"


def _print_table(values: dict, names) -> None:
    width = max(len(n) for n in names)
    for n in names:
        print(f"  {n:<{width}}  {values.get(n, 0.0):>14.6g} {UNITS[n]}")


def _print_cycle(label: str, s: dict) -> None:
    tail = (
        f", p{s['tail_quantile'] * 100:.1f} {s['tail']:.3f}" if "tail" in s else ""
    )
    corrected = (
        f" at reference speed; as measured: the same {s['gated_uncorrected']:.3f},"
        if "gated_uncorrected" in s else ";"
    )
    print(
        f"  {label}: {s['gated']:.3f} ms (median of block minima, blocks of "
        f"{s['block']}){corrected} best block mean {s['best_block_mean']:.3f}, "
        f"median {s['median']:.3f}{tail}, n={s['n']}"
    )


def single_pass(argv: list[str]) -> int:
    args = _pass_parser().parse_args(argv)
    if not (env.SRC / "repro").is_dir():
        print(f"error: {env.SRC}/repro not found: the benchmark measures the "
              f"repro package of its checkout", file=sys.stderr)
        return 2
    env.prepare()
    # Heavy imports only now: the thread pins must precede numpy.
    from . import provenance, service_bench, solver_bench
    from .checks import Checks
    from .tracing import Tracer

    w = BY_NAME[args.workload]
    if args.quick:
        w = w.quick()
    cfgs = generate(w, args.seed)
    with open(env.RESULTS / f"{w.name}.config.json", "w") as f:
        json.dump(cfgs, f, indent=1)
    prov = provenance.collect(args.seed)
    checks = Checks()
    # Scratch of this pass only, removed when it ends: a service data
    # dir left behind would be recovered by the next server started on
    # it and grow that server's start-up.
    workdir = env.WORK / f"{w.name}.trace{args.trace}.{os.getpid()}"
    workdir.mkdir(parents=True)
    t0 = perf_counter()
    try:
        if args.trace == 0:
            names = END_TO_END_NAMES
            if w.kind == "service":
                values, detail = service_bench.untraced(w, cfgs, args.seconds, checks, workdir)
            else:
                values, detail = solver_bench.untraced(w, cfgs, args.seconds, checks)
        else:
            names = PER_LAYER_NAMES
            tracers = {"solver": Tracer()}
            if w.kind == "service":
                values, detail = service_bench.traced(
                    w, cfgs, args.seconds, checks, workdir, tracers, args.quick)
            else:
                values, detail = solver_bench.traced(
                    w, cfgs, args.seconds, checks, tracers["solver"], args.quick)
            with open(env.RESULTS / f"{w.name}.spans.json", "w") as f:
                json.dump({k: t.export() for k, t in tracers.items()}, f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = perf_counter() - t0

    print(f"{w.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} wall={wall:.1f}s")
    _print_table(values, names)
    for label, key in (("LTS cycle", "lts_cycle"), ("Newmark cycle", "newmark_cycle"),
                       ("LTS cycle, unproxied", "plain_cycle")):
        if key in detail:
            _print_cycle(label, detail[key])
    if "lts_wall_speedup" in detail:
        print(f"  lts_wall_speedup {detail['lts_wall_speedup']:.3f}x of a "
              f"{detail['model_speedup']:.2f}x model = lts_wall_efficiency "
              f"{detail['lts_wall_efficiency']:.3f}  (printed, not gated)")
    if "probe" in detail:
        p = detail["probe"]
        print(f"  machine state: probe median {p['median_ms']:.2f} ms over "
              f"{p['samples']} readings = {p['slowdown_median']:.2f}x the "
              f"{p['reference_ms']} ms reference (timings above are corrected to it)")
    print(f"  failed_frac {checks.failed}/{checks.attempted}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")

    if args.trace == 0:
        dead = [n for n in names if not values.get(n, 0.0) > 0.0]
        checks.check("every end-to-end metric is positive", not dead, ", ".join(dead))
    correct = checks.failed == 0
    with open(sidecar_path(w.name, args.trace), "w") as f:
        json.dump(
            {
                "workload": w.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "quick": args.quick, "wall_s": wall,
                "correct": correct, "attempted": checks.attempted,
                "failed": checks.failed, "failures": checks.failures,
                "values": {n: float(values.get(n, 0.0)) for n in names},
                "detail": detail, "provenance": prov,
            },
            f, indent=1, default=float,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": emit(values, names),
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all: every workload, both passes, one result file
# ----------------------------------------------------------------------
def _all_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.e2e all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="steady-state window (default: BENCHMARK.json run_seconds)")
    p.add_argument("--repeats", type=int, default=1,
                   help="untraced passes per workload (their spread decides "
                        "'unresolved' in compare)")
    p.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                   help="only these workloads (repeatable)")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", type=Path, default=None,
                   help="result file (default results/latest.json)")
    return p


def _run_pass(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    path = sidecar_path(workload, trace)
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=env.ROOT)
    if not path.exists():
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}, no result")
    with open(path) as f:
        return json.load(f)


def run_all(argv: list[str]) -> int:
    args = _all_parser().parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(env.ROOT / "BENCHMARK.json") as f:
            seconds = float(json.load(f)["run_seconds"])
    if args.quick:
        seconds = min(seconds, 0.5)
    env.RESULTS.mkdir(parents=True, exist_ok=True)
    names = args.workload or [w.name for w in WORKLOADS]
    result = {"schema": 1, "seed": args.seed, "seconds": seconds,
              "quick": args.quick, "provenance": None, "workloads": {}}
    failed = 0
    for name in names:
        untraced = [_run_pass(name, args.seed, seconds, 0, args.quick)
                    for _ in range(args.repeats)]
        traced = _run_pass(name, args.seed, seconds, 1, args.quick)
        result["provenance"] = result["provenance"] or untraced[0]["provenance"]
        passes = untraced + [traced]
        failed += sum(p["failed"] for p in passes)
        result["workloads"][name] = {
            "end_to_end": {
                n: statistics.median(p["values"][n] for p in untraced)
                for n in END_TO_END_NAMES
            },
            "repeats": {n: [p["values"][n] for p in untraced] for n in END_TO_END_NAMES},
            "per_layer": traced["values"],
            "detail": {"untraced": untraced[-1]["detail"], "traced": traced["detail"]},
            "wall_s": {"untraced": [p["wall_s"] for p in untraced],
                       "traced": traced["wall_s"]},
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "failures": [x for p in passes for x in p["failures"]],
        }
    out = args.out or env.RESULTS / "latest.json"
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    attempted = sum(w["attempted"] for w in result["workloads"].values())
    print(f"wrote {out}: {len(names)} workload(s), failed_frac {failed}/{attempted}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "all":
        return run_all(argv[1:])
    return single_pass(argv)
