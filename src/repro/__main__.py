"""Command line for the declarative façade: ``python -m repro``.

Subcommands
-----------
``run <config.json|toml>``
    Resolve and execute a :class:`repro.api.SimulationConfig`, print a
    run summary, and optionally save traces/fields to an ``.npz``
    (written atomically — a killed run leaves either the complete file
    or nothing).  ``--ranks/--scheme/--threads`` override the
    corresponding spec fields without editing the file;
    ``--checkpoint-dir/--checkpoint-every`` enable periodic
    checkpointing and ``--resume <ckpt.npz>`` restarts from a saved
    checkpoint (the resumed run matches the uninterrupted one).
``validate <config.json|toml>``
    Parse and validate a config (including mesh/material resolution),
    print the normalized JSON form, and exit — a pre-flight check for
    checked-in configs.
``ensemble <sweep.json|toml>``
    Expand an :class:`repro.api.EnsembleSpec` (base config + sweep
    axes) and run every member through a shared content-addressed
    :class:`repro.api.StageCache` on ``--jobs`` worker threads.
    ``--cache-dir`` persists the expensive artifacts
    (LTS levels, partitions) across invocations;
    ``--output-dir`` writes one ``member_<i>.npz`` per member plus a
    ``summary.json`` with per-member timings and cache-hit provenance
    (the directory is created — and proven writable — up front).
``info``
    Print the runtime report: package/python versions, kernel-tier
    availability (fused C kernels? OpenMP?), usable cores vs machine
    cores, and any ``REPRO_*`` env overrides — the fleet-debugging
    one-liner the service's ``/healthz`` also returns.
``serve``
    Run the simulation service (:mod:`repro.service`): a job queue +
    worker pool + HTTP JSON API over ``--data-dir`` (durable job
    records; a restarted server recovers its backlog), with one shared
    stage cache (``--cache-dir`` extends it to disk).  Drains
    gracefully on SIGTERM/SIGINT: running jobs finish, queued jobs
    stay queued on disk.
``submit | status | fetch | cancel``
    The client quartet against a running server (``--url``): submit a
    config or ensemble file, inspect/poll job state (``status --wait``
    blocks until terminal), download the result ``.npz``, cancel a
    queued job.

Exit codes: 0 on success, 2 on a configuration/library error (the
message, not a traceback, goes to stderr); ``status --wait`` and
``fetch`` exit 3 when the awaited job finished ``failed``/``cancelled``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from repro.api import Simulation, SimulationConfig
from repro.util.errors import ReproError
from repro.util.io import atomic_savez


def _apply_overrides(cfg: SimulationConfig, args) -> SimulationConfig:
    if getattr(args, "threads", None) is not None:
        cfg = replace(cfg, backend=replace(cfg.backend, threads=args.threads))
    if args.ranks is not None:
        cfg = replace(cfg, partition=replace(cfg.partition, n_ranks=args.ranks))
    if args.scheme is not None:
        cfg = replace(cfg, time=replace(cfg.time, scheme=args.scheme))
    if args.checkpoint_dir is not None or args.checkpoint_every is not None:
        res = replace(
            cfg.resilience,
            checkpoint_dir=args.checkpoint_dir or cfg.resilience.checkpoint_dir,
            checkpoint_every=(
                args.checkpoint_every
                if args.checkpoint_every is not None
                else cfg.resilience.checkpoint_every
            ),
        )
        cfg = replace(cfg, resilience=res)
    return cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(SimulationConfig.from_file(args.config), args)
    sim = Simulation(cfg)
    name = cfg.name or cfg.mesh.family
    mesh, levels = sim.mesh, sim.levels
    print(
        f"{name}: {cfg.mesh.family} mesh ({mesh.dim}D), "
        f"{mesh.n_elements} elements, {sim.assembler.n_dof} DOFs, "
        f"material={cfg.material.model}, order={cfg.order}"
    )
    print(
        f"scheme={cfg.time.scheme}: {levels.n_levels} LTS levels "
        f"{levels.counts().tolist()}, dt={sim.dt:.6g}, "
        f"{sim.n_cycles} cycles "
        f"(ranks={cfg.partition.n_ranks})"
    )
    result = sim.run(resume=args.resume, perf=args.perf)
    md = result.metadata
    line = (
        f"run: kernel={md['kernel_tier']}, {md['build_seconds']:.2f}s build, "
        f"{md['run_seconds']:.2f}s stepping"
    )
    if "messages" in md:
        line += f", {md['messages']} messages / {md['comm_volume']} values exchanged"
    print(line)
    if "perf" in md:
        p = md["perf"]
        print(
            f"perf: {p['steps_per_second']:.1f} steps/s, "
            f"{p['allocs_per_step']:.1f} net allocs/step over "
            f"{p['steps_traced']} traced steps, "
            f"peak {p['alloc_peak_bytes_per_step']} transient bytes/step, "
            f"{p['workspace_bytes']} workspace bytes"
        )
    if "resilience" in md:
        rmd = md["resilience"]
        line = (
            f"resilience: {rmd['checkpoints_written']} checkpoint(s) written, "
            f"{rmd['attempts']} attempt(s)"
        )
        if rmd["resumed_from_cycle"] is not None:
            line += f", resumed from cycle {rmd['resumed_from_cycle']}"
        print(line)
        for incident in rmd["recovery"]:
            print(
                f"  recovered: attempt {incident['attempt']} failed with "
                f"{incident['error']}: {incident['message']}"
            )
    if result.traces is not None:
        print(
            f"receivers: {result.traces.shape[1]} traces x "
            f"{result.traces.shape[0]} samples, peak |u| = "
            f"{np.abs(result.traces).max():.6e}"
        )
    print(f"final field: max |u| = {np.abs(result.u).max():.6e}")
    if args.output is not None:
        written = atomic_savez(args.output, **result.to_payload())
        print(f"wrote {written}")
    return 0


def _cmd_validate(args) -> int:
    cfg = SimulationConfig.from_file(args.config)
    # Resolving mesh + material + source/receiver placement catches the
    # errors a parse alone cannot (bad region boxes, positions off the
    # mesh dimension, elastic material on a 1D mesh ...).
    sim = Simulation(cfg)
    sim.force
    sim.receiver_dofs
    print(f"{args.config}: OK ({sim.mesh.n_elements} elements, "
          f"{sim.assembler.n_dof} DOFs, {sim.levels.n_levels} LTS levels)")
    if args.print:
        print(json.dumps(cfg.to_dict(), indent=2))
    return 0


def _cmd_ensemble(args) -> int:
    from repro.api import EnsembleSpec, StageCache, run_ensemble
    from repro.util.io import atomic_write_text, ensure_writable_dir

    spec = EnsembleSpec.from_file(args.sweep)

    # Fail on an unwritable output directory *now*, not after the first
    # member has already burned minutes of stepping.
    out_dir = (
        None
        if args.output_dir is None
        else ensure_writable_dir(args.output_dir, "--output-dir")
    )

    name = spec.name or spec.base.name or spec.base.mesh.family
    axes = ", ".join(f"{s.path}({len(s.values)})" for s in spec.sweeps)
    print(
        f"{name}: {spec.n_members} members "
        f"({spec.mode} of {axes}), jobs={args.jobs}"
    )

    def save_member(result) -> None:
        md = result.metadata["member"]
        print(
            f"  [{md['index']}] {md['name']}: {md['seconds']:.2f}s, "
            f"{md['cache_hits']} cache hits / {md['cache_misses']} misses, "
            f"max |u| = {np.abs(result.u).max():.6e}"
        )
        if out_dir is not None:
            atomic_savez(
                out_dir / f"member_{md['index']:03d}.npz", **result.to_payload()
            )

    res = run_ensemble(
        spec,
        jobs=args.jobs,
        cache=StageCache(cache_dir=args.cache_dir),
        on_result=save_member,
    )
    s = res.summary
    sharing = ", ".join(
        f"{stage} {info['distinct']}/{info['members']}"
        for stage, info in s["stage_sharing"].items()
        if info["members"]
    )
    print(f"stage sharing (distinct/members): {sharing}")
    print(
        f"cache: {s['cache_hits']} hits / {s['cache_misses']} misses "
        f"({res.cache.describe()})"
    )
    print(
        f"done: {s['total_seconds']:.2f}s total "
        f"({s['warm_seconds']:.2f}s warm + {s['run_seconds']:.2f}s members), "
        f"{s['throughput_members_per_second']:.2f} members/s"
    )
    if out_dir is not None:
        written = atomic_write_text(
            out_dir / "summary.json", json.dumps(s, indent=2) + "\n"
        )
        print(f"wrote {written}")
    return 0


def _cmd_info(args) -> int:
    from repro.util.sysinfo import runtime_info

    info = runtime_info()
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"repro {info['version']} (python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']})")
    fused = "yes" if info["fused_available"] else f"no ({info['fused_failure']})"
    omp = "yes" if info["fused_omp"] else "no"
    print(f"kernel tiers: numpy yes, fused C {fused}, openmp {omp}")
    print(f"cores: {info['usable_cores']} usable / {info['cpu_count']} machine")
    env = info["env"]
    print(
        "env overrides: "
        + (", ".join(f"{k}={v}" for k, v in env.items()) if env else "none")
    )
    return 0


def _load_job_file(path: str) -> tuple[str, dict]:
    """Parse a submission file and classify it: an EnsembleSpec (has
    ``base`` + ``sweeps``) or a plain SimulationConfig."""
    from repro.api.config import _read_spec_file

    data = _read_spec_file(path, "job")
    kind = "ensemble" if "base" in data and "sweeps" in data else "simulation"
    return kind, data


def _job_line(job: dict) -> str:
    line = f"job {job['id']}: {job['state']} ({job['kind']}"
    if job.get("name"):
        line += f" {job['name']!r}"
    if job.get("priority"):
        line += f", priority {job['priority']}"
    line += ")"
    member = job.get("metadata", {}).get("member")
    if member and member.get("seconds") is not None:
        line += (
            f" — {member['seconds']:.2f}s, {member.get('cache_hits', 0)} "
            f"cache hits / {member.get('cache_misses', 0)} misses"
        )
    if job.get("error"):
        line += f" — {job['error']}"
    return line


def _terminal_exit(job: dict) -> int:
    """0 for done, 3 for failed/cancelled (scripts can branch)."""
    return 0 if job["state"] == "done" else 3


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import ReproService

    service = ReproService(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
    )
    recovered = service.queue.counts()["queued"]
    if recovered:
        print(f"recovered {recovered} queued job(s) from {args.data_dir}",
              flush=True)
    cache = "memory-only" if args.cache_dir is None else f"disk at {args.cache_dir}"
    stop = threading.Event()

    def request_drain(signum, frame):
        print(f"received {signal.Signals(signum).name}; draining "
              f"(running jobs finish, backlog stays queued) ...", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, request_drain)
    signal.signal(signal.SIGINT, request_drain)
    service.start()
    print(
        f"listening on {service.url} ({args.workers} workers, "
        f"stage cache {cache}, data dir {args.data_dir})",
        flush=True,
    )
    stop.wait()
    service.drain()
    counts = service.queue.counts()
    print(
        f"drained: {counts['done']} done, {counts['failed']} failed, "
        f"{counts['cancelled']} cancelled, {counts['queued']} left queued",
        flush=True,
    )
    return 0


def _client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _cmd_submit(args) -> int:
    kind, spec = _load_job_file(args.config)
    client = _client(args)
    job = client.submit(
        config=spec if kind == "simulation" else None,
        ensemble=spec if kind == "ensemble" else None,
        priority=args.priority,
        name=args.name or "",
    )
    print(f"submitted job {job['id']}")
    print(_job_line(job))
    print(f"poll with: python -m repro status {job['id']} --url {args.url}")
    return 0


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job is None:
        jobs = client.jobs(state=args.state)
        if args.json:
            print(json.dumps(jobs, indent=2))
            return 0
        if not jobs:
            print("no jobs")
            return 0
        for job in jobs:
            print(_job_line(job))
        return 0
    if args.wait:
        job = client.wait(args.job, timeout=args.timeout)
    else:
        job = client.job(args.job)
    if args.json:
        print(json.dumps(job, indent=2))
    else:
        print(_job_line(job))
    return _terminal_exit(job) if args.wait else 0


def _cmd_fetch(args) -> int:
    client = _client(args)
    if args.wait:
        job = client.wait(args.job, timeout=args.timeout)
        if job["state"] != "done":
            print(_job_line(job), file=sys.stderr)
            return 3
    path = client.fetch(args.job, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_cancel(args) -> int:
    job = _client(args).cancel(args.job)
    print(_job_line(job))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative LTS-Newmark simulations (repro.api).",
    )
    from repro.util.sysinfo import package_version

    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation config end-to-end")
    p_run.add_argument("config", help="path to a .json or .toml SimulationConfig")
    p_run.add_argument(
        "--ranks", type=int, default=None,
        help="override the rank count (1 = serial)",
    )
    p_run.add_argument(
        "--scheme", choices=("lts", "newmark"), default=None,
        help="override the stepping scheme",
    )
    p_run.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="override BackendSpec.threads, the fused tier's OpenMP thread "
             "count (0 = auto-detect)",
    )
    p_run.add_argument(
        "--output", default=None, metavar="OUT.npz",
        help="save times/traces/fields (and the resolved config) to an .npz "
             "(written atomically)",
    )
    p_run.add_argument(
        "--perf", action="store_true",
        help="trace a few steady-state cycles (tracemalloc) and print "
             "steps/sec, allocations per step, and workspace bytes",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="CKPT.npz",
        help="resume from a checkpoint written by an earlier run of the "
             "same config",
    )
    p_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write periodic checkpoints into DIR (overrides the config's "
             "resilience.checkpoint_dir)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N LTS cycles (needs a checkpoint dir)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse + resolve a config, then exit")
    p_val.add_argument("config", help="path to a .json or .toml SimulationConfig")
    p_val.add_argument(
        "--print", action="store_true",
        help="also print the normalized JSON form",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_ens = sub.add_parser(
        "ensemble",
        help="run a declarative sweep through the shared stage cache",
    )
    p_ens.add_argument("sweep", help="path to a .json or .toml EnsembleSpec")
    p_ens.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="worker-thread count (default 1 = members one at a time)",
    )
    p_ens.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist expensive stage artifacts (CSR, levels, partitions) "
             "as .npz files in DIR, shared across invocations",
    )
    p_ens.add_argument(
        "--output-dir", default=None, metavar="DIR",
        help="write member_<i>.npz per member plus summary.json into DIR",
    )
    p_ens.set_defaults(func=_cmd_ensemble)

    p_info = sub.add_parser(
        "info", help="print the runtime/kernel-tier report for this box"
    )
    p_info.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_info.set_defaults(func=_cmd_info)

    p_serve = sub.add_parser(
        "serve", help="run the simulation service (job queue + HTTP API)"
    )
    p_serve.add_argument(
        "--data-dir", default="repro-service", metavar="DIR",
        help="durable state root: job records + results (a restarted "
             "server recovers its queue from here; default: ./repro-service)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks a free port, printed "
             "in the 'listening on' line)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="K",
        help="worker-pool width: concurrent jobs (default 2)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared on-disk stage-cache layer: expensive artifacts "
             "persist across server restarts",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    p_serve.set_defaults(func=_cmd_serve)

    url_help = "service base URL (default http://127.0.0.1:8642)"
    default_url = "http://127.0.0.1:8642"

    p_sub = sub.add_parser(
        "submit", help="submit a config or ensemble file to a running server"
    )
    p_sub.add_argument(
        "config",
        help="path to a .json/.toml SimulationConfig — or EnsembleSpec "
             "(detected by its base + sweeps keys)",
    )
    p_sub.add_argument("--url", default=default_url, help=url_help)
    p_sub.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first (default 0; FIFO within a priority)",
    )
    p_sub.add_argument("--name", default=None, help="override the job name")
    p_sub.set_defaults(func=_cmd_submit)

    p_stat = sub.add_parser(
        "status", help="show one job (or list all jobs) on a running server"
    )
    p_stat.add_argument(
        "job", nargs="?", default=None, help="job id (omit to list all jobs)"
    )
    p_stat.add_argument("--url", default=default_url, help=url_help)
    p_stat.add_argument(
        "--state", default=None,
        help="when listing: only jobs in this state",
    )
    p_stat.add_argument(
        "--wait", action="store_true",
        help="poll until the job is terminal (exit 0 done / 3 otherwise)",
    )
    p_stat.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="--wait deadline in seconds (default 600)",
    )
    p_stat.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_stat.set_defaults(func=_cmd_status)

    p_fetch = sub.add_parser(
        "fetch", help="download a done job's result .npz"
    )
    p_fetch.add_argument("job", help="job id")
    p_fetch.add_argument("--url", default=default_url, help=url_help)
    p_fetch.add_argument(
        "--output", required=True, metavar="OUT.npz",
        help="where to write the result (written atomically)",
    )
    p_fetch.add_argument(
        "--wait", action="store_true",
        help="poll until the job is terminal before fetching",
    )
    p_fetch.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="--wait deadline in seconds (default 600)",
    )
    p_fetch.set_defaults(func=_cmd_fetch)

    p_cancel = sub.add_parser("cancel", help="cancel a queued job")
    p_cancel.add_argument("job", help="job id")
    p_cancel.add_argument("--url", default=default_url, help=url_help)
    p_cancel.set_defaults(func=_cmd_cancel)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — not an error.
        # Point stdout at devnull so interpreter shutdown doesn't raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
