"""Every metric the benchmark emits: name, unit, direction and (for the
end-to-end ones) the regression bound.  ``BENCHMARK.json`` repeats this
list for the driver; ``test_harness.py`` keeps the two equal.

Each workload emits *every* metric (the driver's contract).  A per-layer
metric whose layer a workload does not execute reads 0 there — a serial
workload has no mailbox, a solver workload no HTTP server.  README.md
says what each metric means on each workload and which end-to-end
metric it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

#: LTS levels that get their own per-layer rows (coarsest first).  The
#: deepest hierarchy among the workloads (trench) has four.
LEVELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: tolerated worsening, as a share

    def declaration(self) -> dict:
        d = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            d["bound"] = self.bound
        return d


# Bounds follow the quartile spread of ten seeds on the 2-core shared
# sandbox (README "Noise and bounds"): at least twice the widest spread
# seen for the cycle times and the RSS; the one-call timings spread
# 4-15 %, so they sit at the contract's ceiling of 25 %.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("lts_cycle_ms", "ms", "lower", 0.15),
    Metric("newmark_cycle_ms", "ms", "lower", 0.15),
    Metric("run_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("jobs_per_s", "1/s", "higher", 0.25),
    Metric("job_p50_ms", "ms", "lower", 0.25),
    Metric("job_cold_p50_ms", "ms", "lower", 0.25),
)


def _per_layer() -> tuple[Metric, ...]:
    m: list[Metric] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        m.append(Metric(name, unit, better))

    # Stage resolution: config dict -> ready to step.
    for name in (
        "api.config.parse_ms",
        "mesh.build_ms",
        "sem.assembler_build_ms",
        "core.levels.assign_ms",
        "sem.operator_build_ms",
        "api.simulation.source_receiver_ms",
        "core.lts.solver_build_ms",
        "core.lts.first_cycle_ms",
        "partition.partition_ms",
        "runtime.halo.layout_build_ms",
        "runtime.executor.solver_build_ms",
        "core.lts.onset_cycle_ms",
        "api.simulation.facade_overhead_ms",
    ):
        add(name, "ms")

    # Kernel, isolated full apply.
    add("sem.kernel.apply_full_ms", "ms")
    add("sem.kernel.mdof_per_s", "Mdof/s", "higher")
    add("sem.kernel.gflops_computed", "Gflop/s", "higher")
    add("sem.kernel.bytes_per_apply_computed", "MB")
    add("sem.kernel.flops_per_byte_computed", "flop/B", "higher")
    add("sem.kernel.workspace_mb", "MB")
    add("sem.kernel.apply_full_t2_ms", "ms")
    add("sem.kernel.threads2_speedup", "x", "higher")

    # LTS per level, from the traced operator proxy.
    for k in LEVELS:
        add(f"core.lts.level{k}.elements", "count")
        add(f"core.lts.level{k}.applies_per_cycle", "count")
        add(f"core.lts.level{k}.apply_us", "us")
        add(f"core.lts.level{k}.busy_ms_per_cycle", "ms")
        add(f"core.lts.level{k}.overhead_x", "x")

    # LTS recursion and the Newmark baseline.
    add("core.lts.apply_ms_per_cycle", "ms")
    add("core.lts.recursion_self_ms_per_cycle", "ms")
    add("core.lts.recursion_self_frac", "frac")
    add("core.lts.model_speedup", "x", "higher")
    add("core.lts.op_speedup", "x", "higher")
    add("core.lts.op_efficiency", "frac", "higher")
    add("core.lts.wall_speedup", "x", "higher")
    add("core.lts.wall_efficiency", "frac", "higher")
    add("core.lts.workspace_mb", "MB")
    add("core.lts.allocs_per_cycle", "count")
    add("core.newmark.apply_frac", "frac", "higher")
    add("core.newmark.vector_ms_per_step", "ms")
    add("trace.overhead_frac", "frac")

    # Partition and distributed runtime (trench_ranks4).
    add("partition.level_imbalance_max", "frac")
    add("partition.mpi_volume", "count")
    add("runtime.comm.messages_per_cycle", "count")
    add("runtime.comm.doubles_per_cycle", "count")
    add("runtime.executor.compute_ms_per_cycle", "ms")
    add("runtime.executor.rank_imbalance", "x")
    for k in LEVELS:
        add(f"runtime.executor.level{k}.rank_imbalance", "x")
    add("runtime.comm.mailbox_ms_per_cycle", "ms")
    add("runtime.executor.self_ms_per_cycle", "ms")
    add("runtime.executor.self_frac", "frac")
    add("runtime.executor.vs_serial_x", "x")
    add("runtime.executor.workspace_mb", "MB")

    # Stage cache and the HTTP service (service_sweep).
    add("api.cache.cold_resolve_ms", "ms")
    add("api.cache.warm_resolve_ms", "ms")
    add("api.cache.hit_ratio", "frac", "higher")
    add("api.cache.resolutions_total", "count")
    add("service.startup_ms", "ms")
    add("service.http.submit_ms", "ms")
    add("service.http.status_ms", "ms")
    add("service.http.fetch_ms", "ms")
    add("service.http.result_kb", "kB")
    add("service.client.polls_per_job", "count")
    add("service.client.job_p95_ms", "ms")
    add("service.queue.wait_ms", "ms")
    add("service.workers.run_ms", "ms")
    add("service.workers.sim_ms", "ms")
    add("service.workers.package_ms", "ms")
    add("service.workers.busy_frac", "frac", "higher")
    return tuple(m)


PER_LAYER = _per_layer()

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}

#: Per-layer metrics that are exact counts for a given seed: two runs of
#: one commit must agree on them to the last digit.
EXACT_COUNTS = (
    tuple(f"core.lts.level{k}.elements" for k in LEVELS)
    + tuple(f"core.lts.level{k}.applies_per_cycle" for k in LEVELS)
    + (
        "core.lts.model_speedup",
        "core.lts.op_speedup",
        "core.lts.op_efficiency",
        "partition.level_imbalance_max",
        "partition.mpi_volume",
        "runtime.comm.messages_per_cycle",
        "runtime.comm.doubles_per_cycle",
    )
)


def emit(values: dict[str, float], names: tuple[str, ...]) -> dict:
    """The contract's ``metrics`` object: every declared name, in
    declaration order, as ``{"value": v, "unit": u}``.  A name the
    workload did not measure reads 0 (see module docstring); a name
    that is not declared is a bug and raises."""
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"undeclared metric(s) {sorted(unknown)}")
    return {
        n: {"value": float(values.get(n, 0.0)), "unit": UNITS[n]} for n in names
    }
