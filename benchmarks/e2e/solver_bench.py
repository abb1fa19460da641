"""Solver-side measurements, shared by all five workloads.

Everything here times calls into public functions of ``repro``:
``SimulationConfig.from_dict``, the ``Simulation`` stage properties,
``Simulation.operator()``, ``op.apply(u, out=)``, ``LTSNewmarkSolver``,
``build_rank_layout``, ``DistributedLTSSolver``, ``repro.api.run`` and
``StageCache``.  ``untraced`` produces the end-to-end metrics,
``traced`` the per-layer ones (with the proxies of :mod:`.tracing`).
"""

from __future__ import annotations

import copy
import resource
import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

import repro.api
from repro.api import Simulation, SimulationConfig, StageCache, relative_deviation
from repro.core.lts_newmark import LTSNewmarkSolver, OperationCounter
from repro.core.speedup import theoretical_speedup
from repro.core.workspace import measure_hot_path
from repro.partition.metrics import mpi_volume, per_level_imbalance
from repro.runtime.comm import MailboxWorld
from repro.runtime.executor import DistributedLTSSolver
from repro.runtime.halo import build_rank_layout

from . import stats
from .calibration import REFERENCE_MS, Probe
from .checks import Checks
from .metrics import LEVELS
from .tracing import (
    MAILBOX_RECV,
    MAILBOX_SEND,
    TimingWorld,
    TracedOperator,
    TracedStiffness,
    Tracer,
    level_span,
    rank_level_span,
)
from .workloads import Workload

MB = 1024.0 * 1024.0
LTS_CYCLE = "core.lts.cycle"
NEWMARK_CYCLE = "core.newmark.cycle"


# ----------------------------------------------------------------------
# Config dict -> ready to step
# ----------------------------------------------------------------------
@dataclass
class Ready:
    """A solver built from a config, with the state it steps."""

    sim: Simulation
    solver: object
    step: Callable[[], None]
    fields: tuple  # (u, v) global vectors, or per-rank lists
    world: MailboxWorld | None = None


class StageClock:
    """Times the public call that resolves each stage, in ms by metric
    name — or, given no dict, just makes the call."""

    def __init__(self, ms: dict | None = None):
        self.ms = ms

    def __call__(self, key: str, build):
        if self.ms is None:
            return build()
        t0 = perf_counter()
        out = build()
        self.ms[key] = (perf_counter() - t0) * 1e3
        return out


def make_solver(sim: Simulation, timed: StageClock = StageClock(),
                tracer: Tracer | None = None) -> Ready:
    """Operator (or rank layout) and solver for ``sim``, on zero fields.

    Serial and distributed configs alike; ``sim`` may be the LTS config
    or its ``scheme="newmark"`` variant (one level at the finest step).
    With ``tracer`` the solver is handed the timing proxies.
    """
    cfg = sim.config
    n_dof = int(sim.assembler.n_dof)
    n_ranks = cfg.partition.n_ranks
    if n_ranks == 1:
        op = timed("sem.operator_build_ms", sim.operator)
        if tracer is not None:
            op = TracedOperator(op, tracer, sim.dof_level)
        solver = timed(
            "core.lts.solver_build_ms",
            lambda: LTSNewmarkSolver(op, sim.dof_level, sim.dt, force=sim.force),
        )
        u, v = np.zeros(n_dof), np.zeros(n_dof)
        return Ready(sim, solver, lambda: solver.step(u, v), (u, v))

    b = cfg.backend
    layout = timed(
        "runtime.halo.layout_build_ms",
        lambda: build_rank_layout(
            sim.assembler, sim.parts, n_ranks, dof_level=sim.dof_level,
            backend=b.stiffness, use_fused=b.fused, threads=b.threads,
        ),
    )
    world = MailboxWorld(n_ranks)
    if tracer is not None:
        active = tuple(int(k) for k in np.unique(sim.dof_level))
        layout = replace(
            layout,
            K_local=[
                TracedStiffness(K, tracer, r, 0, active, layout.dof_level_local[r])
                for r, K in enumerate(layout.K_local)
            ],
        )
        world = TimingWorld(n_ranks, tracer)
    solver = timed(
        "runtime.executor.solver_build_ms",
        lambda: DistributedLTSSolver(layout, sim.dt, world=world, force=sim.force),
    )
    u_l = layout.scatter(np.zeros(n_dof))
    v_l = layout.scatter(np.zeros(n_dof))
    return Ready(sim, solver, lambda: solver.step(u_l, v_l), (u_l, v_l), world)


def build_ready(cfg: dict, stage_ms: dict | None = None,
                tracer: Tracer | None = None) -> Ready:
    """``setup_s``'s unit of work: config dict -> every stage -> operator
    -> solver -> first cycle, with no stage cache."""
    timed = StageClock(stage_ms)
    sim = Simulation(timed("api.config.parse_ms", lambda: SimulationConfig.from_dict(cfg)))
    timed("mesh.build_ms", lambda: (sim.mesh, sim.material))
    timed("sem.assembler_build_ms", lambda: sim.assembler)
    timed("core.levels.assign_ms", lambda: (sim.levels, sim.dof_level, sim.dt))
    timed("api.simulation.source_receiver_ms", lambda: (sim.force, sim.receiver_dofs))
    timed("partition.partition_ms", lambda: sim.parts)
    ready = make_solver(sim, timed, tracer)
    timed("core.lts.first_cycle_ms", ready.step)
    return ready


def newmark_variant(sim: Simulation) -> Simulation:
    """The non-LTS baseline of ``sim``: every DOF on one level at the
    finest step, sharing mesh, assembler, levels, force and partition."""
    return sim.variant(time=replace(sim.config.time, scheme="newmark"))


def with_cycles(cfg: dict, n_cycles: int, **time_swaps) -> dict:
    out = copy.deepcopy(cfg)
    out["time"] = {**out["time"], "n_cycles": n_cycles, **time_swaps}
    return out


# ----------------------------------------------------------------------
# Untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
def check_tier(checks: Checks, result, tier: str) -> None:
    """A silent fall to another kernel tier must fail the pass, not
    flatter (or slander) its timings."""
    ran = result.metadata["kernel_tier"]
    checks.check("kernel tier is the requested one", ran == tier,
                 f"requested {tier!r}, ran {ran!r}")


class OneShots:
    """The timings that are one call each — fresh builds (``setup_s``),
    cold ``repro.api.run`` calls (``run_s``) and jobs (``job_*``).

    The sandbox changes speed state every few seconds, so repeats taken
    back to back all see one state.  Each kind is therefore taken in two
    rounds, one before and one after the steady-state window (ten
    seconds or more apart), and reduced by the median over both.  Within
    a round the probe is read before the first call and after every
    call; the round's timings are put at reference speed by the median
    of those readings (one reading is too noisy to correct one call).
    """

    KINDS = ("setup_s", "run_s", "job_cold_s", "job_warm_s")

    def __init__(self, w: Workload, cfgs: dict, checks: Checks, probe: Probe):
        self.w, self.checks, self.probe = w, checks, probe
        self.cfg = cfgs["solver"]
        self.jobs = list(cfgs.get("jobs", ()))
        self.seconds: dict[str, list[float]] = {k: [] for k in self.KINDS}
        self.uncorrected: dict[str, list[float]] = {k: [] for k in self.KINDS}
        self.first_result = None

    def round(self, first: bool, runs_only: bool = False) -> Ready | None:
        """Half of every repeat count (the larger half first); returns
        the last solver built."""
        w = self.w
        raw: dict[str, list[float]] = {k: [] for k in self.KINDS}
        start = len(self.probe.readings)
        self.probe.sample()

        def timed(kind: str, call):
            t0 = perf_counter()
            out = call()
            raw[kind].append(perf_counter() - t0)
            self.probe.sample()
            return out

        ready = None
        if not runs_only:
            if first and w.discard_first_build:
                build_ready(self.cfg)
            for _ in range(_half(w.setup_reps, first)):
                ready = timed("setup_s", lambda: build_ready(self.cfg))
        for _ in range(_half(w.run_reps, first)):
            self._check_run(timed("run_s", lambda: repro.api.run(self.cfg)))
        n_warm = _half(w.warm_jobs, first)
        if not runs_only and n_warm:
            # A *job* is one config executed the way a service worker
            # executes it: every stage resolved through a shared
            # StageCache, then the run.  The round's first job meets an
            # empty cache (cold); the rest move only the source, so they
            # hit mesh / assembler / levels (warm).
            cache = StageCache()
            n_jobs = 1 + n_warm
            for i, cfg in enumerate(self.jobs[:n_jobs]):
                result = timed(
                    "job_warm_s" if i else "job_cold_s",
                    lambda: Simulation(cfg, cache=cache).run(),
                )
                check_tier(self.checks, result, w.tier)
            del self.jobs[:n_jobs]

        factor = REFERENCE_MS / statistics.median(self.probe.readings[start:])
        for kind, values in raw.items():
            self.uncorrected[kind] += values
            self.seconds[kind] += [v * factor for v in values]
        return ready

    def median(self, kind: str) -> float:
        return statistics.median(self.seconds[kind])

    def _check_run(self, result) -> None:
        """The determinism, finiteness and kernel-tier oracles on a
        ``repro.api.run`` result."""
        self.checks.done()
        if self.first_result is None:
            self.first_result = result
            check_tier(self.checks, result, self.w.tier)
            self.checks.check(
                "fields and traces are finite",
                all(np.isfinite(a).all() for a in (result.u, result.v, result.traces)),
            )
        else:
            first = self.first_result
            self.checks.check(
                "same seed gives bitwise-identical traces and fields",
                np.array_equal(result.traces, first.traces)
                and np.array_equal(result.u, first.u),
            )


def _half(n: int, first: bool) -> int:
    return n - n // 2 if first else n // 2


def measure_steady(lts: Ready, nm: Ready, p_max: int, w: Workload, seconds: float,
                   probe: Probe | None = None):
    """Per-cycle wall times (ms) of the LTS solver and of the Newmark
    baseline covering the same Δt (``p_max`` fine steps), taken in
    interleaved blocks after a fixed warm-up; and, with ``probe``, the
    correction to reference speed of each block pair (the probe is read
    between the pair's two blocks)."""
    for _ in range(w.warmup_cycles):
        lts.step()
    for _ in range(max(2, w.warmup_cycles // 6) * p_max):
        nm.step()
    L: list[float] = []
    N: list[float] = []
    scale: list[float] = []
    lts_step, nm_step = lts.step, nm.step
    deadline = perf_counter() + seconds
    while True:
        for _ in range(w.lts_block):
            t0 = perf_counter()
            lts_step()
            L.append((perf_counter() - t0) * 1e3)
        if probe is not None:
            scale.append(REFERENCE_MS / probe.sample())
        for _ in range(w.nm_block):
            t0 = perf_counter()
            for _ in range(p_max):
                nm_step()
            N.append((perf_counter() - t0) * 1e3)
        if perf_counter() >= deadline and len(L) >= 3 * w.lts_block:
            return L, N, scale


def cross_checks(w: Workload, cfg: dict, checks: Checks) -> dict:
    """Scheme, tier and rank oracles on a short run of the config (one
    shared stage cache, so the mesh and assembler are built once)."""
    cache = StageCache()
    short = with_cycles(cfg, w.oracle_cycles)
    ref = Simulation(short, cache=cache).run()
    out = {}

    # The baseline samples its traces every fine step: p_max per cycle.
    nm = Simulation(with_cycles(cfg, w.oracle_cycles, scheme="newmark"), cache=cache).run()
    p_max = int(ref.levels.p_max)
    scale = max(float(np.abs(nm.u).max()), 1e-300)
    out["lts_vs_newmark"] = max(
        float(np.abs(nm.u - ref.u).max()),
        float(np.abs(nm.traces[p_max - 1 :: p_max] - ref.traces).max()),
    ) / scale
    checks.check(
        "LTS final fields within 5e-2 of Newmark's",
        out["lts_vs_newmark"] <= 5e-2 and bool(np.isfinite(nm.u).all()),
        f"relative deviation {out['lts_vs_newmark']:.3e}",
    )
    if w.name.startswith("trench"):
        other = copy.deepcopy(short)
        other["backend"]["fused"] = not short["backend"]["fused"]
        other["partition"] = {"n_ranks": 1}
        alt = Simulation(other, cache=cache).run()
        out["fused_vs_numpy"] = relative_deviation(ref, alt)
        checks.check(
            "fused and NumPy tiers agree to 1e-10",
            out["fused_vs_numpy"] <= 1e-10
            and {ref.metadata["kernel_tier"], alt.metadata["kernel_tier"]}
            == {"fused", "numpy"},
            f"relative deviation {out['fused_vs_numpy']:.3e}",
        )
    if short["partition"]["n_ranks"] > 1:
        serial = copy.deepcopy(short)
        serial["partition"] = {"n_ranks": 1}
        one = Simulation(serial, cache=cache).run()
        out["ranks_vs_serial"] = relative_deviation(one, ref)
        checks.check(
            "4-rank and serial runs agree to 1e-10",
            out["ranks_vs_serial"] <= 1e-10,
            f"relative deviation {out['ranks_vs_serial']:.3e}",
        )
    return out


def probe_summary(probe: Probe) -> dict:
    """The machine state a pass ran in: 1.0 is reference speed, above it
    the host was that much slower."""
    r = probe.readings
    return {
        "samples": len(r),
        "reference_ms": REFERENCE_MS,
        "median_ms": statistics.median(r),
        "min_ms": min(r),
        "max_ms": max(r),
        "slowdown_median": statistics.median(r) / REFERENCE_MS,
    }


class PhaseClock:
    """Wall seconds of each phase of a pass, for the result file."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self._t = perf_counter()

    def mark(self, name: str) -> None:
        now = perf_counter()
        self.phases[name] = now - self._t
        self._t = now


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steady_state(w: Workload, ready: Ready, seconds: float, checks: Checks,
                 probe: Probe):
    """``lts_cycle_ms`` / ``newmark_cycle_ms`` and what is printed
    beside them (ungated: wall speedup and efficiency against Eq. (9))."""
    sim = ready.sim
    p_max = int(sim.levels.p_max)
    nm = make_solver(newmark_variant(sim))
    L, N, scale = measure_steady(ready, nm, p_max, w, seconds, probe)
    checks.done(len(L) + len(N))
    lts = stats.summarize(L, w.lts_block, scale)
    newmark = stats.summarize(N, w.nm_block, scale)
    model = theoretical_speedup(sim.levels)
    speedup = stats.paired_ratio(N, w.nm_block, L, w.lts_block)
    detail = {
        "lts_cycle": lts,
        "newmark_cycle": newmark,
        "p_max": p_max,
        "model_speedup": model,
        "lts_wall_speedup": speedup,
        "lts_wall_efficiency": speedup / model,
    }
    return lts["gated"], newmark["gated"], detail


def untraced(w: Workload, cfgs: dict, seconds: float, checks: Checks):
    """The end-to-end metrics of a solver workload."""
    clock = PhaseClock()
    probe = Probe()
    shots = OneShots(w, cfgs, checks, probe)
    ready = shots.round(first=True)
    clock.mark("one_shots_1")
    lts_ms, nm_ms, detail = steady_state(w, ready, seconds, checks, probe)
    clock.mark("steady_state")
    shots.round(first=False)
    clock.mark("one_shots_2")
    detail["oracles"] = cross_checks(w, shots.cfg, checks)
    clock.mark("oracles")
    detail.update(seconds=shots.seconds, uncorrected=shots.uncorrected,
                  phase_s=clock.phases, probe=probe_summary(probe))
    warm = shots.seconds["job_warm_s"]
    values = {
        "setup_s": shots.median("setup_s"),
        "lts_cycle_ms": lts_ms,
        "newmark_cycle_ms": nm_ms,
        "run_s": shots.median("run_s"),
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": len(warm) / sum(warm),
        "job_p50_ms": shots.median("job_warm_s") * 1e3,
        "job_cold_p50_ms": shots.median("job_cold_s") * 1e3,
    }
    return values, detail


# ----------------------------------------------------------------------
# Traced pass: per-layer metrics
# ----------------------------------------------------------------------
def stage_metrics(w: Workload, cfg: dict, reps: int) -> dict:
    """Median per-stage build time over ``reps`` fresh builds."""
    if w.discard_first_build:
        build_ready(cfg)
    runs = []
    for _ in range(reps):
        ms: dict = {}
        build_ready(cfg, stage_ms=ms)
        runs.append(ms)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _apply_ms(op, reps: int, block: int = 5) -> float:
    n = op.shape[0]
    u = np.linspace(-1.0, 1.0, n)
    out = np.empty(n)
    for _ in range(3):
        op.apply(u, out=out)
    ms = []
    for _ in range(reps):
        t0 = perf_counter()
        op.apply(u, out=out)
        ms.append((perf_counter() - t0) * 1e3)
    return stats.block_minima_median(ms, block)


def kernel_metrics(sim: Simulation, reps: int) -> dict:
    """The isolated full apply ``op.apply(u, out=)``.  Flops and bytes
    are *computed* from array sizes (no cache effects, no measured peak,
    hence no roofline ratio)."""
    b = sim.config.backend
    op = sim.operator()
    ms = _apply_ms(op, reps)
    n_dof = op.shape[0]
    flops = float(op.nnz)  # ne x flops_per_element
    spec = sim.assembler.kernel_spec()
    # Per element node: read the index and u, read-modify-write z; plus
    # the element coefficients once and three full vectors (u, out, Minv).
    n_gathered = int(np.asarray(sim.assembler.element_dofs).size)
    n_bytes = (
        8.0 * 4 * n_gathered
        + sum(np.asarray(p).nbytes for p in spec.params.values())
        + 8.0 * 3 * n_dof
    )
    op2 = sim.assembler.operator("matfree", use_fused=b.fused, threads=2)
    ms2 = _apply_ms(op2, max(reps // 2, 5))
    return {
        "sem.kernel.apply_full_ms": ms,
        "sem.kernel.mdof_per_s": n_dof / ms / 1e3,
        "sem.kernel.gflops_computed": flops / ms / 1e6,
        "sem.kernel.bytes_per_apply_computed": n_bytes / MB,
        "sem.kernel.flops_per_byte_computed": flops / n_bytes,
        "sem.kernel.workspace_mb": op.workspace_bytes() / MB,
        "sem.kernel.apply_full_t2_ms": ms2,
        "sem.kernel.threads2_speedup": ms / ms2,
    }


def cache_metrics(cfg: dict) -> dict:
    """The config resolved twice through one :class:`StageCache`."""

    def resolve() -> float:
        t0 = perf_counter()
        sim = Simulation(cfg, cache=cache)
        for stage in ("mesh", "material", "assembler", "levels", "dof_level",
                      "force", "receiver_dofs", "parts"):
            getattr(sim, stage)
        return (perf_counter() - t0) * 1e3

    cache = StageCache()
    cold, warm = resolve(), resolve()
    s = cache.stats
    return {
        "api.cache.cold_resolve_ms": cold,
        "api.cache.warm_resolve_ms": warm,
        "api.cache.hit_ratio": s.hits / max(s.hits + s.misses, 1),
        "api.cache.resolutions_total": float(sum(s.resolutions.values())),
    }


def op_count_metrics(sim: Simulation) -> dict:
    """Exact stiffness-operation counts of the serial optimized
    recursion against the Newmark count (``OperationCounter``): the
    achieved Eq. (9), as Sec. II-C counts it.  Plus the solver's pooled
    workspace and ``measure_hot_path``'s allocation count."""
    counter = OperationCounter()
    op = sim.operator()
    solver = LTSNewmarkSolver(op, sim.dof_level, sim.dt, force=sim.force, counter=counter)
    n = int(sim.assembler.n_dof)
    u, v = np.zeros(n), np.zeros(n)
    cycles = 2
    for _ in range(cycles):
        solver.step(u, v)
    model = theoretical_speedup(sim.levels)
    op_speedup = int(sim.levels.p_max) * op.nnz / (counter.stiffness_ops / cycles)
    solver.counter = None
    hot = measure_hot_path(
        lambda: solver.step(u, v), n_steps=4, warmup=1,
        workspace=solver.workspace_bytes(),
    )
    return {
        "core.lts.model_speedup": model,
        "core.lts.op_speedup": op_speedup,
        "core.lts.op_efficiency": op_speedup / model,
        "core.lts.workspace_mb": solver.workspace_bytes() / MB,
        "core.lts.allocs_per_cycle": hot.allocs_per_step,
    }


def facade_metrics(w: Workload, cfg: dict, reps: int, checks: Checks) -> dict:
    """What ``repro.api.run`` costs over calling the layers directly:
    the same config, cycle count and zero-field start, hand-wired
    (``build_ready`` plus the remaining cycles) and through the façade,
    alternating; and the onset cycles both of them pay."""
    n_cycles = int(cfg["time"]["n_cycles"])
    onset: list[float] = []

    def direct() -> float:
        t0 = perf_counter()
        ready = build_ready(cfg)
        cycle_ms = []
        for _ in range(n_cycles - 1):
            t1 = perf_counter()
            ready.step()
            cycle_ms.append((perf_counter() - t1) * 1e3)
        onset.append(statistics.fmean(cycle_ms[:8]))
        return perf_counter() - t0

    def facade() -> float:
        nonlocal result
        t0 = perf_counter()
        result = repro.api.run(cfg)
        return perf_counter() - t0

    result = None
    extra = []
    for rep in range(reps):
        # Whichever goes second finds memory already faulted in, so the
        # order alternates.
        if rep % 2 == 0:
            d, f = direct(), facade()
        else:
            f, d = facade(), direct()
        extra.append((f - d) * 1e3)
    check_tier(checks, result, w.tier)
    return {
        # Cycles 2-9 from zero fields under the Ricker source: the
        # start-up transient run_s pays and the steady state does not.
        "core.lts.onset_cycle_ms": statistics.median(onset),
        "api.simulation.facade_overhead_ms": statistics.median(extra),
    }


def _fastest_per_block(cycle_ms: list[float], block: int) -> list[int]:
    """Index of the fastest cycle of each full block: the spike-free
    cycles every per-cycle breakdown is averaged over, so that the parts
    add up to exactly the cycle time they are parts of."""
    n = len(cycle_ms) // block * block
    return [
        min(range(i, i + block), key=cycle_ms.__getitem__)
        for i in range(0, n, block)
    ]


def _cycle_breakdown(tracer: Tracer, cycle_name: str, block: int):
    """From the spans named ``cycle_name`` and their children: every
    cycle's duration (ms); over the kept cycles (see
    :func:`_fastest_per_block`) the mean duration and the mean summed
    child time by span name; and over *all* cycles the exact child-span
    count per cycle."""
    cid = tracer.name_id(cycle_name)
    order = [i for i, r in enumerate(tracer.rows) if r[0] == cid]
    cycle_ms = [(tracer.rows[i][2] - tracer.rows[i][1]) * 1e3 for i in order]
    position = {row_index: j for j, row_index in enumerate(order)}
    per_cycle: list[dict[str, float]] = [{} for _ in order]
    counts: dict[str, int] = {}
    for nid, t0, t1, parent, _ in tracer.rows:
        j = position.get(parent)
        if j is None:
            continue
        name = tracer.names[nid]
        per_cycle[j][name] = per_cycle[j].get(name, 0.0) + (t1 - t0) * 1e3
        counts[name] = counts.get(name, 0) + 1
    kept = _fastest_per_block(cycle_ms, block)
    mean_ms = statistics.fmean(cycle_ms[j] for j in kept)
    busy = {
        n: statistics.fmean(per_cycle[j].get(n, 0.0) for j in kept) for n in counts
    }
    return cycle_ms, mean_ms, busy, {n: c / len(order) for n, c in counts.items()}


def run_traced_cycles(plain: Ready, traced: Ready, tracer: Tracer, name: str,
                      steps_per_cycle: int, block: int, warmup: int,
                      seconds: float) -> list[float]:
    """Interleaved blocks of unproxied and proxied cycles (same config,
    same field history); returns the unproxied per-cycle ms.  Each
    proxied cycle is one span, its applies and messages the children."""
    for _ in range(warmup * steps_per_cycle):
        plain.step()
        traced.step()
    plain_ms: list[float] = []
    request = 0
    deadline = perf_counter() + seconds
    while True:
        for _ in range(block):
            t0 = perf_counter()
            for _ in range(steps_per_cycle):
                plain.step()
            plain_ms.append((perf_counter() - t0) * 1e3)
        for _ in range(block):
            with tracer.span(name, request=request):
                for _ in range(steps_per_cycle):
                    traced.step()
            request += 1
        if perf_counter() >= deadline and len(plain_ms) >= 3 * block:
            return plain_ms


def same_fields(a: Ready, b: Ready) -> bool:
    """Bitwise equality of two solvers' state vectors (global or
    per-rank)."""

    def flat(fields):
        return [x for f in fields for x in (f if isinstance(f, list) else [f])]

    return all(np.array_equal(x, y) for x, y in zip(flat(a.fields), flat(b.fields)))


def lts_layer_metrics(w: Workload, cfg: dict, tracer: Tracer, seconds: float,
                      apply_full_ms: float, checks: Checks):
    """Per-level applies and recursion self time — or, distributed,
    per-rank compute, mailbox and executor self time — from traced LTS
    cycles.  Returns the values, printable detail and the unproxied
    solver (warm, for the wall-speedup measurement)."""
    plain = build_ready(cfg)
    traced = build_ready(cfg, tracer=tracer)
    sim = plain.sim
    n_ranks = sim.config.partition.n_ranks
    plain_ms = run_traced_cycles(
        plain, traced, tracer, LTS_CYCLE, 1, w.lts_block,
        max(2, w.warmup_cycles // 2), seconds,
    )
    checks.check(
        "proxied and unproxied solvers hold bitwise-equal fields",
        same_fields(plain, traced),
    )
    cycle_ms, mean_ms, busy, counts = _cycle_breakdown(tracer, LTS_CYCLE, w.lts_block)
    checks.done(len(cycle_ms) + len(plain_ms))
    out = {
        "trace.overhead_frac":
            stats.paired_ratio(cycle_ms, w.lts_block, plain_ms, w.lts_block) - 1.0
    }
    detail = {
        "traced_cycle_ms": mean_ms,
        "plain_cycle": stats.summarize(plain_ms, w.lts_block),
    }

    level_counts = sim.levels.counts()
    n_elements = int(sim.mesh.n_elements)
    apply_total = 0.0
    for k in LEVELS[: len(level_counts)]:
        names = (
            [level_span(k)] if n_ranks == 1
            else [rank_level_span(r, k) for r in range(n_ranks)]
        )
        ms = sum(busy.get(n, 0.0) for n in names)
        # Distributed: one level apply is n_ranks rank-local applies.
        applies = sum(counts.get(n, 0.0) for n in names) / n_ranks
        apply_total += ms
        elements = float(level_counts[k - 1])
        if not applies:
            continue  # a level no element sits on is never applied
        apply_us = ms / applies * 1e3
        proportional_us = elements / n_elements * apply_full_ms * 1e3
        out[f"core.lts.level{k}.elements"] = elements
        out[f"core.lts.level{k}.applies_per_cycle"] = applies
        out[f"core.lts.level{k}.apply_us"] = apply_us
        out[f"core.lts.level{k}.busy_ms_per_cycle"] = ms
        out[f"core.lts.level{k}.overhead_x"] = apply_us / proportional_us
    out["core.lts.apply_ms_per_cycle"] = apply_total

    if n_ranks == 1:
        self_ms = mean_ms - apply_total
        out["core.lts.recursion_self_ms_per_cycle"] = self_ms
        out["core.lts.recursion_self_frac"] = self_ms / mean_ms
        return out, detail, plain

    # Distributed: compute per rank (and level), mailbox, executor self.
    rank_ms = [
        sum(busy.get(rank_level_span(r, k), 0.0) for k in LEVELS) for r in range(n_ranks)
    ]
    mailbox = busy.get(MAILBOX_SEND, 0.0) + busy.get(MAILBOX_RECV, 0.0)
    self_ms = mean_ms - apply_total - mailbox
    out["runtime.executor.compute_ms_per_cycle"] = apply_total
    out["runtime.executor.rank_imbalance"] = max(rank_ms) / statistics.fmean(rank_ms)
    for k in LEVELS[: len(level_counts)]:
        per_rank = [busy.get(rank_level_span(r, k), 0.0) for r in range(n_ranks)]
        out[f"runtime.executor.level{k}.rank_imbalance"] = (
            max(per_rank) / statistics.fmean(per_rank)
        )
    out["runtime.comm.mailbox_ms_per_cycle"] = mailbox
    out["runtime.executor.self_ms_per_cycle"] = self_ms
    out["runtime.executor.self_frac"] = self_ms / mean_ms
    out["runtime.executor.workspace_mb"] = traced.solver.workspace_bytes() / MB
    # One more cycle, bracketed by the world's own counters.
    world = traced.world
    sent = (world.sent_messages, world.sent_volume)
    traced.step()
    plain.step()
    out["runtime.comm.messages_per_cycle"] = float(world.sent_messages - sent[0])
    out["runtime.comm.doubles_per_cycle"] = float(world.sent_volume - sent[1])
    out["partition.level_imbalance_max"] = float(
        per_level_imbalance(sim.levels, sim.parts, n_ranks).max() / 100.0
    )
    out["partition.mpi_volume"] = float(
        mpi_volume(sim.mesh, sim.levels, sim.parts, n_ranks)
    )
    detail["rank_compute_ms"] = rank_ms
    return out, detail, plain


def newmark_layer_metrics(w: Workload, sim: Simulation, tracer: Tracer,
                          seconds: float, checks: Checks):
    """The baseline's split into stiffness applies and vector work.
    Returns the values and the unproxied baseline solver."""
    base = newmark_variant(sim)
    p_max = int(sim.levels.p_max)
    plain, traced = make_solver(base), make_solver(base, tracer=tracer)
    run_traced_cycles(
        plain, traced, tracer, NEWMARK_CYCLE, p_max, w.nm_block, 2, seconds
    )
    cycle_ms, mean_ms, busy, _ = _cycle_breakdown(tracer, NEWMARK_CYCLE, w.nm_block)
    checks.done(2 * len(cycle_ms))
    n_ranks = sim.config.partition.n_ranks
    names = (
        [level_span(1)] if n_ranks == 1
        else [rank_level_span(r, 1) for r in range(n_ranks)]
    )
    apply_ms = sum(busy.get(n, 0.0) for n in names)
    mailbox = busy.get(MAILBOX_SEND, 0.0) + busy.get(MAILBOX_RECV, 0.0)
    return {
        "core.newmark.apply_frac": apply_ms / mean_ms,
        "core.newmark.vector_ms_per_step": (mean_ms - apply_ms - mailbox) / p_max,
    }, plain


def traced(w: Workload, cfgs: dict, seconds: float, checks: Checks,
           tracer: Tracer, quick: bool = False):
    """The per-layer metrics of a solver config."""
    cfg = cfgs["solver"]
    values = stage_metrics(w, cfg, 1 if quick else 2)
    sim = Simulation(cfg)
    values.update(kernel_metrics(sim, 10 if quick else 50))
    values.update(cache_metrics(cfg))
    values.update(op_count_metrics(sim))
    values.update(facade_metrics(w, cfg, 1 if quick else 2, checks))

    lts, detail, plain = lts_layer_metrics(
        w, cfg, tracer, 0.5 * seconds, values["sem.kernel.apply_full_ms"], checks
    )
    values.update(lts)
    nm, plain_nm = newmark_layer_metrics(w, sim, tracer, 0.2 * seconds, checks)
    values.update(nm)

    # Both unproxied solvers are warm: interleave them for the speedup.
    L, N, _ = measure_steady(
        plain, plain_nm, int(sim.levels.p_max), replace(w, warmup_cycles=0),
        0.2 * seconds,
    )
    checks.done(len(L) + len(N))
    speedup = stats.paired_ratio(N, w.nm_block, L, w.lts_block)
    values["core.lts.wall_speedup"] = speedup
    values["core.lts.wall_efficiency"] = speedup / values["core.lts.model_speedup"]

    if cfg["partition"]["n_ranks"] > 1:
        serial_cfg = copy.deepcopy(cfg)
        serial_cfg["partition"] = {"n_ranks": 1}
        serial = make_solver(Simulation(serial_cfg))
        S, L, _ = measure_steady(
            serial, plain, 1, replace(w, nm_block=w.lts_block), 0.1 * seconds
        )
        values["runtime.executor.vs_serial_x"] = stats.paired_ratio(
            L, w.lts_block, S, w.lts_block
        )
    return values, detail
