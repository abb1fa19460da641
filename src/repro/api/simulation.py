"""The :class:`Simulation` driver: one config object, resolved end-to-end.

``Simulation`` consumes a :class:`repro.api.config.SimulationConfig`
and walks the paper's whole pipeline:

1. build the mesh from the registered generator family
   (:class:`~repro.api.config.MeshSpec`);
2. resolve the material and construct the matching assembler —
   acoustic / elastic / anisotropic x 1D / 2D / 3D
   (:class:`~repro.api.config.MaterialSpec`);
3. assign LTS p-levels and the cycle step from the material's maximal
   wave speed via ``assign_levels(assembler=...)`` (paper Eq. (7));
   ``scheme="newmark"`` collapses everything to the finest stable step
   (the non-LTS baseline);
4. resolve the point source and receiver DOFs
   (:class:`~repro.api.config.SourceSpec` /
   :class:`~repro.api.config.ReceiverSpec`);
5. run serially (:class:`repro.core.lts_newmark.LTSNewmarkSolver`) or
   partition and run the distributed mailbox executors
   (:class:`~repro.api.config.PartitionSpec`), on the kernel tier
   :class:`~repro.api.config.BackendSpec` selects;
6. return a :class:`SimulationResult` — receiver traces, final fields,
   level/partition/timing metadata.

Intermediate artifacts (``sim.mesh``, ``sim.assembler``,
``sim.levels``, ``sim.dof_level``, ``sim.force`` ...) are lazily built
cached properties, so the façade composes with the manual-wiring layer
instead of hiding it: build a reference solver from ``sim.assembler``
by hand, reuse ``sim.levels`` in a partition study, and so on.

Module-level conveniences: :func:`run` (one-shot) and
:func:`relative_deviation` (result agreement metric); a tier or
partition cross-check is two runs of :meth:`Simulation.variant`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.api.cache import StageCache
from repro.api.config import BackendSpec, PartitionSpec, SimulationConfig
from repro.core.health import HealthGuard
from repro.core.levels import LevelAssignment, assign_levels
from repro.core.lts_newmark import LTSPlan, dof_levels_from_elements
from repro.core.newmark import Fields, run_cycles
from repro.core.workspace import HotPathTracer
from repro.partition.strategies import PARTITIONERS
from repro.runtime.checkpoint import (
    DOF_ORDER_SINCE,
    CheckpointState,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.runtime.comm import MailboxWorld
from repro.runtime.faults import FaultyWorld
from repro.runtime.halo import build_rank_layout
from repro.runtime.supervisor import Supervisor
from repro.sem.anisotropic import AnisotropicElasticSemND
from repro.sem.tensor import ElasticSemND, SemND
from repro.sem.sources import point_source, ricker
from repro.util.errors import ConfigError


# ----------------------------------------------------------------------
# Stage content keys
# ----------------------------------------------------------------------
# Each resolved pipeline stage is determined by a *subset* of the config:
# the functions below compose exactly the per-spec sub-hashes
# (``Spec.content_hash()``) and scalar fields a stage depends on.  Two
# configs with equal key tuples for a stage can share that stage's
# resolved artifact — this is what drives both the content-addressed
# :class:`~repro.api.cache.StageCache` and the generalized
# :meth:`Simulation.variant` sharing.  The table is the single source of
# truth for "which spec fields invalidate which stage" (documented in
# the README cache-key semantics table):
#
# ==============  =====================================================
# stage           invalidated by
# ==============  =====================================================
# mesh            mesh spec
# material        mesh spec, material spec (incl. regions)
# assembler       + order, dirichlet
# levels          + time.c_cfl, time.max_levels
# dof_level       + time.scheme
# _stepping       + time.n_cycles / time.t_end
# force           assembler key + source spec
# receiver_dofs   assembler key + receivers spec
# parts           levels key + partition spec
# rank_layout     parts key + backend spec
# solver_plan     dof_level key + backend spec (+ partition spec on
#                 more than one rank)
# ==============  =====================================================
#
# BackendSpec (the kernel tier: fused, threads) enters only the last
# two, which hold the execution plan — rank-local operators, level
# restrictions, index maps — and live in the cache's memory tier only,
# the latest of each (``repro.api.cache._LATEST_ONLY``).
# Absent everywhere: the resilience spec and the config name.


def _mesh_key(cfg: SimulationConfig) -> tuple:
    return (cfg.mesh.content_hash(),)


def _material_key(cfg: SimulationConfig) -> tuple:
    return _mesh_key(cfg) + (cfg.material.content_hash(),)


def _assembler_key(cfg: SimulationConfig) -> tuple:
    return _material_key(cfg) + (cfg.order, cfg.dirichlet)


def _levels_key(cfg: SimulationConfig) -> tuple:
    return _assembler_key(cfg) + (cfg.time.c_cfl, cfg.time.max_levels)


def _dof_level_key(cfg: SimulationConfig) -> tuple:
    return _levels_key(cfg) + (cfg.time.scheme,)


def _stepping_key(cfg: SimulationConfig) -> tuple:
    return _dof_level_key(cfg) + (cfg.time.n_cycles, cfg.time.t_end)


def _force_key(cfg: SimulationConfig) -> tuple:
    src = None if cfg.source is None else cfg.source.content_hash()
    return _assembler_key(cfg) + (src,)


def _receivers_key(cfg: SimulationConfig) -> tuple:
    rec = None if cfg.receivers is None else cfg.receivers.content_hash()
    return _assembler_key(cfg) + (rec,)


def _parts_key(cfg: SimulationConfig) -> tuple:
    return _levels_key(cfg) + (cfg.partition.content_hash(),)


def _layout_key(cfg: SimulationConfig) -> tuple:
    return _parts_key(cfg) + (cfg.backend.content_hash(),)


def _plan_key(cfg: SimulationConfig) -> tuple:
    # One key shape: on one rank the partition part is None because a
    # serial plan depends on neither strategy nor seed (a normalisation).
    part = None if cfg.partition.n_ranks == 1 else cfg.partition.content_hash()
    return _dof_level_key(cfg) + (cfg.backend.content_hash(), part)


#: The assembler of each material model; each is generic over dimension.
_ASSEMBLERS = {
    "acoustic": SemND,
    "elastic": ElasticSemND,
    "anisotropic_elastic": AnisotropicElasticSemND,
}

#: Resolved-stage dependency table: cached attribute -> key function.
STAGES: dict[str, Callable[[SimulationConfig], tuple]] = {
    "mesh": _mesh_key,
    "material": _material_key,
    "assembler": _assembler_key,
    "levels": _levels_key,
    "dof_level": _dof_level_key,
    "_stepping": _stepping_key,
    "force": _force_key,
    "receiver_dofs": _receivers_key,
    "parts": _parts_key,
    "rank_layout": _layout_key,
    "solver_plan": _plan_key,
}


def stage_key(stage: str, cfg: SimulationConfig) -> str:
    """The content-addressed cache key of ``stage`` for ``cfg``:
    ``"<stage>:<sha256 of the key tuple>"``."""
    if stage not in STAGES:
        raise ConfigError(
            f"unknown pipeline stage {stage!r}; "
            f"stages: {', '.join(STAGES)}"
        )
    digest = hashlib.sha256(
        json.dumps(STAGES[stage](cfg), sort_keys=True).encode()
    ).hexdigest()
    return f"{stage.lstrip('_')}:{digest[:40]}"


@dataclass
class SimulationResult:
    """Everything a run produces.

    Attributes
    ----------
    u, v:
        Final displacement and (staggered) velocity fields, global
        numbering.
    times:
        ``(n_cycles,)`` trace sample times (end of each LTS cycle).
    traces:
        ``(n_cycles, n_receivers)`` displacement seismograms, or
        ``None`` when the config has no receivers.
    receiver_dofs:
        Global DOF ids the traces were recorded at.
    levels:
        The :class:`repro.core.levels.LevelAssignment` used.
    dt:
        The realized cycle step (after ``t_end`` rounding).
    parts:
        Element partition vector (``None`` for serial runs).
    metadata:
        Sizes, backend/scheme/rank info, build and run wall times, and
        mailbox message statistics for distributed runs.
    """

    config: SimulationConfig
    u: np.ndarray
    v: np.ndarray
    times: np.ndarray
    traces: np.ndarray | None
    receiver_dofs: np.ndarray | None
    levels: LevelAssignment
    dt: float
    n_cycles: int
    parts: np.ndarray | None
    metadata: dict

    def to_payload(self) -> dict:
        """The result as a flat ``{name: ndarray}`` dict — the single
        definition of the result ``.npz`` field set.

        ``atomic_savez(path, **result.to_payload())`` is what
        ``python -m repro run --output``, ensemble member files and
        service results write; :meth:`from_payload` is the inverse, and
        a :class:`SimulationResult` pickles as its payload, so results
        cross process boundaries in the same form they reach disk.
        ``traces``/``receiver_dofs`` and ``parts`` are present only when
        the run has receivers / is partitioned.
        """
        payload = {
            "times": self.times,
            "u": self.u,
            "v": self.v,
            "config_json": np.array(json.dumps(self.config.to_dict())),
            "kernel_tier": np.array(self.metadata["kernel_tier"]),
            "dt": np.array(self.dt),
            "level": self.levels.level,
            "levels_dt": np.array(self.levels.dt),
            "levels_dt_min": np.array(self.levels.dt_min),
            "metadata_json": np.array(json.dumps(self.metadata)),
        }
        if self.traces is not None:
            payload["traces"] = self.traces
            payload["receiver_dofs"] = self.receiver_dofs
        if self.parts is not None:
            payload["parts"] = self.parts
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SimulationResult":
        """Rebuild a result from :meth:`to_payload`'s dict (or from the
        ``np.load`` archive of a file written from it)."""
        has_traces = "traces" in payload
        return cls(
            config=SimulationConfig.from_dict(
                json.loads(str(payload["config_json"]))
            ),
            u=payload["u"],
            v=payload["v"],
            times=payload["times"],
            traces=payload["traces"] if has_traces else None,
            receiver_dofs=payload["receiver_dofs"] if has_traces else None,
            levels=LevelAssignment(
                level=payload["level"],
                dt=float(payload["levels_dt"]),
                dt_min=float(payload["levels_dt_min"]),
            ),
            dt=float(payload["dt"]),
            n_cycles=len(payload["times"]),
            parts=payload["parts"] if "parts" in payload else None,
            metadata=json.loads(str(payload["metadata_json"])),
        )

    def __reduce__(self):
        # Specs hold MappingProxyType views (not picklable): travel as
        # the payload instead.
        return SimulationResult.from_payload, (self.to_payload(),)


class Simulation:
    """Resolve a :class:`~repro.api.config.SimulationConfig` end-to-end.

    Construction is cheap; every pipeline stage is a cached property
    built on first access, and :meth:`run` produces the
    :class:`SimulationResult`.

    ``cache`` plugs in a shared :class:`~repro.api.cache.StageCache`:
    stages then resolve *through* the cache under their content keys
    (:func:`stage_key`), so any number of Simulations — ensemble
    members, backend variants, repeated service requests — resolve each
    distinct mesh/assembler/levels/partition exactly once.  The
    per-instance ``cache_events`` dict counts this Simulation's own
    hits/misses (the shared cache's ``stats`` aggregates across users).
    """

    def __init__(
        self, config: SimulationConfig | Mapping, cache: StageCache | None = None
    ):
        if isinstance(config, Mapping):
            config = SimulationConfig.from_dict(config)
        if not isinstance(config, SimulationConfig):
            raise ConfigError(
                f"Simulation expects a SimulationConfig (or a mapping), "
                f"got {type(config).__name__}"
            )
        if cache is not None and not isinstance(cache, StageCache):
            raise ConfigError(
                f"Simulation cache= expects a StageCache, "
                f"got {type(cache).__name__}"
            )
        self.config = config
        self.cache = cache
        self.cache_events: dict[str, int] = {}

    # -- cache plumbing -------------------------------------------------
    def stage_key(self, stage: str) -> str:
        """This config's content key for ``stage`` (see :func:`stage_key`)."""
        return stage_key(stage, self.config)

    def _resolve(self, stage: str, build: Callable, pack=None, unpack=None):
        """Build a stage artifact, through the cache when one is set."""
        if self.cache is None:
            return build()
        return self.cache.get_or_create(
            self.stage_key(stage),
            build,
            stage=stage.lstrip("_"),
            pack=pack,
            unpack=unpack,
            events=self.cache_events,
        )

    # -- pipeline stages ------------------------------------------------
    @cached_property
    def mesh(self):
        """The built :class:`repro.mesh.Mesh`."""
        return self._resolve("mesh", self.config.mesh.build)

    @cached_property
    def material(self):
        """The resolved per-element :class:`repro.sem.materials.Material`."""
        return self._resolve(
            "material", lambda: self.config.material.build(self.mesh)
        )

    def _build_assembler(self):
        """The uncached assembler construction (see ``assembler``)."""
        cfg = self.config
        return _ASSEMBLERS[cfg.material.model](
            self.mesh, order=cfg.order, dirichlet=cfg.dirichlet, material=self.material
        )

    @cached_property
    def assembler(self):
        """The SEM assembler of the material model (any mesh dimension)."""
        return self._resolve("assembler", self._build_assembler)

    @cached_property
    def levels(self) -> LevelAssignment:
        """LTS p-levels from the material's maximal wave speed (Eq. (7))."""

        def build():
            t = self.config.time
            return assign_levels(
                self.mesh,
                c_cfl=t.c_cfl,
                max_levels=t.max_levels,
                assembler=self.assembler,
            )

        def pack(lv: LevelAssignment) -> dict:
            return {
                "level": lv.level,
                "dt": np.array(lv.dt),
                "dt_min": np.array(lv.dt_min),
            }

        def unpack(d: dict) -> LevelAssignment:
            return LevelAssignment(
                level=d["level"].astype(np.int64),
                dt=float(d["dt"]),
                dt_min=float(d["dt_min"]),
            )

        return self._resolve("levels", build, pack=pack, unpack=unpack)

    @cached_property
    def dof_level(self) -> np.ndarray:
        """Per-DOF levels (all 1 under the non-LTS ``newmark`` scheme)."""

        def build():
            sem = self.assembler
            if self.config.time.scheme == "newmark":
                return np.ones(sem.n_dof, dtype=np.int64)
            return dof_levels_from_elements(
                sem.element_dofs, self.levels.level, sem.n_dof
            )

        return self._resolve("dof_level", build)

    @cached_property
    def _stepping(self) -> tuple[float, int]:
        """The realized ``(dt, n_cycles)`` pair.

        The stable step is the coarse cycle step for LTS and the finest
        step for the ``newmark`` baseline.  ``n_cycles`` always counts
        *coarse-cycle spans*, so the newmark baseline takes
        ``n_cycles * p_max`` fine steps and both schemes cover the same
        physical duration — the comparison the baseline exists for.  In
        ``t_end`` mode the step is shrunk so ``n * dt == t_end``
        exactly.
        """
        t = self.config.time
        if t.scheme == "lts":
            dt, per_cycle = self.levels.dt, 1
        else:
            dt, per_cycle = self.levels.dt_min, self.levels.p_max
        if t.n_cycles is not None:
            return dt, t.n_cycles * per_cycle
        n = max(1, int(np.ceil(t.t_end / dt)))
        return t.t_end / n, n

    @property
    def dt(self) -> float:
        return self._stepping[0]

    @property
    def n_cycles(self) -> int:
        return self._stepping[1]

    # -- source / receivers ---------------------------------------------
    def _locate_dof(self, position, component: int, what: str) -> int:
        sem = self.assembler
        if len(position) != self.mesh.dim:
            raise ConfigError(
                f"{what} position {position} has {len(position)} "
                f"coordinates but the mesh is {self.mesh.dim}D"
            )
        n_comp = int(getattr(sem, "n_comp", 1))
        if component >= n_comp:
            kind = type(sem).__name__
            if n_comp == 1:
                raise ConfigError(
                    f"{what} component={component}, but {kind} is scalar "
                    f"physics (component must be 0)"
                )
            raise ConfigError(
                f"{what} component={component} out of range: {kind} has "
                f"{n_comp} components (0..{n_comp - 1})"
            )
        if n_comp == 1:
            return int(sem.nearest_dof(*position))
        return int(sem.nearest_dof(*position, comp=component))

    @cached_property
    def force(self) -> Callable[[float], np.ndarray] | None:
        """The mass-scaled point force, or ``None`` without a source."""
        src = self.config.source
        if src is None:
            return None

        def build():
            dof = self._locate_dof(src.position, src.component, "source")
            mask = getattr(self.assembler, "dirichlet_mask", None)
            if mask is not None and not mask[dof]:
                raise ConfigError(f"source position {list(src.position)} lands on DOF {dof}, "
                                  f"which is Dirichlet (clamped): the source would send no wave")
            stf = ricker(src.f0, t0=src.t0, amplitude=src.amplitude)
            return point_source(self.assembler.n_dof, dof, self.assembler.M, stf)

        return self._resolve("force", build)

    @cached_property
    def receiver_dofs(self) -> np.ndarray | None:
        """Global DOF ids of the receivers, or ``None`` without any."""
        rec = self.config.receivers
        if rec is None:
            return None

        def build():
            mask = getattr(self.assembler, "dirichlet_mask", None)
            dofs = []
            for i, p in enumerate(rec.positions):
                dof = self._locate_dof(p, rec.component, f"receiver #{i}")
                if mask is not None and not mask[dof]:
                    raise ConfigError(f"receiver #{i} at {list(p)} lands on DOF {dof}, which is "
                                      f"Dirichlet (clamped): its trace would be all zeros")
                dofs.append(dof)
            return np.array(dofs, dtype=np.int64)

        return self._resolve("receiver_dofs", build)

    @cached_property
    def parts(self) -> np.ndarray | None:
        """Element partition vector (``None`` for serial configs)."""
        p = self.config.partition
        if p.n_ranks == 1:
            return None

        def build():
            return PARTITIONERS[p.strategy](
                self.mesh, self.levels, p.n_ranks, seed=p.seed
            )

        return self._resolve(
            "parts",
            build,
            pack=lambda parts: {"parts": parts},
            unpack=lambda d: d["parts"].astype(np.int64),
        )

    @cached_property
    def rank_layout(self):
        """The partition's :class:`~repro.runtime.halo.RankLayout` on the
        configured kernel tier, LTS levels left to the solver plan
        (``None`` for serial configs)."""
        if self.parts is None:
            return None
        b, n_ranks = self.config.backend, self.config.partition.n_ranks
        return self._resolve("rank_layout", lambda: build_rank_layout(
            self.assembler, self.parts, n_ranks, use_fused=b.fused, threads=b.threads,
        ))

    @cached_property
    def solver_plan(self) -> LTSPlan:
        """Everything the solver derives from operator, levels and
        partition — level-sorted numberings, the restrictions relabelled
        onto them, exchange channels — built once; each run (and each
        supervised retry) binds it, which allocates buffers only.

        One :class:`~repro.core.lts_newmark.LTSPlan` either way: over the
        serial operator (one numbering, no channels), or over the rank
        layout (one numbering per rank, its channels); the run reads
        ``bind`` and ``replicas``."""

        def build():
            layout, levels = self.rank_layout, self.dof_level
            if layout is None:
                return LTSPlan(self.operator(), levels)
            return LTSPlan(replace(layout, dof_level_local=[levels[g] for g in layout.gdofs]))

        return self._resolve("solver_plan", build)

    def operator(self):
        """The serial stiffness operator on the configured kernel tier."""
        b = self.config.backend
        return self.assembler.operator(use_fused=b.fused, threads=b.threads)

    def kernel_tier(self) -> str:
        """The kernel tier the solver plan's level-1 products run —
        ``"numpy"``, ``"fused"`` or ``"fused+openmp:N"``
        — read off the built plan (:attr:`NumberingPlan.tier
        <repro.core.lts_newmark.NumberingPlan.tier>`), so results record
        the path that ran: with ``fused=None`` a missing compiler or a
        DOF count past the int32 tables is ``"numpy"``, and a product
        below one ``VL`` block per thread runs ``"fused"`` whatever
        ``threads`` says.  Numberings that ran different tiers record
        each, comma-separated in order of first appearance."""
        tiers = dict.fromkeys(nb.tier for nb in self.solver_plan.numberings)
        return ",".join(tiers)

    def cache_summary(self) -> dict:
        """This Simulation's own stage-cache traffic: ``{"hits": n,
        "misses": n}`` (empty when no cache is attached)."""
        return dict(self.cache_events)

    def variant(
        self,
        backend: BackendSpec | None = None,
        partition: PartitionSpec | None = None,
        **swaps,
    ) -> "Simulation":
        """A Simulation with any config fields swapped, *sharing* every
        already-resolved pipeline stage whose upstream content keys
        match (see :data:`STAGES`).

        Sharing is fully general: a backend or partition swap keeps the
        whole mesh -> assembler -> levels pipeline (neither spec appears
        in any upstream key); a moved source keeps everything but the
        force; a different ``time.scheme`` keeps the assembler and
        levels but re-derives ``dof_level``; a new mesh shares nothing.
        Keyword arguments name any :class:`SimulationConfig` field
        (``source=``, ``time=``, ``material=``, ``name=`` ...); specs
        may be given as raw mappings.  The attached stage cache (if
        any) carries over, so even stages not resolved yet on *this*
        instance are shared through it.

        This is how tier-parity, serial-reference, and ensemble member
        runs avoid paying mesh and assembler construction more than
        once; :mod:`repro.api.ensemble` is built on it.
        """
        if backend is not None:
            swaps["backend"] = backend
        if partition is not None:
            swaps["partition"] = partition
        cfg = replace(self.config, **swaps) if swaps else self.config
        sim = Simulation(cfg, cache=self.cache)
        for name, key_fn in STAGES.items():
            if name in self.__dict__ and key_fn(self.config) == key_fn(cfg):
                sim.__dict__[name] = self.__dict__[name]
        return sim

    # -- the run ---------------------------------------------------------
    def _health_guard(self, dt: float) -> HealthGuard | None:
        """The configured :class:`HealthGuard`, or ``None`` when off."""
        res = self.config.resilience
        if res.health_check_every is None:
            return None
        stable = (
            self.levels.dt
            if self.config.time.scheme == "lts"
            else self.levels.dt_min
        )
        return HealthGuard(
            check_every=res.health_check_every,
            element_dofs=self.assembler.element_dofs,
            dt=dt,
            dt_stable=stable,
            energy_factor=res.energy_factor,
        )

    def _check_restorable(self, state: CheckpointState, origin) -> CheckpointState:
        """Reject a checkpoint this config cannot faithfully continue."""
        if (
            state.config_hash is not None
            and state.config_hash != self.config.content_hash()
        ):
            raise ConfigError(
                f"checkpoint {origin} was written by a different "
                f"configuration (content hash {state.config_hash[:12]}... != "
                f"{self.config.content_hash()[:12]}...); refusing to resume"
            )
        if len(state.u) != int(self.assembler.n_dof):
            raise ConfigError(
                f"checkpoint {origin} holds {len(state.u)} DOFs but this "
                f"config resolves to {int(self.assembler.n_dof)}"
            )
        since = DOF_ORDER_SINCE[self.mesh.dim]
        if state.version < since:
            raise ConfigError(
                f"checkpoint {origin} is version {state.version}: its "
                f"{self.mesh.dim}D fields are in the DOF order before version "
                f"{since} changed it to entity numbering; refusing to resume"
            )
        return state

    def run(
        self,
        resume: str | Path | CheckpointState | None = None,
        perf: bool = False,
    ) -> SimulationResult:
        """Execute the configured simulation and collect the result.

        Every run — plain, checkpointed, health-guarded, fault-injected,
        resumed; one rank or many — is the same body: every stage and
        the solver plan resolved once (``metadata["build_seconds"]``),
        then an *attempt* (the plan bound to fresh buffers and a fresh
        mailbox world, newest restorable state, then
        :func:`repro.core.newmark.run_cycles`) under a
        :class:`~repro.runtime.supervisor.Supervisor`
        (``metadata["run_seconds"]``).  The default
        :class:`~repro.api.config.ResilienceSpec` switches every hook
        off (no restarts, no cadences, no faults), and a hook that is
        off costs nothing.  Per cycle the loop records the receiver row,
        then runs the health check, then writes the checkpoint — health
        before write, so a corrupted state is never persisted.

        ``resume`` restarts from a checkpoint file (or an in-memory
        :class:`~repro.runtime.checkpoint.CheckpointState`): the run
        continues at the saved cycle and produces the same result as an
        uninterrupted run, bitwise (checkpoints carry the exact
        replicas; :meth:`repro.core.newmark.Fields.start` holds the
        resume rule).  Resuming against a config whose content hash
        differs from the checkpoint's is a :class:`ConfigError`.  Each
        retry rebuilds the world at the next attempt index — so planned
        faults fire only in the attempt they name — and restores the
        newest checkpoint, falling back to the ``resume`` state or a
        cold start.

        ``perf=True`` brackets a few steady-state cycles with a
        :class:`~repro.core.workspace.HotPathTracer` and records hot-path
        evidence (steps/sec, net tracemalloc blocks per step, transient
        peak, pooled workspace footprint) of the successful attempt
        under ``metadata["perf"]``.  Tracing a short window perturbs
        only the traced cycles; results are unchanged.

        ``metadata["resilience"]`` (checkpoints written, attempts,
        recovery log, injected faults, health checks) is recorded when
        ``config.resilience`` enables anything or ``resume`` is given.
        """
        cfg = self.config
        res = cfg.resilience
        resilient = resume is not None or res.enabled
        t0 = time.perf_counter()
        sem = self.assembler
        dt, n_cycles = self._stepping
        force = self.force
        rec = self.receiver_dofs
        parts = self.parts
        n_ranks = cfg.partition.n_ranks
        health = self._health_guard(dt)
        plan = res.fault_plan()
        resume_state = None
        if resume is not None:
            resume_state = (
                resume
                if isinstance(resume, CheckpointState)
                else load_checkpoint(resume)
            )
            self._check_restorable(resume_state, resume)
        # Immutable, so resolved once, beside the other stages: a retry
        # re-binds (fresh buffers and mailbox world) and nothing else.
        solver_plan = self.solver_plan
        ckpt_dir = (
            Path(res.checkpoint_dir) if resilient and res.checkpoint_dir else None
        )
        written: list[Path] = []
        worlds: list[MailboxWorld] = []
        build_seconds = time.perf_counter() - t0

        def attempt(i: int):
            # Newest restorable state: a checkpoint this run (or a
            # previous attempt) wrote beats ``resume`` beats a cold start.
            state = resume_state
            if ckpt_dir is not None:
                path = latest_checkpoint(ckpt_dir)
                if path is not None:
                    newest = self._check_restorable(load_checkpoint(path), path)
                    if state is None or newest.cycle > state.cycle:
                        state = newest
            traces = None if rec is None else np.zeros((n_cycles, len(rec)))
            start = 0
            if state is not None:
                start = min(state.cycle, n_cycles)
                if traces is not None and state.traces is not None:
                    m = min(start, len(state.traces))
                    traces[:m] = state.traces[:m]
            # A fresh mailbox world per attempt: the one distributed-only line.
            world = {} if parts is None else {"world": (
                MailboxWorld(n_ranks) if plan is None else FaultyWorld(n_ranks, plan, attempt=i)
            )}
            worlds.extend(world.values())
            solver = solver_plan.bind(dt, force=force, **world)
            fields = Fields.start(solver_plan.replicas, state, rec)
            if state is not None:
                solver.restore(state.solver_state())

            def write_checkpoint(cycle, u, v):
                ckpt = CheckpointState(
                    cycle=cycle,
                    t=solver.t,
                    **fields.checkpoint_arrays(u, v),
                    traces=None if traces is None else traces[:cycle],
                    dt=dt,
                    n_cycles_total=n_cycles,
                    config_hash=cfg.content_hash(),
                )
                written.append(save_checkpoint(checkpoint_path(ckpt_dir, cycle), ckpt))
                prune_checkpoints(ckpt_dir, res.keep_checkpoints)

            todo = n_cycles - start
            tracer = (
                HotPathTracer(warmup=1, trace=min(4, todo - 1))
                if perf and todo >= 2
                else None
            )
            t_loop = time.perf_counter()
            try:
                u, v = run_cycles(
                    solver,
                    fields,
                    todo,
                    traces=traces,
                    health=health,
                    checkpoint_every=res.checkpoint_every,
                    on_checkpoint=write_checkpoint,
                    tracer=tracer,
                )
            finally:
                if tracer is not None:
                    tracer.close()
            perf_stats = None
            if tracer is not None:
                perf_stats = tracer.stats(
                    steps_per_second=todo / max(time.perf_counter() - t_loop, 1e-12),
                    steps_measured=todo,
                    workspace=solver.workspace_bytes(),
                ).as_dict()
            return u, v, traces, perf_stats

        supervisor = Supervisor(
            max_restarts=res.max_restarts, backoff_seconds=res.backoff_seconds
        )
        t1 = time.perf_counter()
        u, v, traces, perf_stats = supervisor.run(attempt)
        run_seconds = time.perf_counter() - t1

        metadata = {
            "name": cfg.name,
            "n_elements": int(self.mesh.n_elements),
            "n_dof": int(sem.n_dof),
            "n_levels": int(self.levels.n_levels),
            "scheme": cfg.time.scheme,
            "backend": cfg.backend.stiffness,
            "kernel_tier": self.kernel_tier(),
            "n_ranks": int(n_ranks),
            "build_seconds": build_seconds,
            "run_seconds": run_seconds,
        }
        if worlds:
            metadata["messages"] = int(worlds[-1].sent_messages)
            metadata["comm_volume"] = int(worlds[-1].sent_volume)
        if perf_stats is not None:
            metadata["perf"] = perf_stats
        if resilient:
            metadata["resilience"] = {
                "checkpoints_written": len(written),
                "resumed_from_cycle": (
                    int(resume_state.cycle) if resume_state is not None else None
                ),
                "attempts": len(supervisor.log) + 1,
                "recovery": supervisor.log,
                "faults_injected": [
                    f
                    for w in worlds
                    if isinstance(w, FaultyWorld)
                    for f in w.injected
                ],
                "health_checks": 0 if health is None else health.checks_run,
            }
        return SimulationResult(
            config=cfg,
            u=u,
            v=v,
            times=np.arange(1, n_cycles + 1) * dt,
            traces=traces,
            receiver_dofs=rec,
            levels=self.levels,
            dt=dt,
            n_cycles=n_cycles,
            parts=parts,
            metadata=metadata,
        )


def run(
    config: SimulationConfig | Mapping,
    resume: str | Path | CheckpointState | None = None,
) -> SimulationResult:
    """One-shot convenience: ``Simulation(config).run(resume=resume)``."""
    return Simulation(config).run(resume=resume)


def relative_deviation(a: SimulationResult, b: SimulationResult) -> float:
    """Maximal |a - b| over final fields and traces, relative to the
    peak |u| of ``a`` (the reference)."""
    scale = max(float(np.abs(a.u).max()), 1e-300)
    dev = float(np.abs(a.u - b.u).max())
    if a.traces is not None and b.traces is not None:
        dev = max(dev, float(np.abs(a.traces - b.traces).max()))
    return dev / scale
