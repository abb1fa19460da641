"""Parallel ensemble engine: N simulations, every common stage resolved once.

The workload the stage cache exists for: seismic practice rarely runs
*one* simulation — it runs an N-source sweep over the same model, a
material-perturbation study on the same mesh, a backend/timing matrix
over the same discretization.  All members share most of their
pipeline; the naive loop re-resolves it N times.

:class:`EnsembleSpec` declares the sweep as plain data: a ``base``
:class:`~repro.api.config.SimulationConfig` plus sweep axes — dotted
config paths with a list of values each — expanded into member configs
(cartesian ``product`` or aligned ``zip``).  :func:`run_ensemble`
executes them:

1. **group** members by shared stage content keys
   (:func:`repro.api.simulation.stage_key`);
2. **warm** the shared :class:`~repro.api.cache.StageCache` by
   resolving each *distinct* upstream artifact exactly once, in
   dependency order (mesh -> material -> assembler -> levels ->
   dof_level -> parts);
3. **run** each member through :func:`run_member` — the one job
   runner, shared with the service's workers — on a thread pool of
   width ``jobs``, every thread resolving through the same cache (the
   matrix-free kernels release the GIL for the bulk of a step) — streaming each
   :class:`~repro.api.simulation.SimulationResult` through
   ``on_result`` as it completes, with per-member timing and cache-hit
   metadata attached.

The CLI front-end is ``python -m repro ensemble sweep.json --jobs K
--cache-dir D --output-dir O``.
"""

from __future__ import annotations

import copy
import itertools
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping

from repro.api.cache import StageCache
from repro.api.config import (
    SimulationConfig,
    Spec,
    _freeze,
    _read_spec_file,
    _thaw,
)
from repro.api.simulation import STAGES, Simulation, SimulationResult
from repro.util.errors import ConfigError

__all__ = [
    "EnsembleSpec",
    "SweepSpec",
    "EnsembleResult",
    "run_ensemble",
    "run_member",
]

_MAX_MEMBERS = 100_000

#: Stages warmed (resolved once per distinct key) before the member
#: runs, in dependency order.
_WARM_STAGES = ("mesh", "material", "assembler", "levels", "dof_level", "parts")


@dataclass(frozen=True)
class SweepSpec(Spec):
    """One sweep axis: a dotted config path and the values it takes.

    ``path`` addresses a field of the base config through nested specs
    — ``"source.position"``, ``"material.rho"``, ``"time.scheme"``,
    ``"backend"`` (a whole section may be swept by giving mappings as
    values).  ``values`` is the non-empty list of settings; each
    expanded member must still validate as a full
    :class:`~repro.api.config.SimulationConfig`.
    """

    path: str
    values: tuple

    def __post_init__(self):
        if not isinstance(self.path, str) or not self.path:
            raise ConfigError(
                f"SweepSpec.path must be a dotted config path like "
                f"'source.position', got {self.path!r}"
            )
        if any(not seg for seg in self.path.split(".")):
            raise ConfigError(
                f"SweepSpec.path {self.path!r} has an empty segment"
            )
        values = _freeze(self.values)
        if not isinstance(values, tuple) or not values:
            raise ConfigError(
                f"SweepSpec.values for path {self.path!r} must be a "
                f"non-empty sequence"
            )
        self._set("values", values)

    def __hash__(self):
        from repro.api.config import _hashable

        return hash((self.path, _hashable(self.values)))


def _sweeps_from(value) -> tuple:
    return tuple(
        s if isinstance(s, SweepSpec) else SweepSpec.from_dict(s) for s in value
    )


def _set_path(data: dict, path: str, value) -> None:
    """Set ``path`` (dotted) inside the nested config dict ``data``."""
    segments = path.split(".")
    node = data
    for depth, seg in enumerate(segments[:-1]):
        child = node.get(seg)
        if not isinstance(child, dict):
            where = ".".join(segments[: depth + 1])
            raise ConfigError(
                f"sweep path {path!r} needs a {where!r} section in the "
                f"base config (add it with the unswept fields filled in)"
            )
        node = child
    node[segments[-1]] = value


@dataclass(frozen=True)
class EnsembleSpec(Spec):
    """A declarative simulation sweep: base config + sweep axes.

    ``mode="product"`` (default) expands the cartesian product of all
    axis values; ``mode="zip"`` pairs them index-by-index (all axes
    must then have equal lengths).  Member configs inherit everything
    else from ``base`` and get names ``<name>[<i>]``.

    JSON form (see ``examples/configs/ensemble_smoke.json``)::

        {
          "name": "source-sweep",
          "base": { ... a SimulationConfig ... },
          "mode": "zip",
          "sweeps": [
            {"path": "source.position", "values": [[2.0, 4.0], [3.0, 4.0]]}
          ]
        }
    """

    base: SimulationConfig
    sweeps: tuple
    mode: str = "product"
    name: str = ""

    _nested: ClassVar[dict] = {
        "base": SimulationConfig.from_dict,
        "sweeps": _sweeps_from,
    }

    def __post_init__(self):
        if isinstance(self.base, Mapping):
            self._set("base", SimulationConfig.from_dict(self.base))
        if not isinstance(self.base, SimulationConfig):
            raise ConfigError(
                f"EnsembleSpec.base must be a SimulationConfig (or a "
                f"mapping), got {type(self.base).__name__}"
            )
        self._set("sweeps", _sweeps_from(self.sweeps))
        if not self.sweeps:
            raise ConfigError(
                "EnsembleSpec.sweeps must declare at least one sweep axis"
            )
        if self.mode not in ("product", "zip"):
            raise ConfigError(
                f"unknown ensemble mode {self.mode!r}; "
                f"available: product, zip"
            )
        if self.mode == "zip":
            lengths = {len(s.values) for s in self.sweeps}
            if len(lengths) > 1:
                raise ConfigError(
                    f"EnsembleSpec(mode='zip') needs equal-length axes; "
                    f"got lengths {sorted(len(s.values) for s in self.sweeps)}"
                )
        n = self.n_members
        if n > _MAX_MEMBERS:
            raise ConfigError(
                f"ensemble expands to {n} members (> {_MAX_MEMBERS}); "
                f"split the sweep or use mode='zip'"
            )
        self._set("name", str(self.name))

    @property
    def n_members(self) -> int:
        """Number of member configs the sweep expands to."""
        if self.mode == "zip":
            return len(self.sweeps[0].values)
        n = 1
        for s in self.sweeps:
            n *= len(s.values)
        return n

    def expand(self) -> tuple[SimulationConfig, ...]:
        """The member configs, in sweep order (last axis fastest for
        ``product``); each one is fully validated."""
        if self.mode == "zip":
            combos = zip(*(s.values for s in self.sweeps))
        else:
            combos = itertools.product(*(s.values for s in self.sweeps))
        base = self.base.to_dict()
        prefix = self.name or self.base.name or "member"
        members = []
        for i, combo in enumerate(combos):
            data = copy.deepcopy(base)
            for sweep, value in zip(self.sweeps, combo):
                _set_path(data, sweep.path, _thaw(value))
            data["name"] = f"{prefix}[{i}]"
            try:
                members.append(SimulationConfig.from_dict(data))
            except ConfigError as e:
                raise ConfigError(
                    f"ensemble member {i} (sweep values "
                    f"{[_thaw(v) for v in combo]!r}) is invalid: {e}"
                ) from e
        return tuple(members)

    @classmethod
    def from_file(cls, path) -> "EnsembleSpec":
        """Load a sweep from a ``.json`` or ``.toml`` file (same formats
        as :meth:`SimulationConfig.from_file`)."""
        return cls.from_dict(_read_spec_file(path, "ensemble"))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class EnsembleResult:
    """Everything an ensemble run produces.

    ``members`` holds one :class:`SimulationResult` per member config,
    in expansion order; ``summary`` the run-level provenance — stage
    sharing (distinct keys per stage vs member count), cache traffic,
    wall times and throughput — the dict
    ``python -m repro ensemble`` prints and persists.
    """

    spec: EnsembleSpec | None
    configs: tuple[SimulationConfig, ...]
    members: list[SimulationResult]
    summary: dict
    cache: StageCache = field(repr=False, default=None)


def _attach_member_metadata(result, name, seconds, events) -> None:
    result.metadata["member"] = {
        "name": name,
        "seconds": seconds,
        "cache_hits": int(events.get("hits", 0)),
        "cache_misses": int(events.get("misses", 0)),
    }


def run_member(
    config: SimulationConfig | Mapping, cache: StageCache | None = None
) -> SimulationResult:
    """The one job runner: resolve ``config`` through ``cache``, run it,
    and return the result with the member provenance attached.

    Ensemble members and service jobs both run here, on their pool's
    threads, so ``result.metadata["member"]`` (``name``, wall
    ``seconds``, and this run's stage-cache ``cache_hits`` /
    ``cache_misses``) means the same thing everywhere.  ``config`` may
    be its dict form; ``cache=None`` runs uncached.
    """
    if isinstance(config, Mapping):
        config = SimulationConfig.from_dict(config)
    sim = Simulation(config, cache=cache)
    t = time.perf_counter()
    result = sim.run()
    _attach_member_metadata(
        result, config.name, time.perf_counter() - t, sim.cache_events
    )
    return result


def run_ensemble(
    spec,
    jobs: int = 1,
    cache: StageCache | None = None,
    on_result: Callable[[SimulationResult], None] | None = None,
) -> EnsembleResult:
    """Execute an ensemble with shared stage resolution (module docs).

    Parameters
    ----------
    spec:
        An :class:`EnsembleSpec` (or its mapping form), or a plain
        sequence of :class:`SimulationConfig` members.
    jobs:
        Thread-pool width; ``1`` runs the members one after another.
    cache:
        Shared :class:`StageCache` to resolve through (a fresh
        memory-only one when omitted; pass
        ``StageCache(cache_dir=...)`` to persist levels/parts).
    on_result:
        Streaming hook, called from the calling thread with each
        member's :class:`SimulationResult` as it completes (completion
        order, not member order).

    Raises the first member failure after cancelling outstanding work;
    cache-shared artifacts resolved before the failure stay warm.
    """
    if isinstance(spec, Mapping):
        spec = EnsembleSpec.from_dict(spec)
    if isinstance(spec, EnsembleSpec):
        configs = spec.expand()
        ens_spec = spec
    else:
        configs = tuple(
            c if isinstance(c, SimulationConfig) else SimulationConfig.from_dict(c)
            for c in spec
        )
        ens_spec = None
        if not configs:
            raise ConfigError("run_ensemble needs at least one member config")
    if int(jobs) < 1:
        raise ConfigError(f"run_ensemble jobs must be >= 1, got {jobs}")
    jobs = int(jobs)
    if cache is None:
        cache = StageCache()

    t0 = time.perf_counter()
    sims = [Simulation(cfg, cache=cache) for cfg in configs]

    # -- group + warm: each distinct upstream artifact exactly once ----
    sharing: dict[str, dict] = {}
    for stage in _WARM_STAGES:
        groups: dict[str, int] = {}
        for i, sim in enumerate(sims):
            if stage == "parts" and sim.config.partition.n_ranks == 1:
                continue
            groups.setdefault(sim.stage_key(stage), i)
        for key, i in groups.items():
            getattr(sims[i], stage)
        sharing[stage.lstrip("_")] = {
            "distinct": len(groups),
            "members": len(sims) if stage != "parts" else sum(
                1 for s in sims if s.config.partition.n_ranks > 1
            ),
        }
    warm_seconds = time.perf_counter() - t0

    # -- run the members ------------------------------------------------
    results: list[SimulationResult | None] = [None] * len(configs)

    def collect(i: int, result: SimulationResult) -> None:
        result.metadata["member"]["index"] = i
        if on_result is not None:
            on_result(result)
        results[i] = result

    t1 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(run_member, cfg, cache): i for i, cfg in enumerate(configs)
        }
        try:
            for f in as_completed(futures):
                collect(futures[f], f.result())
        finally:
            # Only bites when a member failed: drop the queued rest.
            for f in futures:
                f.cancel()
    run_seconds = time.perf_counter() - t1
    total = time.perf_counter() - t0

    stats = cache.stats
    summary = {
        "n_members": len(sims),
        "jobs": jobs,
        "warm_seconds": warm_seconds,
        "run_seconds": run_seconds,
        "total_seconds": total,
        "throughput_members_per_second": len(sims) / total if total > 0 else 0.0,
        "stage_sharing": sharing,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache": stats.as_dict(),
        "members": [
            None if r is None else dict(r.metadata.get("member", {}))
            for r in results
        ],
    }
    return EnsembleResult(
        spec=ens_spec,
        configs=configs,
        members=results,
        summary=summary,
        cache=cache,
    )
