"""Declarative simulation configuration: one validated object per run.

The paper's pipeline — mesh, material, Eq.-(7) wave speeds, CFL,
p-level assignment, partitioning, LTS-Newmark on the distributed
runtime — is fully generic over dimension, physics and material after
PRs 1-4, but wiring it by hand takes ~60 lines per scenario.  This
module turns the whole specification into plain data:

* every knob lives in one of seven small frozen dataclasses —
  :class:`MeshSpec`, :class:`MaterialSpec` (with declarative
  :class:`RegionSpec` overrides), :class:`SourceSpec`,
  :class:`ReceiverSpec`, :class:`TimeSpec`, :class:`PartitionSpec`,
  :class:`BackendSpec` — composed into a :class:`SimulationConfig`;
* every spec round-trips losslessly through plain dicts
  (``from_dict(to_dict(cfg)) == cfg``) and therefore through JSON/TOML
  files (:meth:`SimulationConfig.from_file` / :meth:`SimulationConfig
  .save`), so a config is equally at home in a Python script, a
  checked-in JSON file driven by ``python -m repro run``, or a service
  request body;
* validation is eager and actionable: unknown keys are rejected with
  the valid key list (and a did-you-mean hint), inadmissible values
  name the offending field and the accepted range, and every error is
  a :class:`repro.util.errors.ConfigError`.

Array-valued parameters (per-element material fields, Voigt stiffness
tensors, receiver positions) are stored as nested tuples — comparable,
hashable plain data — and converted from/to lists at the dict
boundary, which is what makes spec equality and JSON round-tripping
exact.  Every spec (and therefore a whole :class:`SimulationConfig`)
hashes consistently with equality, so configs can key caches directly.
:class:`repro.api.simulation.Simulation` resolves a config end-to-end.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from repro.mesh.generators import (
    BENCHMARK_FAMILIES,
    refined_interval,
    uniform_grid,
    uniform_interval,
)
from repro.partition.strategies import PARTITIONERS
from repro.runtime.faults import FaultEvent
from repro.sem.materials import (
    AnisotropicElastic,
    IsotropicAcoustic,
    IsotropicElastic,
    Material,
    VOIGT_SIZE,
)
from repro.util.errors import CommError, ConfigError


#: Mesh generator registry: the paper's benchmark families plus the
#: structured-grid primitives.  Params are validated against the
#: generator's signature, so the registry is the single source of truth.
MESH_FAMILIES: dict[str, Callable] = {
    "uniform_grid": uniform_grid,
    "uniform_interval": uniform_interval,
    "refined_interval": refined_interval,
    **BENCHMARK_FAMILIES,
}

#: Material models and the parameter fields each one accepts.
MATERIAL_MODELS: dict[str, tuple[str, ...]] = {
    "acoustic": ("c", "rho"),
    "elastic": ("lam", "mu", "rho"),
    "anisotropic_elastic": ("C", "rho"),
}

_SCHEMES = ("lts", "newmark")


def _freeze(value):
    """Recursively convert arrays/lists to nested tuples, NumPy scalars
    to Python numbers, and mappings to read-only views, so specs hold
    comparable plain data that cannot be mutated after validation."""
    if isinstance(value, np.ndarray):
        return _freeze(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, Mapping):
        return MappingProxyType({str(k): _freeze(v) for k, v in value.items()})
    return value


def _thaw(value):
    """Inverse boundary conversion for ``to_dict``: tuples -> lists."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    return value


def _hashable(value):
    """Hashable view of frozen spec data (dicts become sorted item
    tuples), so specs with mapping fields can still key caches."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, tuple):
        return tuple(_hashable(v) for v in value)
    return value


def _reject_unknown(keys, valid, where: str, noun: str = "key") -> None:
    """Raise on the first key outside ``valid``, with a did-you-mean
    hint and the accepted list — the shared shape of every unknown-name
    error in this module."""
    for key in keys:
        if key not in valid:
            hint = difflib.get_close_matches(str(key), list(valid), n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(
                f"unknown {noun} {key!r} in {where}{suggestion}; "
                f"valid {noun}s: {', '.join(valid)}"
            )


class Spec:
    """Base of every configuration dataclass: dict round-tripping with
    unknown-key rejection.  Subclasses list nested spec fields in
    ``_nested`` (field name -> converter applied by :meth:`from_dict`)."""

    _nested: ClassVar[dict[str, Callable]] = {}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Spec":
        """Build the spec from a plain mapping (e.g. parsed JSON/TOML),
        rejecting unknown keys with an actionable message."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__} expects a mapping, got {type(data).__name__}"
            )
        valid = [f.name for f in dataclasses.fields(cls) if f.init]
        _reject_unknown(data.keys(), valid, cls.__name__)
        kwargs = {}
        for key, value in data.items():
            conv = cls._nested.get(key)
            if conv is not None and value is not None:
                value = conv(value)
            kwargs[key] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-serializable); exact inverse of
        :meth:`from_dict`."""
        out = {}
        for f in dataclasses.fields(self):
            if not f.init:
                continue
            v = getattr(self, f.name)
            if isinstance(v, Spec):
                v = v.to_dict()
            elif isinstance(v, tuple) and v and all(isinstance(x, Spec) for x in v):
                v = [x.to_dict() for x in v]
            else:
                v = _thaw(v)
            out[f.name] = v
        return out

    def _set(self, name: str, value) -> None:
        """Normalize a field on a frozen dataclass (post-init only)."""
        object.__setattr__(self, name, value)

    def content_hash(self) -> str:
        """Stable per-spec digest: SHA-256 over the canonical
        (sorted-keys) JSON form of :meth:`to_dict`.

        Unlike ``hash()``, the digest is identical across processes and
        sessions, which is what lets resolved pipeline stages be
        *content-addressed*: :class:`repro.api.cache.StageCache` keys
        each stage on the sub-hashes of exactly the specs that
        determine it (see ``repro.api.simulation.STAGES``), so two
        configs that differ only downstream — a moved source, a
        different backend — share every upstream artifact.
        """
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def _as_spec(value, spec_cls, what: str):
    """Accept a spec instance or a raw mapping (converted on the fly)."""
    if isinstance(value, spec_cls):
        return value
    if isinstance(value, Mapping):
        return spec_cls.from_dict(value)
    raise ConfigError(
        f"{what} must be a {spec_cls.__name__} (or a mapping), "
        f"got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Mesh
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeshSpec(Spec):
    """Which mesh to build: a registered generator family plus its
    keyword parameters (validated against the generator signature).

    ``family`` is one of :data:`MESH_FAMILIES` — the paper's benchmark
    families (``trench``, ``embedding``, ``crust``, ``trench_big``) or
    the structured primitives (``uniform_grid``, ``uniform_interval``,
    ``refined_interval``).
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in MESH_FAMILIES:
            raise ConfigError(
                f"unknown mesh family {self.family!r}; "
                f"available: {', '.join(sorted(MESH_FAMILIES))}"
            )
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"MeshSpec.params must be a mapping of generator keyword "
                f"arguments, got {type(self.params).__name__}"
            )
        self._set("params", _freeze(dict(self.params)))
        sig = inspect.signature(MESH_FAMILIES[self.family])
        valid = [
            name
            for name, p in sig.parameters.items()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        _reject_unknown(
            self.params, valid, f"mesh family {self.family!r}", noun="parameter"
        )

    def __hash__(self):
        # The generated hash would choke on the params dict; hash its
        # frozen view instead (consistent with the generated __eq__).
        return hash((self.family, _hashable(self.params)))

    def build(self):
        """Construct the :class:`repro.mesh.Mesh`."""
        return MESH_FAMILIES[self.family](**self.params)


# ----------------------------------------------------------------------
# Material
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionSpec(Spec):
    """A declarative material override on a subset of elements.

    Exactly one selector: ``elements`` (explicit element ids) or
    ``box`` (per-axis ``(lo, hi)`` intervals tested against element
    centroids).  ``values`` maps material parameter names to the value
    to set on the selected elements (a scalar, or a Voigt matrix for
    ``C``).
    """

    values: dict
    elements: tuple | None = None
    box: tuple | None = None

    def __post_init__(self):
        if (self.elements is None) == (self.box is None):
            raise ConfigError(
                "RegionSpec needs exactly one selector: elements= "
                "(element ids) or box= (per-axis (lo, hi) intervals)"
            )
        if not isinstance(self.values, Mapping) or not self.values:
            raise ConfigError(
                "RegionSpec.values must be a non-empty mapping of "
                "material parameter -> value"
            )
        self._set("values", _freeze(dict(self.values)))
        if self.elements is not None:
            try:
                self._set("elements", tuple(int(e) for e in self.elements))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"RegionSpec.elements must be a sequence of element "
                    f"ids, got {self.elements!r}"
                ) from None
        if self.box is not None:
            box = _freeze(self.box)
            if not (
                isinstance(box, tuple)
                and box
                and all(
                    isinstance(iv, tuple)
                    and len(iv) == 2
                    and all(isinstance(x, (int, float)) for x in iv)
                    for iv in box
                )
            ):
                raise ConfigError(
                    "RegionSpec.box must be a sequence of per-axis "
                    "(lo, hi) pairs, e.g. [[0, 8], [0, 6], [0, 1.25]]"
                )
            for lo, hi in box:
                if not lo <= hi:
                    raise ConfigError(
                        f"RegionSpec.box interval ({lo}, {hi}) has lo > hi"
                    )
            self._set("box", box)

    def __hash__(self):
        # The values dict needs its frozen view (see MeshSpec.__hash__).
        return hash((_hashable(self.values), self.elements, self.box))

    def mask(self, mesh) -> np.ndarray:
        """Boolean element mask of this region on ``mesh``."""
        if self.elements is not None:
            ids = np.asarray(self.elements, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_elements):
                raise ConfigError(
                    f"RegionSpec.elements contains id "
                    f"{int(ids.min() if ids.min() < 0 else ids.max())} "
                    f"outside [0, {mesh.n_elements}) for mesh "
                    f"{mesh.name!r}"
                )
            m = np.zeros(mesh.n_elements, dtype=bool)
            m[ids] = True
            return m
        if len(self.box) != mesh.dim:
            raise ConfigError(
                f"RegionSpec.box has {len(self.box)} axis intervals but "
                f"the mesh is {mesh.dim}D"
            )
        cent = mesh.coords[mesh.elements].mean(axis=1)
        m = np.ones(mesh.n_elements, dtype=bool)
        for axis, (lo, hi) in enumerate(self.box):
            m &= (cent[:, axis] >= lo) & (cent[:, axis] <= hi)
        return m


def _regions_from(value) -> tuple:
    return tuple(
        r if isinstance(r, RegionSpec) else RegionSpec.from_dict(r) for r in value
    )


@dataclass(frozen=True)
class MaterialSpec(Spec):
    """Constitutive model and parameters (see
    :mod:`repro.sem.materials` for admissibility rules).

    * ``model="acoustic"`` — wave speed ``c`` (``None`` keeps the
      mesh's per-element ``c``) and density ``rho``;
    * ``model="elastic"`` — Lamé ``lam``/``mu`` and ``rho``;
    * ``model="anisotropic_elastic"`` — Voigt stiffness ``C`` (one
      ``(nv, nv)`` matrix or one per element) and ``rho``.

    Parameters are scalars or per-element sequences; ``regions`` apply
    declarative overrides (stiff intrusions, fast inclusions, TTI
    layers) on top of the background values.
    """

    model: str = "acoustic"
    c: Any = None
    rho: Any = 1.0
    lam: Any = None
    mu: Any = None
    C: Any = None
    regions: tuple = ()

    _nested = {"regions": _regions_from}

    def __post_init__(self):
        if self.model not in MATERIAL_MODELS:
            raise ConfigError(
                f"unknown material model {self.model!r}; "
                f"available: {', '.join(MATERIAL_MODELS)}"
            )
        allowed = MATERIAL_MODELS[self.model]
        for name in ("c", "lam", "mu", "C"):
            self._set(name, _freeze(getattr(self, name)))
            if name not in allowed and getattr(self, name) is not None:
                raise ConfigError(
                    f"MaterialSpec(model={self.model!r}) does not take "
                    f"{name!r}; its parameters are: {', '.join(allowed)}"
                )
        self._set("rho", _freeze(self.rho))
        self._set("regions", _regions_from(self.regions))
        for region in self.regions:
            for key in region.values:
                if key not in allowed:
                    raise ConfigError(
                        f"region override {key!r} is not a parameter of "
                        f"material model {self.model!r} "
                        f"(valid: {', '.join(allowed)})"
                    )
        if self.model == "anisotropic_elastic" and self.C is None:
            raise ConfigError(
                "MaterialSpec(model='anisotropic_elastic') requires C= "
                "(a Voigt stiffness matrix, or one per element)"
            )

    # ------------------------------------------------------------------
    def _expand(self, name: str, value, default, n: int, trailing=()) -> np.ndarray:
        v = default if value is None else value
        a = np.asarray(v, dtype=np.float64)
        target = (n,) + trailing
        if a.shape == trailing:
            return np.broadcast_to(a, target).copy()
        if a.shape == target:
            return a.copy()
        raise ConfigError(
            f"MaterialSpec.{name} must be a single value of shape "
            f"{trailing or 'scalar'} or per-element of shape {target}; "
            f"got shape {a.shape}"
        )

    def build(self, mesh) -> Material:
        """Resolve against ``mesh``: broadcast parameters per element,
        apply region overrides, and construct the validated
        :class:`repro.sem.materials.Material`."""
        n = mesh.n_elements
        if self.model != "acoustic" and mesh.dim not in VOIGT_SIZE:
            raise ConfigError(
                f"{self.model} materials need a 2D or 3D mesh, got dim={mesh.dim}"
            )
        if self.model == "acoustic":
            params = {
                "c": np.array(mesh.c, dtype=np.float64)
                if self.c is None
                else self._expand("c", self.c, None, n),
                "rho": self._expand("rho", self.rho, 1.0, n),
            }
        elif self.model == "elastic":
            params = {
                "lam": self._expand("lam", self.lam, 1.0, n),
                "mu": self._expand("mu", self.mu, 1.0, n),
                "rho": self._expand("rho", self.rho, 1.0, n),
            }
        else:
            nv = VOIGT_SIZE[mesh.dim]
            params = {
                "C": self._expand("C", self.C, None, n, trailing=(nv, nv)),
                "rho": self._expand("rho", self.rho, 1.0, n),
            }
        for i, region in enumerate(self.regions):
            m = region.mask(mesh)
            if not m.any():
                raise ConfigError(
                    f"material region #{i} selects no elements on mesh "
                    f"{mesh.name!r} ({mesh.n_elements} elements); check "
                    f"its box/element selector"
                )
            for key, value in region.values.items():
                params[key][m] = np.asarray(value, dtype=np.float64)
        if self.model == "acoustic":
            return IsotropicAcoustic(**params)
        if self.model == "elastic":
            return IsotropicElastic(**params)
        return AnisotropicElastic(**params)


# ----------------------------------------------------------------------
# Source / receivers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceSpec(Spec):
    """A Ricker-wavelet point source at the DOF nearest ``position``.

    ``component`` selects the displacement component for vector physics
    (0 = x; must be 0 for scalar acoustic).  ``t0`` defaults to
    ``1.2 / f0`` (see :func:`repro.sem.sources.ricker`).
    """

    position: tuple
    f0: float = 1.0
    t0: float | None = None
    amplitude: float = 1.0
    component: int = 0
    kind: str = "ricker"

    def __post_init__(self):
        if self.kind != "ricker":
            raise ConfigError(
                f"unknown source kind {self.kind!r}; available: ricker"
            )
        pos = _freeze(self.position)
        if not (
            isinstance(pos, tuple)
            and pos
            and all(isinstance(x, (int, float)) for x in pos)
        ):
            raise ConfigError(
                f"SourceSpec.position must be a coordinate sequence, "
                f"got {self.position!r}"
            )
        self._set("position", tuple(float(x) for x in pos))
        if not np.isfinite(self.position).all():
            raise ConfigError(f"SourceSpec.position must be finite, got {self.position}")
        if not self.f0 > 0:
            raise ConfigError(f"SourceSpec.f0 must be > 0, got {self.f0}")
        if int(self.component) < 0:
            raise ConfigError(
                f"SourceSpec.component must be >= 0, got {self.component}"
            )
        self._set("component", int(self.component))


@dataclass(frozen=True)
class ReceiverSpec(Spec):
    """Receiver line: displacement traces recorded once per LTS cycle
    at the DOFs nearest ``positions`` (one ``component`` for all)."""

    positions: tuple
    component: int = 0

    def __post_init__(self):
        pos = _freeze(self.positions)
        if not (isinstance(pos, tuple) and pos):
            raise ConfigError(
                "ReceiverSpec.positions must be a non-empty sequence of "
                "coordinate points"
            )
        norm = []
        for i, p in enumerate(pos):
            if not (
                isinstance(p, tuple)
                and p
                and all(isinstance(x, (int, float)) for x in p)
            ):
                raise ConfigError(
                    f"each receiver position must be a coordinate "
                    f"sequence, got {p!r}"
                )
            norm.append(tuple(float(x) for x in p))
            if not np.isfinite(norm[i]).all():
                raise ConfigError(f"ReceiverSpec.positions[{i}] must be finite, got {norm[i]}")
        self._set("positions", tuple(norm))
        if int(self.component) < 0:
            raise ConfigError(
                f"ReceiverSpec.component must be >= 0, got {self.component}"
            )
        self._set("component", int(self.component))


# ----------------------------------------------------------------------
# Time stepping / partitioning / backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimeSpec(Spec):
    """Time integration: duration, CFL constant and scheme.

    Exactly one of ``n_cycles`` (run that many coarse LTS cycles) or
    ``t_end`` (run to that time; the step is shrunk to land on it
    exactly).  ``scheme="lts"`` steps each p-level at its own rate;
    ``scheme="newmark"`` is the non-LTS baseline — every DOF at the
    finest stable step (the bottleneck the paper removes).  The two
    schemes always cover the same physical duration: ``n_cycles``
    counts coarse-cycle *spans*, so the newmark baseline takes
    ``p_max`` fine steps per cycle.
    """

    n_cycles: int | None = None
    t_end: float | None = None
    c_cfl: float = 0.5
    scheme: str = "lts"
    max_levels: int | None = None

    def __post_init__(self):
        if (self.n_cycles is None) == (self.t_end is None):
            raise ConfigError(
                "TimeSpec needs exactly one of n_cycles= (cycle count) "
                "or t_end= (simulated duration)"
            )
        if self.n_cycles is not None:
            if int(self.n_cycles) < 1:
                raise ConfigError(
                    f"TimeSpec.n_cycles must be >= 1, got {self.n_cycles}"
                )
            self._set("n_cycles", int(self.n_cycles))
        if self.t_end is not None:
            if not float(self.t_end) > 0:
                raise ConfigError(
                    f"TimeSpec.t_end must be > 0, got {self.t_end}"
                )
            self._set("t_end", float(self.t_end))
        if not self.c_cfl > 0:
            raise ConfigError(f"TimeSpec.c_cfl must be > 0, got {self.c_cfl}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; "
                f"available: {', '.join(_SCHEMES)}"
            )
        if self.max_levels is not None and int(self.max_levels) < 1:
            raise ConfigError(
                f"TimeSpec.max_levels must be >= 1, got {self.max_levels}"
            )


@dataclass(frozen=True)
class PartitionSpec(Spec):
    """Domain decomposition: rank count and partitioning strategy.

    ``n_ranks=1`` runs the serial solver; more ranks run the mailbox
    distributed executors on a partition from the named strategy (a key
    of :data:`repro.partition.PARTITIONERS` — the paper's Sec. III-B
    comparison; ``"SCOTCH-P"`` is the per-level LTS-aware one).
    """

    n_ranks: int = 1
    strategy: str = "SCOTCH-P"
    seed: int = 0

    def __post_init__(self):
        if int(self.n_ranks) < 1:
            raise ConfigError(
                f"PartitionSpec.n_ranks must be >= 1, got {self.n_ranks}"
            )
        self._set("n_ranks", int(self.n_ranks))
        if self.strategy not in PARTITIONERS:
            raise ConfigError(
                f"unknown partition strategy {self.strategy!r}; "
                f"available: {', '.join(PARTITIONERS)}"
            )
        self._set("seed", int(self.seed))


@dataclass(frozen=True)
class BackendSpec(Spec):
    """Stiffness-application backend (see README "Performance
    architecture"): ``stiffness`` accepts only ``"matfree"``
    (sum-factorization, no matrix; fused wherever that tier loads).
    ``fused`` toggles the fused C element kernels (``None`` = auto).
    ``threads`` is the OpenMP thread count of the fused kernels' element
    loop: ``None`` = serial, ``0`` = auto-detect the CPUs available to
    the process, ``N >= 1`` = that many threads.  The NumPy tier is
    serial, so ``fused=False`` with ``threads`` above 1 (or 0) names a
    tier that does not exist and is rejected; with ``fused=None`` the
    run reports the tier it got (``Simulation.kernel_tier``).
    """

    stiffness: str = "matfree"
    fused: bool | None = None
    threads: int | None = None

    def __post_init__(self):
        if self.stiffness != "matfree":
            raise ConfigError(
                f"unknown stiffness backend {self.stiffness!r}; the only "
                f"backend is 'matfree'"
            )
        if self.fused is not None:
            self._set("fused", bool(self.fused))
        if self.threads is not None:
            if isinstance(self.threads, bool) or not isinstance(self.threads, int):
                raise ConfigError(
                    f"BackendSpec.threads must be an integer >= 0 or None "
                    f"(0 = auto-detect), got {self.threads!r}"
                )
            if self.threads < 0:
                raise ConfigError(
                    f"BackendSpec.threads must be >= 0 (0 = auto-detect), "
                    f"got {self.threads}"
                )
            if self.fused is False and self.threads != 1:
                raise ConfigError(
                    f"BackendSpec.threads={self.threads} applies to the fused "
                    f"tier only (the NumPy tier is serial); drop fused=False "
                    f"or leave threads=None"
                )


def _faults_from(value) -> tuple:
    try:
        return tuple(
            e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
            for e in value
        )
    except CommError as e:
        raise ConfigError(f"invalid ResilienceSpec fault event: {e}") from None


@dataclass(frozen=True)
class ResilienceSpec(Spec):
    """Fault-tolerance knobs: checkpointing, supervised restarts,
    numerical health checks, and (for testing) fault injection.

    * ``checkpoint_every`` / ``checkpoint_dir`` — write an atomic
      ``.npz`` checkpoint every that many LTS cycles into the
      directory (created on demand), keeping the ``keep_checkpoints``
      newest; resume with ``Simulation.run(resume=...)`` or
      ``python -m repro run --resume <ckpt>``.
    * ``max_restarts`` / ``backoff_seconds`` — run under a
      :class:`repro.runtime.supervisor.Supervisor`: on a rank failure,
      lost message, or numerical blow-up, rebuild the world, restore
      the latest checkpoint and retry (exponential backoff), at most
      ``max_restarts`` times.
    * ``health_check_every`` / ``energy_factor`` — run a
      :class:`repro.core.health.HealthGuard` every that many cycles:
      NaN/Inf detection with element-level diagnostics, plus an
      optional energy-growth bound (see the guard's docs for when to
      enable it).
    * ``faults`` — a deterministic
      :class:`repro.runtime.faults.FaultPlan` executed by the mailbox
      world (rank crashes, dropped/duplicated/bit-flipped messages);
      needs a multi-rank partition.  This is how recovery paths are
      *tested* rather than hoped for.
    """

    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None
    keep_checkpoints: int = 3
    max_restarts: int = 0
    backoff_seconds: float = 0.0
    health_check_every: int | None = None
    energy_factor: float | None = None
    faults: tuple = ()

    _nested = {"faults": _faults_from}

    def __post_init__(self):
        if self.checkpoint_every is not None:
            if int(self.checkpoint_every) < 1:
                raise ConfigError(
                    f"ResilienceSpec.checkpoint_every must be >= 1, "
                    f"got {self.checkpoint_every}"
                )
            self._set("checkpoint_every", int(self.checkpoint_every))
            if self.checkpoint_dir is None:
                raise ConfigError(
                    "ResilienceSpec.checkpoint_every needs checkpoint_dir= "
                    "(where to write the .npz checkpoints)"
                )
        if self.checkpoint_dir is not None:
            self._set("checkpoint_dir", str(self.checkpoint_dir))
        if int(self.keep_checkpoints) < 1:
            raise ConfigError(
                f"ResilienceSpec.keep_checkpoints must be >= 1, "
                f"got {self.keep_checkpoints}"
            )
        self._set("keep_checkpoints", int(self.keep_checkpoints))
        if int(self.max_restarts) < 0:
            raise ConfigError(
                f"ResilienceSpec.max_restarts must be >= 0, "
                f"got {self.max_restarts}"
            )
        self._set("max_restarts", int(self.max_restarts))
        if not self.backoff_seconds >= 0:
            raise ConfigError(
                f"ResilienceSpec.backoff_seconds must be >= 0, "
                f"got {self.backoff_seconds}"
            )
        self._set("backoff_seconds", float(self.backoff_seconds))
        if self.health_check_every is not None:
            if int(self.health_check_every) < 1:
                raise ConfigError(
                    f"ResilienceSpec.health_check_every must be >= 1, "
                    f"got {self.health_check_every}"
                )
            self._set("health_check_every", int(self.health_check_every))
        if self.energy_factor is not None:
            if not self.energy_factor > 1:
                raise ConfigError(
                    f"ResilienceSpec.energy_factor must be > 1, "
                    f"got {self.energy_factor}"
                )
            if self.health_check_every is None:
                raise ConfigError(
                    "ResilienceSpec.energy_factor needs health_check_every= "
                    "(the energy guard runs on the health-check cadence)"
                )
            self._set("energy_factor", float(self.energy_factor))
        try:
            self._set("faults", _faults_from(self.faults))
        except TypeError:
            raise ConfigError(
                f"ResilienceSpec.faults must be a sequence of fault-event "
                f"mappings, got {self.faults!r}"
            ) from None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["faults"] = [e.to_dict() for e in self.faults]
        return out

    @property
    def enabled(self) -> bool:
        """Whether any resilience machinery is switched on."""
        return (
            self.checkpoint_every is not None
            or self.health_check_every is not None
            or self.max_restarts > 0
            or bool(self.faults)
        )

    def fault_plan(self):
        """The configured :class:`repro.runtime.faults.FaultPlan`, or
        ``None`` when no faults are declared."""
        if not self.faults:
            return None
        from repro.runtime.faults import FaultPlan

        return FaultPlan(self.faults)


# ----------------------------------------------------------------------
# The top-level config
# ----------------------------------------------------------------------
def _read_spec_file(path, noun: str) -> dict:
    """Parse a ``.json`` / ``.toml`` spec file into its top-level
    mapping; every failure is a :class:`ConfigError` naming ``noun``
    (``"config"``, ``"ensemble"``, ``"job"``) or the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{noun} file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    elif suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - py < 3.11
            alt = {"ensemble": "sweep", "job": "file"}.get(noun, noun)
            raise ConfigError(
                f"TOML configs require Python 3.11+ (tomllib); "
                f"use a JSON {alt} instead"
            ) from None
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as e:
            raise ConfigError(f"{path} is not valid TOML: {e}") from e
    else:
        raise ConfigError(
            f"unsupported {noun} format {suffix!r} for {path}; "
            f"expected .json or .toml"
        )
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON/TOML object")
    return data


@dataclass(frozen=True)
class SimulationConfig(Spec):
    """The complete declarative specification of one simulation:
    mesh -> material -> discretization -> source/receivers -> time
    stepping -> partition -> backend.

    Nested fields accept either spec instances or raw mappings (handy
    when building configs inline); :meth:`from_file` loads JSON or TOML.
    Resolve and run with :class:`repro.api.simulation.Simulation`.
    """

    mesh: MeshSpec
    time: TimeSpec
    material: MaterialSpec = field(default_factory=MaterialSpec)
    order: int = 4
    dirichlet: bool = False
    source: SourceSpec | None = None
    receivers: ReceiverSpec | None = None
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    name: str = ""

    _nested = {
        "mesh": MeshSpec.from_dict,
        "time": TimeSpec.from_dict,
        "material": MaterialSpec.from_dict,
        "source": SourceSpec.from_dict,
        "receivers": ReceiverSpec.from_dict,
        "partition": PartitionSpec.from_dict,
        "backend": BackendSpec.from_dict,
        "resilience": ResilienceSpec.from_dict,
    }

    def __post_init__(self):
        self._set("mesh", _as_spec(self.mesh, MeshSpec, "SimulationConfig.mesh"))
        self._set("time", _as_spec(self.time, TimeSpec, "SimulationConfig.time"))
        self._set(
            "material",
            _as_spec(self.material, MaterialSpec, "SimulationConfig.material"),
        )
        if self.source is not None:
            self._set(
                "source", _as_spec(self.source, SourceSpec, "SimulationConfig.source")
            )
        if self.receivers is not None:
            self._set(
                "receivers",
                _as_spec(self.receivers, ReceiverSpec, "SimulationConfig.receivers"),
            )
        self._set(
            "partition",
            _as_spec(self.partition, PartitionSpec, "SimulationConfig.partition"),
        )
        self._set(
            "backend", _as_spec(self.backend, BackendSpec, "SimulationConfig.backend")
        )
        self._set(
            "resilience",
            _as_spec(
                self.resilience, ResilienceSpec, "SimulationConfig.resilience"
            ),
        )
        if self.resilience.faults and self.partition.n_ranks < 2:
            raise ConfigError(
                "ResilienceSpec.faults inject communication faults and "
                "need a multi-rank run; set partition.n_ranks >= 2"
            )
        if int(self.order) < 1:
            raise ConfigError(
                f"SimulationConfig.order must be >= 1, got {self.order}"
            )
        self._set("order", int(self.order))
        self._set("dirichlet", bool(self.dirichlet))
        self._set("name", str(self.name))

    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable digest of everything that determines the *physics* of
        the computed solution.

        SHA-256 over the canonical (sorted-keys) JSON form, excluding:

        * ``name`` — a label;
        * ``resilience`` — checkpoint cadence, restart budgets and
          injected test faults change *how* a run executes, not what it
          converges to;
        * ``backend`` — the fused-kernel choice and thread count select
          an execution plan (a kernel tier) for the same discrete
          operator; tier parity is asserted at machine precision by the
          test suite, so a checkpoint written under ``threads=None``
          resumes cleanly under ``threads=2`` (or on the other tier)
          instead of being rejected for a physics-irrelevant
          difference.

        Unlike ``hash()``, the digest is stable across processes, which
        is what lets a checkpoint file reject a restore against a
        genuinely different configuration.  Stage-cache keys do *not*
        use this digest — they compose per-spec sub-hashes
        (:meth:`Spec.content_hash`) per pipeline stage.
        """
        data = self.to_dict()
        data.pop("name", None)
        data.pop("resilience", None)
        data.pop("backend", None)
        return hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()
        ).hexdigest()

    @classmethod
    def from_file(cls, path) -> "SimulationConfig":
        """Load a config from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(_read_spec_file(path, "config"))

    def save(self, path) -> None:
        """Write the config as pretty-printed JSON (atomically — a
        killed process leaves the old file or the new one, never a
        truncated config)."""
        from repro.util.io import atomic_write_text

        path = Path(path)
        if path.suffix.lower() != ".json":
            raise ConfigError(
                f"SimulationConfig.save writes JSON; got {path.suffix!r}"
            )
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
