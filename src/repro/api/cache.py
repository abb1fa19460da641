"""Content-addressed cache for resolved pipeline stages.

The paper's central economics: setup (mesh construction, stiffness
assembly, level assignment, partitioning, the per-level element and
halo lists of the solver) is expensive and amortized, the per-step hot
loop is cheap and repeated.  The façade re-resolved
every stage per :class:`~repro.api.config.SimulationConfig` even when
two configs differ only in the source position or a material
perturbation — exactly the N-source / perturbed-material ensembles the
ROADMAP names as the killer workload.

:class:`StageCache` closes that gap.  Every pipeline stage of
:class:`repro.api.simulation.Simulation` gets a deterministic *content
key* composed from the per-spec sub-hashes of exactly the specs that
determine it (``Spec.content_hash()``, see
``repro.api.simulation.STAGES`` for the dependency table), and resolved
artifacts are stored under that key:

* **in memory** — an LRU keyed store bounded by entry count and/or an
  approximate byte budget (every array buffer an artifact holds,
  however deep — a solver plan's sit behind closures — measured exactly
  by :func:`repro.core.workspace.reachable_buffers` and charged to the
  first entry that holds it), shared safely across threads: per-key
  build locks guarantee each distinct artifact is resolved **exactly
  once** even when ensemble workers race for it.  The rank layout and
  the solver plan live here too (the latest of each only, see
  ``_LATEST_ONLY``) — a run only binds the plan to fresh buffers, so the
  second request for a warm model pays for the stepping alone;
* **on disk** (optional) — the expensive array-backed artifacts
  (LTS level assignments, partition vectors)
  persist as ``.npz`` files written atomically via
  :func:`repro.util.io.atomic_savez`, so a later invocation, a
  restarted server or a second process on the same host warm-starts
  from a prior run.  A key mismatch or an unreadable/truncated file is treated as a
  miss (the bad file is removed and the artifact recomputed), never a
  crash.

Keys are content hashes: changing any upstream spec field changes the
key, so invalidation is automatic — there is no TTL and no manual
flush (``clear()`` exists for tests).  The ``stats`` counters (hits,
misses, evictions, disk traffic, per-stage resolution counts) are the
observability hook the ensemble engine and the parity checks assert
against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.workspace import reachable_buffers
from repro.util.errors import ConfigError
from repro.util.io import atomic_savez

__all__ = ["CacheStats", "StageCache"]

#: Stages memory keeps one entry of, the latest: execution plans are the
#: largest artifacts and the cheapest to rebuild from the entries they
#: are built on.  A sweep or a service's warm model reuses exactly the
#: latest; a cache that alternates between two models rebuilds the plan
#: per job (what every job paid before plans were cached) instead of
#: growing by a plan per model, scheme and backend it has ever seen.
_LATEST_ONLY = frozenset({"rank_layout", "solver_plan"})


@dataclass
class CacheStats:
    """Observability counters of a :class:`StageCache`.

    ``resolutions`` counts *builds* per stage label — the hook the
    exactly-once guarantees are asserted against: after any number of
    :meth:`repro.api.simulation.Simulation.variant` runs through one
    cache the assembler stage must show ``resolutions["assembler"] ==
    1``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_rejects: int = 0
    resolutions: dict = field(default_factory=dict)

    def count_resolution(self, stage: str) -> None:
        self.resolutions[stage] = self.resolutions.get(stage, 0) + 1

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_rejects": self.disk_rejects,
            "resolutions": dict(self.resolutions),
        }


class StageCache:
    """Keyed store of resolved pipeline stages (see module docs).

    Parameters
    ----------
    max_entries:
        LRU bound on the number of in-memory entries (``None`` =
        unbounded).
    max_bytes:
        LRU bound on the approximate total payload bytes (``None`` =
        unbounded).  The most recently inserted entry always survives,
        so a single artifact larger than the budget still caches (and
        evicts everything else).
    cache_dir:
        Directory for on-disk persistence (created on demand).  Only
        stages that provide a ``pack``/``unpack`` codec persist; the
        rest stay memory-only.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        cache_dir: str | Path | None = None,
    ):
        if max_entries is not None and int(max_entries) < 1:
            raise ConfigError(
                f"StageCache.max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes is not None and int(max_bytes) < 1:
            raise ConfigError(
                f"StageCache.max_bytes must be >= 1, got {max_bytes}"
            )
        self.max_entries = None if max_entries is None else int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: key -> (artifact, bytes charged, stage, ids of the buffers charged)
        self._entries: OrderedDict[str, tuple[Any, int, str, Any]] = OrderedDict()
        self._bytes = 0
        self._charged: set[int] = set()  # buffers some live entry is charged for
        self._key_locks: dict[str, threading.Lock] = {}

    # -- in-memory LRU --------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate total payload bytes currently held in memory."""
        return self._bytes

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left alone)."""
        with self._lock:
            self._entries.clear()
            self._charged.clear()
            self._bytes = 0

    def _evict(self, key: str) -> None:
        _, size, _, buffers = self._entries.pop(key)
        self._bytes -= size
        self._charged.difference_update(buffers)
        self.stats.evictions += 1

    def _evict_stage(self, stage: str) -> None:
        """Of a latest-only stage, drop what memory holds."""
        if stage in _LATEST_ONLY:
            for k in [k for k, e in self._entries.items() if e[2] == stage]:
                self._evict(k)

    def _store(self, key: str, obj: Any, stage: str) -> None:
        buffers = reachable_buffers(obj)
        with self._lock:
            if key in self._entries:
                self._evict(key)
            self._evict_stage(stage)
            # An artifact shares arrays with the entries it was built on
            # (a plan's operator reads the assembler's tables): each
            # buffer is charged once, to the first entry holding it.
            own = {i: n for i, n in buffers.items() if i not in self._charged}
            self._charged.update(own)
            size = sum(own.values())
            self._entries[key] = (obj, size, stage, own.keys())
            self._bytes += size
            while self._entries and len(self._entries) > 1:
                over_n = (
                    self.max_entries is not None
                    and len(self._entries) > self.max_entries
                )
                over_b = self.max_bytes is not None and self._bytes > self.max_bytes
                if not (over_n or over_b):
                    break
                self._evict(next(iter(self._entries)))

    def _lookup(self, key: str) -> tuple[bool, Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True, self._entries[key][0]
            return False, None

    def _build_lock(self, key: str) -> threading.Lock:
        with self._lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    # -- disk layer -----------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        # Keys are "<stage>:<hex digest>" — filesystem-safe by
        # construction; keep the stage prefix readable in listings.
        return self.cache_dir / f"{key.replace(':', '-')}.npz"

    def _disk_load(self, key: str, unpack: Callable[[dict], Any]) -> Any | None:
        """Restore an artifact from disk, or ``None`` on any defect.

        A truncated archive, an unreadable zip, a missing field, or a
        stored key that does not match all count as a miss: the file is
        removed and the caller recomputes — a corrupted cache must
        never take a run down or, worse, hand back the wrong artifact.
        """
        path = self._disk_path(key)
        if not path.is_file():
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                if str(archive["__key__"]) != key:
                    raise ValueError("stage-cache key mismatch")
                payload = {
                    name: archive[name]
                    for name in archive.files
                    if name != "__key__"
                }
            obj = unpack(payload)
        except Exception:
            # Includes zipfile.BadZipFile, KeyError, ValueError, OSError
            # — anything short of a healthy archive.
            self.stats.disk_rejects += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.disk_hits += 1
        return obj

    def _disk_store(self, key: str, payload: dict) -> None:
        bad = [k for k, v in payload.items() if not isinstance(v, np.ndarray)]
        if bad:
            raise ConfigError(
                f"stage-cache pack() must return ndarray values; got "
                f"non-array fields {bad}"
            )
        atomic_savez(self._disk_path(key), __key__=np.array(key), **payload)
        self.stats.disk_writes += 1

    # -- the resolve ----------------------------------------------------
    def get_or_create(
        self,
        key: str,
        build: Callable[[], Any],
        *,
        stage: str = "stage",
        pack: Callable[[Any], dict] | None = None,
        unpack: Callable[[dict], Any] | None = None,
        events: dict | None = None,
    ) -> Any:
        """The cached resolve: memory hit, else disk hit, else build.

        ``pack``/``unpack`` enable the disk layer for this artifact
        (``pack(obj) -> dict[str, ndarray]``, ``unpack(dict) -> obj``);
        both must be given together.  ``events`` is an optional
        per-caller counter dict — ``{"hits": n, "misses": n}`` is
        accumulated into it, which is how ensemble members report
        per-member cache traffic without racing on the shared stats.
        Of a ``stage`` in ``_LATEST_ONLY`` memory keeps the latest entry.

        Concurrent callers with the same key serialize on a per-key
        build lock, so each distinct artifact is built exactly once;
        callers with different keys never block each other (beyond the
        microscopic LRU bookkeeping lock).
        """
        if (pack is None) != (unpack is None):
            raise ConfigError(
                "StageCache.get_or_create needs pack= and unpack= "
                "together (or neither)"
            )
        found, obj = self._lookup(key)
        if found:
            self.stats.hits += 1
            if events is not None:
                events["hits"] = events.get("hits", 0) + 1
            return obj
        with self._build_lock(key):
            # Double-check under the build lock: a racing caller may
            # have resolved the key while we waited.
            found, obj = self._lookup(key)
            if found:
                self.stats.hits += 1
                if events is not None:
                    events["hits"] = events.get("hits", 0) + 1
                return obj
            self.stats.misses += 1
            if events is not None:
                events["misses"] = events.get("misses", 0) + 1
            if self.cache_dir is not None and unpack is not None:
                restored = self._disk_load(key, unpack)
                if restored is not None:
                    self._store(key, restored, stage)
                    return restored
            self.stats.count_resolution(stage)
            with self._lock:  # before the build: old and new never add up
                self._evict_stage(stage)
            obj = build()
            self._store(key, obj, stage)
            if self.cache_dir is not None and pack is not None:
                self._disk_store(key, pack(obj))
            return obj

    def describe(self) -> str:
        """One-line human summary (the CLI's cache report)."""
        s = self.stats
        line = (
            f"{len(self._entries)} entries / {self._bytes / 1e6:.1f} MB in "
            f"memory, {s.hits} hits / {s.misses} misses"
            f" ({s.evictions} evictions); built "
            + (", ".join(f"{k} x{n}" for k, n in s.resolutions.items()) or "nothing")
        )
        if self.cache_dir is not None:
            line += (
                f"; disk {self.cache_dir}: {s.disk_hits} hits / "
                f"{s.disk_writes} writes"
                + (f" / {s.disk_rejects} rejects" if s.disk_rejects else "")
            )
        return line
