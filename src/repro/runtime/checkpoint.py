"""Checkpoint/restart for the Newmark and LTS solvers.

A checkpoint captures everything a deterministic restart needs: the
staggered fields ``(u, v)``, the LTS schedule position (completed cycle
count and simulated time — the scheme is RNG-free, so that *is* the
full schedule state), the receiver traces recorded so far, and a
content hash of the :class:`repro.api.SimulationConfig` so a restore
against a different configuration is rejected instead of silently
diverging.  A state always holds the run's replicas
(:class:`repro.core.newmark.Fields`; a serial run's one replica is its
global field): scattering a gathered field re-derives shared-DOF copies
from their owners, which is only equal to round-off for DOFs shared by
three or more ranks — restoring the replicas keeps the distributed
resume bitwise.  The file format is the same for both: the global
``u``/``v`` and ``n_ranks`` always, ``u_local_<r>`` / ``v_local_<r>``
only when there is more than one replica, so a file without them loads
as the one replica ``[u]``.  Version 2 has version 1's keys but numbers
1D DOFs by entity (mesh corners, then element interiors) as in 2D and
3D, where version 1 ran left to right along the element chain.

Files are ``.npz`` archives written atomically
(:func:`repro.util.io.atomic_savez`), named ``ckpt_<cycle>.npz`` so
:func:`latest_checkpoint` can pick the most recent one by name alone —
a killed run leaves either a complete checkpoint or none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.util.errors import SolverError
from repro.util.io import atomic_savez
from repro.util.validation import require

CHECKPOINT_VERSION = 2

#: Per mesh dimension, the first version whose fields are in the current
#: DOF order: version 2 renumbered 1D meshes (see the module docstring).
DOF_ORDER_SINCE = {1: 2, 2: 1, 3: 1}


@dataclass
class CheckpointState:
    """Full solver state at the end of LTS cycle ``cycle``.

    ``u``/``v`` are the global (gathered) fields; ``u_locals`` /
    ``v_locals`` the exact replicas, one per rank, ascending — left out, the one
    replica ``[u]`` / ``[v]`` of a serial run.  ``traces`` holds the
    receiver rows recorded for cycles ``1..cycle``.  ``config_hash`` is
    :meth:`repro.api.SimulationConfig.content_hash` of the producing
    run (``None`` when checkpointing outside the façade).  ``version``
    is the format its fields are in: the loaded file's, else the
    current one; :func:`save_checkpoint` writes it back unchanged.
    """

    cycle: int
    t: float
    u: np.ndarray
    v: np.ndarray
    u_locals: list[np.ndarray] | None = None
    v_locals: list[np.ndarray] | None = None
    traces: np.ndarray | None = None
    dt: float | None = None
    n_cycles_total: int | None = None
    config_hash: str | None = None
    version: int = CHECKPOINT_VERSION
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.u_locals is None:
            self.u_locals = [self.u]
        if self.v_locals is None:
            self.v_locals = [self.v]

    @property
    def n_ranks(self) -> int:
        """Replica count of the producing run (1 = serial)."""
        return len(self.u_locals)

    def solver_state(self) -> dict:
        """The ``restore()`` payload for the stepping solvers."""
        return {"t": self.t, "cycle": self.cycle}


def checkpoint_path(directory, cycle: int) -> Path:
    """Canonical file name for the cycle-``cycle`` checkpoint."""
    return Path(directory) / f"ckpt_{int(cycle):08d}.npz"


def latest_checkpoint(directory) -> Path | None:
    """Most recent checkpoint file in ``directory`` (by cycle), or
    ``None`` when the directory holds none (or does not exist)."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    found = sorted(directory.glob("ckpt_*.npz"))
    return found[-1] if found else None


def prune_checkpoints(directory, keep: int) -> list[Path]:
    """Delete all but the ``keep`` newest checkpoints; returns removals."""
    require(keep >= 1, "keep must be >= 1", SolverError)
    directory = Path(directory)
    removed = []
    for path in sorted(directory.glob("ckpt_*.npz"))[:-keep]:
        path.unlink()
        removed.append(path)
    return removed


def save_checkpoint(path, state: CheckpointState) -> Path:
    """Atomically write ``state`` as an ``.npz`` archive."""
    payload = {
        "version": np.int64(state.version),
        "cycle": np.int64(state.cycle),
        "t": np.float64(state.t),
        "u": np.asarray(state.u, dtype=np.float64),
        "v": np.asarray(state.v, dtype=np.float64),
        "n_ranks": np.int64(state.n_ranks),
    }
    require(
        len(state.v_locals) == len(state.u_locals)
        and all(len(ul) == len(vl) for ul, vl in zip(state.u_locals, state.v_locals)),
        "u_locals and v_locals must pair up",
        SolverError,
    )
    if state.n_ranks > 1:
        for r, (ul, vl) in enumerate(zip(state.u_locals, state.v_locals)):
            payload[f"u_local_{r}"] = np.asarray(ul, dtype=np.float64)
            payload[f"v_local_{r}"] = np.asarray(vl, dtype=np.float64)
    if state.traces is not None:
        payload["traces"] = np.asarray(state.traces, dtype=np.float64)
    if state.dt is not None:
        payload["dt"] = np.float64(state.dt)
    if state.n_cycles_total is not None:
        payload["n_cycles_total"] = np.int64(state.n_cycles_total)
    if state.config_hash is not None:
        payload["config_hash"] = np.array(state.config_hash)
    return atomic_savez(path, **payload)


def load_checkpoint(path) -> CheckpointState:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        raise SolverError(f"checkpoint file not found: {path}")
    try:
        with np.load(path) as data:
            version = int(data["version"])
            require(
                version <= CHECKPOINT_VERSION,
                f"checkpoint {path} has version {version}, newer than "
                f"this runtime ({CHECKPOINT_VERSION})",
                SolverError,
            )
            n_ranks = int(data["n_ranks"])
            u_locals = v_locals = None
            if n_ranks > 1:
                u_locals = [np.array(data[f"u_local_{r}"]) for r in range(n_ranks)]
                v_locals = [np.array(data[f"v_local_{r}"]) for r in range(n_ranks)]
            return CheckpointState(
                cycle=int(data["cycle"]),
                t=float(data["t"]),
                u=np.array(data["u"]),
                v=np.array(data["v"]),
                u_locals=u_locals,
                v_locals=v_locals,
                traces=np.array(data["traces"]) if "traces" in data else None,
                dt=float(data["dt"]) if "dt" in data else None,
                n_cycles_total=(
                    int(data["n_cycles_total"])
                    if "n_cycles_total" in data
                    else None
                ),
                config_hash=(
                    str(data["config_hash"]) if "config_hash" in data else None
                ),
                version=version,
            )
    except (KeyError, ValueError, OSError) as e:
        raise SolverError(f"corrupt or unreadable checkpoint {path}: {e}") from e
