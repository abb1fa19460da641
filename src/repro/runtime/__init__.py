"""Parallel runtime: simulated MPI, distributed LTS, performance model.

The paper's evaluation ran MPI on the Piz Daint CPU/GPU cluster; this
package substitutes two complementary pieces:

* a **rank-serialized BSP runtime** — :mod:`repro.runtime.comm` provides
  an in-memory mailbox communicator with mpi4py-style semantics;
  :mod:`repro.runtime.halo` builds the partition-boundary exchange
  structures; :mod:`repro.runtime.executor` runs LTS-Newmark domain-
  decomposed across ranks and reproduces the serial solution to machine
  round-off, validating the parallelization (per-substep halo exchange
  across p-levels);
* a **fault-tolerant layer** — :mod:`repro.runtime.checkpoint`
  (atomic ``.npz`` checkpoint/restart for every solver),
  :mod:`repro.runtime.faults` (deterministic, replayable fault
  injection over the mailbox: rank crashes, dropped / duplicated /
  bit-flipped messages), and :mod:`repro.runtime.supervisor` (bounded
  restarts restoring the latest checkpoint — something real MPI can
  only test nondeterministically);
* a **calibrated performance simulator** — :mod:`repro.runtime.perfmodel`
  models CPU cores (with the working-set cache effect behind the paper's
  super-linear scaling, Fig. 12) and GPUs (kernel launch overhead behind
  the LTS-GPU strong-scaling limit); :mod:`repro.runtime.simulate` plays
  the LTS cycle schedule over a partition and machine to produce the
  wall-clock numbers of Figs. 9-13; :mod:`repro.runtime.trace` renders
  Fig. 1-style timelines.
"""

from repro.runtime.comm import MailboxWorld, RankComm
from repro.runtime.halo import build_rank_layout, RankLayout
from repro.runtime.executor import DistributedLTSSolver
from repro.runtime.checkpoint import (
    CheckpointState,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.runtime.faults import FaultEvent, FaultPlan, FaultyWorld
from repro.runtime.supervisor import Supervisor
from repro.runtime.perfmodel import MachineModel, CPU_NODE, GPU_NODE, cache_hit_metric
from repro.runtime.simulate import ClusterSimulator, ScalingResult, simulate_scaling
from repro.runtime.trace import CycleTrace, render_timeline

__all__ = [
    "MailboxWorld",
    "RankComm",
    "RankLayout",
    "build_rank_layout",
    "DistributedLTSSolver",
    "CheckpointState",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
    "prune_checkpoints",
    "save_checkpoint",
    "FaultEvent",
    "FaultPlan",
    "FaultyWorld",
    "Supervisor",
    "MachineModel",
    "CPU_NODE",
    "GPU_NODE",
    "cache_hit_metric",
    "ClusterSimulator",
    "ScalingResult",
    "simulate_scaling",
    "CycleTrace",
    "render_timeline",
]
