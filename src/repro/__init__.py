"""repro — Load-Balanced Local Time Stepping for Large-Scale Wave Propagation.

A from-scratch reproduction of Rietmann, Peter, Schenk, Uçar, Grote
(IPDPS 2015), grown into a configurable simulation system.

**Start here:** the declarative façade (:mod:`repro.api`) — one
validated :class:`SimulationConfig` drives the full pipeline from mesh
to receiver traces, serially or distributed, on either stiffness
backend; ``python -m repro run <config.json>`` does the same from the
command line.

Subpackages:

* :mod:`repro.api` — the declarative configuration + simulation façade;
* :mod:`repro.mesh` — meshes and the paper's benchmark families;
* :mod:`repro.core` — CFL, p-levels, speedup model, Newmark and
  multi-level LTS-Newmark (the paper's contribution);
* :mod:`repro.sem` — spectral-element substrate: three physics
  assemblers (acoustic ``SemND``, ``ElasticSemND``,
  ``AnisotropicElasticSemND``), each generic over dimension and each
  building its own matrix-free kernel, plus the material models;
* :mod:`repro.partition` — multilevel graph/hypergraph partitioners and
  the four strategies of Sec. III-B;
* :mod:`repro.runtime` — mailbox-MPI distributed execution and the
  calibrated cluster performance simulator behind Figs. 9-13;
* :mod:`repro.service` — simulation-as-a-service: durable job queue,
  shared-cache worker pool, HTTP JSON API
  (``python -m repro serve`` / ``submit`` / ``status`` / ``fetch`` /
  ``cancel``);
* :mod:`repro.util` — errors, validation, table reporting, atomic IO,
  runtime introspection.

See README.md for a tour; everything listed in ``__all__`` below is the
supported public surface.
"""

__version__ = "1.2.0"

from repro.api import (
    BackendSpec,
    EnsembleResult,
    EnsembleSpec,
    MaterialSpec,
    MeshSpec,
    PartitionSpec,
    ReceiverSpec,
    RegionSpec,
    ResilienceSpec,
    Simulation,
    SimulationConfig,
    SimulationResult,
    SourceSpec,
    StageCache,
    SweepSpec,
    TimeSpec,
    relative_deviation,
    run,
    run_ensemble,
)
from repro.core import (
    HealthGuard,
    LevelAssignment,
    LTSNewmarkSolver,
    NewmarkSolver,
    assign_levels,
    cfl_timestep,
    stable_timestep_from_operator,
    theoretical_speedup,
)
from repro.mesh import Mesh, benchmark_mesh
from repro.partition import PARTITIONERS, partition_mesh
from repro.runtime import (
    DistributedLTSSolver,
    FaultEvent,
    FaultPlan,
    FaultyWorld,
    MailboxWorld,
    Supervisor,
    build_rank_layout,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sem import (
    AnisotropicElastic,
    AnisotropicElasticSemND,
    ElasticSemND,
    IsotropicAcoustic,
    IsotropicElastic,
    Material,
    SemND,
)
from repro.service import (
    JobQueue,
    JobRecord,
    JobStore,
    ReproService,
    ServiceClient,
    ServiceError,
    WorkerPool,
)
from repro.util.errors import ConfigError, ReproError

__all__ = [
    # façade (repro.api)
    "SimulationConfig",
    "MeshSpec",
    "MaterialSpec",
    "RegionSpec",
    "SourceSpec",
    "ReceiverSpec",
    "TimeSpec",
    "PartitionSpec",
    "BackendSpec",
    "ResilienceSpec",
    "Simulation",
    "SimulationResult",
    "run",
    "relative_deviation",
    # stage cache + ensembles (repro.api)
    "StageCache",
    "EnsembleSpec",
    "SweepSpec",
    "EnsembleResult",
    "run_ensemble",
    # meshes
    "Mesh",
    "benchmark_mesh",
    # LTS core
    "LevelAssignment",
    "assign_levels",
    "cfl_timestep",
    "stable_timestep_from_operator",
    "theoretical_speedup",
    "NewmarkSolver",
    "LTSNewmarkSolver",
    # SEM substrate + materials
    "Material",
    "IsotropicAcoustic",
    "IsotropicElastic",
    "AnisotropicElastic",
    "SemND",
    "ElasticSemND",
    "AnisotropicElasticSemND",
    # partitioning
    "PARTITIONERS",
    "partition_mesh",
    # distributed runtime
    "MailboxWorld",
    "build_rank_layout",
    "DistributedLTSSolver",
    # resilience
    "HealthGuard",
    "FaultEvent",
    "FaultPlan",
    "FaultyWorld",
    "Supervisor",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    # service (repro.service)
    "JobRecord",
    "JobStore",
    "JobQueue",
    "WorkerPool",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    # errors
    "ReproError",
    "ConfigError",
]
