"""Declarative simulation façade: one config object from mesh to receivers.

The high-level entry point of the package: describe a simulation as a
:class:`SimulationConfig` (plain data — seven composable specs, JSON /
TOML round-tripping), resolve and run it with :class:`Simulation` /
:func:`run`, and get a :class:`SimulationResult` back.  The same
objects drive the ``python -m repro run <config>`` command line.

>>> from repro.api import SimulationConfig, run
>>> cfg = SimulationConfig.from_dict({
...     "mesh": {"family": "uniform_grid", "params": {"shape": [8, 8]}},
...     "time": {"n_cycles": 10},
...     "source": {"position": [2.0, 4.0], "f0": 0.8},
...     "receivers": {"positions": [[6.0, 4.0]]},
... })
>>> result = run(cfg)          # doctest: +SKIP

Every stage stays inspectable (``Simulation(cfg).assembler``,
``.levels``, ``.parts`` ...) so the façade composes with the manual
wiring layer it replaces — see ``examples/convergence_study.py`` for
the escape-hatch tutorial.

For many related runs, attach a :class:`StageCache` (content-addressed
resolved-stage cache, optional on-disk persistence) and/or declare the
whole sweep as an :class:`EnsembleSpec` executed by
:func:`run_ensemble` — the ``python -m repro ensemble`` command line.
"""

from repro.api.cache import CacheStats, StageCache
from repro.api.config import (
    BackendSpec,
    MATERIAL_MODELS,
    MESH_FAMILIES,
    MaterialSpec,
    MeshSpec,
    PartitionSpec,
    ReceiverSpec,
    RegionSpec,
    ResilienceSpec,
    SimulationConfig,
    SourceSpec,
    TimeSpec,
)
from repro.api.ensemble import (
    EnsembleResult,
    EnsembleSpec,
    SweepSpec,
    run_ensemble,
)
from repro.api.simulation import (
    STAGES,
    Simulation,
    SimulationResult,
    relative_deviation,
    run,
    stage_key,
)
from repro.util.errors import ConfigError

__all__ = [
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
    "MESH_FAMILIES",
    "MATERIAL_MODELS",
    "Simulation",
    "SimulationResult",
    "run",
    "relative_deviation",
    "StageCache",
    "CacheStats",
    "STAGES",
    "stage_key",
    "EnsembleSpec",
    "SweepSpec",
    "EnsembleResult",
    "run_ensemble",
    "ConfigError",
]
