"""Mesh partitioning for load-balanced LTS (paper Sec. III).

LTS turns partitioning into a *multi-constraint* problem: each refinement
level must be balanced separately (Eq. (19)), because the levels
synchronize independently at every substep (Fig. 1), and cut costs are
level-dependent because finer elements communicate ``p`` times per cycle
(Fig. 2).

This package provides from-scratch multilevel partitioners standing in
for the libraries the paper compares:

* :func:`partition_scotch` — single-weight graph partitioning (the
  SPECFEM3D baseline): balances total work per cycle only;
* :func:`partition_metis_mc` — multi-constraint graph partitioning with
  p-weighted edges (the MeTiS 5 approach);
* :func:`partition_patoh` — multi-constraint *hypergraph* partitioning
  whose λ−1 cutsize equals the MPI volume exactly (the PaToH approach),
  with the ``final_imbal`` balance/cut trade-off knob;
* :func:`partition_scotch_p` — the paper's SCOTCH-P: partition each
  p-level separately, then greedily couple one part per level per rank.

Quality metrics (Sec. IV-B) live in :mod:`repro.partition.metrics`.

Outputs are part of the contract: for a given mesh, level assignment,
``k`` and seed, every strategy returns the same part vector, bit for bit,
release to release — rank layouts, exchanges and distributed runs follow
from it.  ``tests/partition/test_golden.py`` pins the sha256 of each
strategy's vector on two meshes and on the benchmark's 4-rank trench.  A
speed-up must make the same decisions in the same order: the same RNG
calls on the same arrays, float sums in the same order, and dicts and
sets built from the same insertion sequence (a set's iteration order
depends on it).  Regenerate the hashes only for a deliberate change of
output, with ``PYTHONPATH=src python tests/partition/test_golden.py``.
"""

from repro.partition.graph import Graph
from repro.partition.hypergraph import Hypergraph
from repro.partition.models import (
    lts_dual_graph,
    lts_hypergraph,
)
from repro.partition.multilevel import multilevel_graph_partition
from repro.partition.hmultilevel import multilevel_hypergraph_partition
from repro.partition.strategies import (
    partition_scotch,
    partition_scotch_p,
    partition_metis_mc,
    partition_patoh,
    PARTITIONERS,
    partition_mesh,
)
from repro.partition.metrics import (
    load_imbalance,
    per_level_imbalance,
    graph_cut,
    hypergraph_cutsize,
    mpi_volume,
    partition_report,
    PartitionReport,
)

__all__ = [
    "Graph",
    "Hypergraph",
    "lts_dual_graph",
    "lts_hypergraph",
    "multilevel_graph_partition",
    "multilevel_hypergraph_partition",
    "partition_scotch",
    "partition_scotch_p",
    "partition_metis_mc",
    "partition_patoh",
    "PARTITIONERS",
    "partition_mesh",
    "load_imbalance",
    "per_level_imbalance",
    "graph_cut",
    "hypergraph_cutsize",
    "mpi_volume",
    "partition_report",
    "PartitionReport",
]
