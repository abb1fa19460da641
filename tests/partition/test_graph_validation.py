"""Graph input validation: non-negative weights, and symmetry meaning each
undirected edge listed exactly twice, once from each endpoint."""

import numpy as np
import pytest

from repro.core import assign_levels
from repro.mesh import trench_mesh
from repro.partition import Graph, lts_dual_graph, lts_hypergraph
from repro.partition.coarsen import coarsen_to_size
from repro.partition.hmultilevel import clique_expansion
from repro.util import PartitionError


def directed(n, entries, vweights=None):
    """Graph from directed CSR entries ``(u, v, w)``, listed in u order."""
    entries = sorted(entries, key=lambda e: e[0])
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([e[0] for e in entries], minlength=n), out=xadj[1:])
    return Graph(
        xadj=xadj,
        adjncy=np.array([e[1] for e in entries], dtype=np.int64),
        vweights=np.ones((n, 1)) if vweights is None else vweights,
        eweights=np.array([e[2] for e in entries], dtype=np.float64),
    )


class TestWeights:
    @pytest.mark.parametrize("w", [-2.0, -1e-300, np.nan])
    def test_negative_or_nan_edge_weight_rejected(self, w):
        with pytest.raises(PartitionError, match="edge weights"):
            directed(2, [(0, 1, w), (1, 0, w)])

    def test_negative_vertex_weight_rejected(self):
        with pytest.raises(PartitionError, match="vertex weights"):
            directed(2, [(0, 1, 1.0), (1, 0, 1.0)], vweights=np.array([[1.0], [-1.0]]))

    def test_zero_weights_allowed(self):
        directed(2, [(0, 1, 0.0), (1, 0, 0.0)], vweights=np.zeros((2, 1))).validate_symmetry()


class TestSymmetry:
    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_lone_direction_rejected(self, w):
        # A zero weight used to pass: "seen twice" was marked by negation.
        with pytest.raises(PartitionError, match="1 time"):
            directed(2, [(0, 1, w)]).validate_symmetry()

    def test_triplicated_edge_rejected(self):
        g = directed(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(PartitionError, match="3 time"):
            g.validate_symmetry()

    def test_same_direction_twice_rejected(self):
        g = directed(3, [(0, 1, 1.0), (0, 1, 1.0)])
        with pytest.raises(PartitionError, match="one direction"):
            g.validate_symmetry()

    def test_self_loop_rejected(self):
        with pytest.raises(PartitionError):
            directed(2, [(0, 0, 1.0), (0, 0, 1.0)]).validate_symmetry()

    def test_unequal_weights_rejected(self):
        g = directed(2, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(PartitionError, match="asymmetric"):
            g.validate_symmetry()

    def test_every_built_graph_is_symmetric(self, rng):
        """Dual graph, each coarsening level and a clique expansion."""
        mesh = trench_mesh(8, 8, 4)
        a = assign_levels(mesh)
        graphs, _ = coarsen_to_size(lts_dual_graph(mesh, a), 20, rng)
        assert len(graphs) > 2
        graphs.append(clique_expansion(lts_hypergraph(mesh, a)))
        graphs.append(graphs[0].subgraph(np.arange(0, mesh.n_elements, 3))[0])
        for g in graphs:
            g.validate_symmetry()
