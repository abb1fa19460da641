"""Mesh statistics: element counts, SEM degree-of-freedom counts, size ratios.

Reproduces the bookkeeping behind the paper's Fig. 5 table: fourth-order
spectral elements carry ``(order+1)**dim`` GLL nodes each (125 for 3D hexes)
but share nodes with neighbours, so the global DOF count for a structured
``nx x ny x nz`` grid is ``prod(order*n_a + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.mesh import Mesh
from repro.util.errors import MeshError
from repro.util.rows import unique_rows
from repro.util.validation import require


def dof_count(mesh: Mesh, order: int = 4) -> int:
    """Number of unique GLL nodes of an order-``order`` SEM on ``mesh``.

    Exact for conforming meshes: counted as (#elements) x (nodes/element)
    minus shared face/edge/corner duplicates, computed via the generic
    formula ``sum over unique global GLL positions``.  For the structured
    generators in this package this equals ``prod(order*n_a + 1)``; the
    generic path below reproduces that without needing the grid shape.
    """
    require(order >= 1, f"order must be >= 1, got {order}", MeshError)
    # Unique-GLL counting via corner-node identification: a conforming
    # element mesh shares a face iff the corner nodes match, and GLL nodes
    # subdivide each topological entity uniformly.  Euler-style counting:
    #   dofs = V + E*(order-1) + F*(order-1)**2 + C*(order-1)**3
    # with V unique corner nodes, E unique edges, F unique faces, C cells.
    v = mesh.n_nodes
    c = mesh.n_elements
    edges = _unique_entities(mesh, entity="edge")
    if mesh.dim == 1:
        return v + c * (order - 1)
    if mesh.dim == 2:
        return v + edges * (order - 1) + c * (order - 1) ** 2
    faces = _unique_entities(mesh, entity="face")
    return (
        v
        + edges * (order - 1)
        + faces * (order - 1) ** 2
        + c * (order - 1) ** 3
    )


_EDGE_CORNERS = {
    1: ((0, 1),),
    2: ((0, 1), (1, 3), (3, 2), (2, 0)),
    3: (
        (0, 1), (2, 3), (4, 5), (6, 7),  # x-aligned
        (0, 2), (1, 3), (4, 6), (5, 7),  # y-aligned
        (0, 4), (1, 5), (2, 6), (3, 7),  # z-aligned
    ),
}

_FACE_CORNERS_3D = (
    (0, 1, 3, 2),
    (4, 5, 7, 6),
    (0, 1, 5, 4),
    (2, 3, 7, 6),
    (0, 2, 6, 4),
    (1, 3, 7, 5),
)


def _unique_entities(mesh: Mesh, entity: str) -> int:
    """Count unique edges or faces: distinct sorted corner tuples."""
    if entity == "edge":
        local = _EDGE_CORNERS[mesh.dim]
    elif entity == "face":
        require(mesh.dim == 3, "faces as separate entities only exist in 3D", MeshError)
        local = _FACE_CORNERS_3D
    else:  # pragma: no cover - internal misuse
        raise MeshError(f"unknown entity {entity!r}")
    parts = [np.sort(mesh.elements[:, list(idx)], axis=1) for idx in local]
    allrows = np.concatenate(parts, axis=0)
    return len(unique_rows(allrows)[0])


@dataclass(frozen=True)
class MeshStats:
    """Summary of a mesh, mirroring one row of the paper's Fig. 5 table."""

    name: str
    n_elements: int
    n_dof: int
    h_min: float
    h_max: float
    dt_ratio: float  # max(h/c) / min(h/c): the CFL bottleneck severity

    def row(self) -> list:
        return [
            self.name,
            self.n_elements,
            self.n_dof,
            f"{self.h_min:.4g}",
            f"{self.h_max:.4g}",
            f"{self.dt_ratio:.3g}",
        ]


def mesh_stats(mesh: Mesh, order: int = 4) -> MeshStats:
    """Compute the Fig.-5-style summary row for ``mesh``."""
    dt = mesh.dt_local
    return MeshStats(
        name=mesh.name,
        n_elements=mesh.n_elements,
        n_dof=dof_count(mesh, order=order),
        h_min=float(mesh.h.min()),
        h_max=float(mesh.h.max()),
        dt_ratio=float(dt.max() / dt.min()),
    )
