"""The assembler's setup stage as it was first written, eagerly.

:func:`number_dofs` is the oracle of :func:`repro.sem.tensor.number_dofs`:
each edge and face slot sorts its corner tuple along a short axis,
:func:`unique_rows` (``np.unique`` along ``axis=0``) numbers the distinct
tuples, and every slot writes its ids into the element table column by
column, at local positions it walks out index by index.  The package
packs each sorted tuple into integer keys, sorts those once, finds the
positions by masks over the local multi-index and writes the table one
position at a time; every field of the layout must come out equal to
this one, dtype included.

:func:`boundary_dofs` is the oracle of
:meth:`repro.sem.tensor.TensorDofLayout.boundary_dofs`: the DOF ids of
the boundary entities concatenated, repeats and all, and sorted unique
by ``np.unique``.  The package marks them in one boolean over the DOFs
and reads the mark back.

:func:`node_coords` is the oracle of ``SemND.node_coords`` and, through
:func:`nearest_dof`'s brute-force ``argmin``, of ``SemND.nearest_dof``:
the whole ``(n_scalar, dim)`` table written by every element at setup,
overlapping writes keeping the last one.  The package builds the table
on first access and locates a point from a few elements' nodes.

:func:`element_axis_sizes` is the oracle of
:func:`repro.sem.tensor.element_axis_sizes`: one gather of every corner
and one ``np.allclose`` against the boxes they span.

:func:`permuted_grid` is the mesh family they are checked on.

Tests import them as ``from oracles.assembler import number_dofs``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import uniform_grid
from repro.mesh.mesh import Mesh
from repro.sem.gll import gll_points_weights
from repro.sem.tensor import (
    _EDGE_SLOTS,
    _HEX_FACE_EDGES,
    _HEX_FACE_SLOTS,
    TensorDofLayout,
    _face_orientation_perms,
)
from repro.util.errors import SolverError
from repro.util.rows import unique_rows
from repro.util.validation import require


def _local_strides(order: int, dim: int) -> np.ndarray:
    """Strides of the local multi-index (x slowest, C-order flattening)."""
    return (order + 1) ** np.arange(dim - 1, -1, -1)


def _corner_bits(local: int, dim: int) -> list[int]:
    return [(local >> (dim - 1 - a)) & 1 for a in range(dim)]


def _edge_positions(a: int, b: int, order: int, dim: int) -> list[int]:
    """Local flat indices of the interior nodes of edge ``(a, b)``,
    traversed in the +axis direction (from corner ``a`` toward ``b``)."""
    strides = _local_strides(order, dim)
    abits = _corner_bits(a, dim)
    bbits = _corner_bits(b, dim)
    (axis,) = [ax for ax in range(dim) if abits[ax] != bbits[ax]]
    idx = [bit * order for bit in abits]
    pos = []
    for t in range(1, order):
        idx[axis] = t
        pos.append(int(np.dot(idx, strides)))
    return pos


def _face_positions(f: int, order: int) -> list[int]:
    """Local flat indices of face slot ``f``'s interior grid, (s, t)
    order with s slow — matching the rows of the orientation perms."""
    (c00, _, _, _), s_ax, t_ax = _HEX_FACE_SLOTS[f]
    strides = _local_strides(order, 3)
    base = [bit * order for bit in _corner_bits(c00, 3)]
    pos = []
    for s in range(1, order):
        for t in range(1, order):
            idx = list(base)
            idx[s_ax] = s
            idx[t_ax] = t
            pos.append(int(np.dot(idx, strides)))
    return pos


def _interior_positions(order: int, dim: int) -> np.ndarray:
    """Local flat indices with every component in ``1..order-1`` (C-order)."""
    n1 = order + 1
    idx = np.indices((n1,) * dim).reshape(dim, -1)
    inner = np.all((idx >= 1) & (idx <= order - 1), axis=0)
    return np.nonzero(inner)[0]


def element_axis_sizes(mesh: Mesh) -> np.ndarray:
    """Per-axis sizes ``(n_elem, dim)`` of axis-aligned boxes, refused
    (:class:`SolverError`) when a corner is off its box or a size is not
    positive."""
    dim = mesh.dim
    P = mesh.coords[mesh.elements]  # (n_elem, 2**dim, dim)
    p0 = P[:, 0, :]
    locals_ = np.arange(2**dim)[:, None]
    bits = (locals_ >> (dim - 1 - np.arange(dim))[None, :]) & 1
    h = np.empty((mesh.n_elements, dim))
    for a in range(dim):
        h[:, a] = P[:, 1 << (dim - 1 - a), a] - p0[:, a]
    expected = p0[:, None, :] + bits[None, :, :] * h[:, None, :]
    require(bool(np.allclose(P, expected)), "axis-aligned box elements", SolverError)
    require(bool(np.all(h > 0)), "degenerate elements", SolverError)
    return h


def number_dofs(mesh: Mesh, order: int) -> TensorDofLayout:
    """Entity-based global DOF numbering: corners, edge interiors, face
    interiors (3D), element interiors; edge/face ``i`` is the ``i``-th
    distinct sorted corner tuple in lexicographic order."""
    dim = mesh.dim
    N = int(order)
    n_loc = (N + 1) ** dim
    n_int = N - 1
    conn = mesh.elements
    n_elem = mesh.n_elements
    n_corner = mesh.n_nodes
    strides = _local_strides(N, dim)

    element_dofs = np.empty((n_elem, n_loc), dtype=np.int64)
    for local in range(2**dim):
        flat = int(np.dot([b * N for b in _corner_bits(local, dim)], strides))
        element_dofs[:, flat] = conn[:, local]
    nxt = n_corner

    edge_keys = edge_inv = None
    if dim >= 2:
        slots = _EDGE_SLOTS[dim]
        pairs = np.sort(
            np.stack([conn[:, list(s)] for s in slots], axis=1), axis=2
        )  # (n_elem, n_slots, 2)
        edge_keys, _, inv = unique_rows(pairs.reshape(-1, 2))
        edge_inv = inv.reshape(n_elem, len(slots))
        if n_int:
            for s, (a, b) in enumerate(slots):
                ids = (nxt + edge_inv[:, s] * n_int)[:, None] + np.arange(n_int)
                flip = conn[:, a] > conn[:, b]  # traverse low corner -> high
                ids[flip] = ids[flip, ::-1]
                element_dofs[:, _edge_positions(a, b, N, dim)] = ids
            nxt += len(edge_keys) * n_int

    face_keys = face_inv = None
    if dim == 3:
        quads = np.stack(
            [np.sort(conn[:, list(c4)], axis=1) for (c4, _, _) in _HEX_FACE_SLOTS],
            axis=1,
        )  # (n_elem, 6, 4)
        face_keys, _, finv = unique_rows(quads.reshape(-1, 4))
        face_inv = finv.reshape(n_elem, 6)
        if n_int:
            n_int2 = n_int * n_int
            perms = _face_orientation_perms(N)
            ar = np.arange(n_elem)
            for f, (c4, _, _) in enumerate(_HEX_FACE_SLOTS):
                corners4 = conn[:, list(c4)]  # (n_elem, 4) in (s, t) layout
                o = np.argmin(corners4, axis=1)
                os_, ot = o >> 1, o & 1
                s_adj = corners4[ar, 2 * (1 - os_) + ot]
                t_adj = corners4[ar, 2 * os_ + (1 - ot)]
                t_id = 2 * o + (s_adj < t_adj)
                ids = (nxt + face_inv[:, f] * n_int2)[:, None] + perms[t_id]
                element_dofs[:, _face_positions(f, N)] = ids
            nxt += len(face_keys) * n_int2

    if n_int:
        n_inner = n_int**dim
        inner = nxt + (np.arange(n_elem) * n_inner)[:, None] + np.arange(n_inner)
        element_dofs[:, _interior_positions(N, dim)] = inner
        nxt += n_elem * n_inner

    return TensorDofLayout(
        order=N,
        dim=dim,
        element_dofs=element_dofs,
        n_dof=nxt,
        n_corner=n_corner,
        edge_keys=edge_keys,
        edge_inv=edge_inv,
        face_keys=face_keys,
        face_inv=face_inv,
    )


def boundary_dofs(layout: TensorDofLayout) -> np.ndarray:
    """Global DOFs of ``layout`` on the domain boundary, ascending
    ``int64``: corners of 1D used once; in 2D the corners and interiors
    of edges used once; in 3D the corners, edge interiors and interiors
    of faces used once."""
    n_int = layout.order - 1
    if layout.dim == 1:
        counts = np.bincount(
            layout.element_dofs[:, [0, -1]].ravel(), minlength=layout.n_corner
        )
        return np.nonzero(counts == 1)[0].astype(np.int64)

    edge_base = layout.n_corner

    if layout.dim == 2:
        edge_counts = np.bincount(
            layout.edge_inv.ravel(), minlength=len(layout.edge_keys)
        )
        bnd = np.nonzero(edge_counts == 1)[0]
        corner = layout.edge_keys[bnd].ravel()
        interior = (
            (edge_base + bnd * n_int)[:, None] + np.arange(n_int)
        ).ravel()
        return np.unique(np.concatenate([corner, interior]).astype(np.int64))

    face_counts = np.bincount(layout.face_inv.ravel(), minlength=len(layout.face_keys))
    bnd_face_mask = face_counts == 1
    bnd_faces = np.nonzero(bnd_face_mask)[0]
    corner = layout.face_keys[bnd_faces].ravel()
    edge_ids = [
        layout.edge_inv[bnd_face_mask[layout.face_inv[:, f]]][
            :, list(_HEX_FACE_EDGES[f])
        ].ravel()
        for f in range(6)
    ]
    bnd_edges = np.unique(np.concatenate(edge_ids))
    parts = [corner]
    if n_int:
        parts.append(
            ((edge_base + bnd_edges * n_int)[:, None] + np.arange(n_int)).ravel()
        )
        face_base = edge_base + len(layout.edge_keys) * n_int
        n_int2 = n_int * n_int
        parts.append(
            ((face_base + bnd_faces * n_int2)[:, None] + np.arange(n_int2)).ravel()
        )
    return np.unique(np.concatenate(parts).astype(np.int64))


def node_coords(sem) -> np.ndarray:
    """``(n_scalar, dim)`` GLL node coordinates of the assembler ``sem``:
    every element writes ``p0 + x_gll * h`` per axis into one table, in
    ravel order, so a shared node keeps its last writer's value."""
    mesh, dim, n1 = sem.mesh, sem.dim, sem.order + 1
    xi, _ = gll_points_weights(sem.order)
    p0 = mesh.coords[mesh.elements[:, 0]]
    gx = (xi + 1.0) * 0.5
    flat = np.arange(n1**dim)
    coords = np.zeros((sem.n_scalar, dim))
    for a in range(dim):
        ia = (flat // n1 ** (dim - 1 - a)) % n1
        vals = p0[:, a : a + 1] + gx[None, :] * sem.h_axes[:, a : a + 1]
        coords[sem.scalar_dofs.ravel(), a] = vals[:, ia].ravel()
    return coords


def nearest_dof(coords: np.ndarray, point) -> int:
    """The node of ``coords`` nearest to ``point``, ties to the lowest
    id: the ``argmin`` of the per-axis sums of squares over every node."""
    d = coords - np.asarray(point, dtype=np.float64)
    return int(np.argmin(sum(d[:, a] * d[:, a] for a in range(coords.shape[1]))))


def permuted_grid(shape, seed: int, slack: float = 0.0) -> Mesh:
    """A box grid of ``shape`` with random spacing per axis, its node
    labels and element order randomly permuted (corner ids carry no grid
    order).  The ticks are decimals (one place, random offset), whose
    differences binary floats round: ``p0 + 1.0 * (x1 - p0)`` is not
    always ``x1``, so elements sharing a node can compute it apart in
    the last bit, and which one writes last shows.

    ``slack`` (below 0.5) moves every corner coordinate by a random
    fraction, up to ``slack``, of the tolerance ``np.allclose`` grants
    it (``1e-8 + 1e-5 * |x|``): each element stays within that tolerance
    of its box, so setup accepts the mesh, while elements sharing a node
    compute it up to about ``2 * slack`` tolerances apart."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(shape)  # unit spacing: integer corner coordinates
    coords = np.empty_like(grid.coords)
    for a, n in enumerate(shape):
        steps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, n))])
        ticks = np.round(rng.uniform(-3.0, 3.0) + steps, 1)
        coords[:, a] = ticks[grid.coords[:, a].astype(int)]
    perm = rng.permutation(len(coords))  # old label i -> new label perm[i]
    new_coords = np.empty_like(coords)
    new_coords[perm] = coords
    elements = perm[grid.elements][rng.permutation(grid.n_elements)]
    if slack:
        tol = 1e-8 + 1e-5 * np.abs(new_coords)
        new_coords += rng.uniform(-slack, slack, new_coords.shape) * tol
    n = len(elements)
    return Mesh(dim=len(shape), coords=new_coords, elements=elements, h=np.ones(n), c=np.ones(n))
