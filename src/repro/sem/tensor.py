"""Dimension- and physics-generic tensor-product SEM core.

Everything that is *shared* between the 1D/2D/3D continuous spectral
element discretizations — acoustic or elastic — lives here,
parameterized by ``mesh.dim`` and the number of displacement components
per GLL node:

* the per-element geometry scales of the element kernels — per axis
  (acoustic) and per axis pair (elastic);
* entity-based global DOF numbering (corners, then edge interiors, then
  face interiors in 3D, then element interiors), built with one sort of
  packed integer keys per entity kind: a sorted corner pair is
  ``lo * n_corner + hi``, a sorted quad two such pairs, which needs
  ``n_corner**2 < 2**63`` (a larger mesh is refused).  Shared edges
  are traversed from the lower- to the higher-numbered corner; shared
  hexahedral *faces* are mapped through a canonical frame anchored at the
  face's smallest corner id (see :func:`_face_orientation_perms`), so any
  conforming mesh — not just structured grids — numbers consistently;
* geometry validation and per-axis element sizes for axis-aligned
  box elements (the affine tensor mapping every kernel relies on).  Node
  coordinates are not stored at setup: :attr:`SemND.node_coords` is
  built on first access, and :meth:`SemND.nearest_dof` computes the
  nodes of the few elements a point can be nearest to, each from the
  element that writes it last — the values the whole table holds;
* the :class:`SemND` assembler base: the multi-component interleaved
  DOF layout (``n_comp * node + comp``), diagonal (lumped) mass from the
  material's per-element density, the Dirichlet mask, the element
  kernel the matrix-free operator applies (:meth:`SemND.kernel`), and
  :meth:`SemND.operator`;
* :class:`ElasticSemND`, the isotropic elastic (P-SV / P-S) assembler
  generic over dimension: per-element Lamé parameters and density,
  ``dim`` components per node, P/S wave speeds for CFL and LTS level
  assignment (paper Eq. (7) drives levels with the *P* speed).

Constitutive parameters live in :mod:`repro.sem.materials`: every
assembler takes a :class:`~repro.sem.materials.Material`, which owns
broadcasting, validation and the maximal wave speed the CFL/LTS layer
pulls via :meth:`SemND.max_velocity`.  The general-anisotropy assembler
(:class:`repro.sem.anisotropic.AnisotropicElasticSemND`) builds on the
same hooks.

Three physics assemblers, each generic over dimension — acoustic
:class:`SemND` (1D/2D/3D), :class:`ElasticSemND` and
:class:`~repro.sem.anisotropic.AnisotropicElasticSemND` (2D/3D) — and
each builds its own matrix-free element kernel
(:mod:`repro.sem.matfree`) without assembling anything.  In 3D this
layering is where sum-factorization pays off asymptotically: O(n^4)
contraction work per element against the O(n^6) of a dense element
matvec (paper Sec. II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sem.gll import gll_points_weights
from repro.sem.materials import IsotropicAcoustic, IsotropicElastic, Material
from repro.sem.matfree import AcousticKernelND, ElasticKernelND, operator_for
from repro.util.errors import SolverError
from repro.util.rows import unique_rows
from repro.util.validation import require

#: Element-local edge slots per dimension: corner pairs, ordered
#: axis-by-axis (x-direction edges first).  Local corner index packs the
#: per-axis offset bits with x slowest (``2D: 2X+Y``, ``3D: 4X+2Y+Z``),
#: matching :func:`repro.mesh.generators._grid_elements`.  Every pair is
#: (low corner, high corner) in the +axis direction; shared edges are
#: traversed from the lower- to the higher-numbered *global* corner.
_EDGE_SLOTS = {
    2: ((0, 2), (1, 3), (0, 1), (2, 3)),
    3: (
        (0, 4), (1, 5), (2, 6), (3, 7),  # x-edges, fixed (Y, Z)
        (0, 2), (1, 3), (4, 6), (5, 7),  # y-edges, fixed (X, Z)
        (0, 1), (2, 3), (4, 5), (6, 7),  # z-edges, fixed (X, Y)
    ),
}

#: Hexahedral face slots: corner quadruple in (s, t) layout
#: ``(c00, c01, c10, c11)`` plus the two in-face axes (s slow, t fast),
#: both in (x, y, z) order.
_HEX_FACE_SLOTS = (
    ((0, 1, 2, 3), 1, 2),  # x = 0 face, (s, t) = (y, z)
    ((4, 5, 6, 7), 1, 2),  # x = 1
    ((0, 1, 4, 5), 0, 2),  # y = 0, (s, t) = (x, z)
    ((2, 3, 6, 7), 0, 2),  # y = 1
    ((0, 2, 4, 6), 0, 1),  # z = 0, (s, t) = (x, y)
    ((1, 3, 5, 7), 0, 1),  # z = 1
)

#: Edge-slot indices (into ``_EDGE_SLOTS[3]``) bounding each face slot.
_HEX_FACE_EDGES = (
    (4, 5, 8, 9),
    (6, 7, 10, 11),
    (0, 1, 8, 10),
    (2, 3, 9, 11),
    (0, 2, 4, 6),
    (1, 3, 5, 7),
)


# ----------------------------------------------------------------------
# Reference-element kernels
# ----------------------------------------------------------------------
def tensor_quadrature_weights(order: int, dim: int) -> np.ndarray:
    """Flattened tensor-product GLL weights ``w (x) ... (x) w`` (dim times)."""
    _, w = gll_points_weights(order)
    wq = w
    for _ in range(dim - 1):
        wq = np.kron(wq, w)
    return wq


def acoustic_axis_scales(c2: np.ndarray, h_axes: np.ndarray) -> np.ndarray:
    """Per-element, per-axis stiffness scales for the acoustic operator.

    On an axis-aligned box of sizes ``h_a`` the ``a``-derivative term of
    ``c^2 grad u . grad v`` integrates to
    ``c^2 (4 / h_a^2) (prod_b h_b / 2^dim)`` times the reference kernel,
    i.e. ``c^2 prod(h) / (h_a^2 2^(dim-2))`` — ``c^2 hy/hx`` in 2D,
    ``c^2 hy hz / (2 hx)`` in 3D.
    """
    h_axes = np.asarray(h_axes, dtype=np.float64)
    dim = h_axes.shape[1]
    vol = h_axes.prod(axis=1)
    return (np.asarray(c2, dtype=np.float64) * vol / 2.0 ** (dim - 2))[:, None] / (
        h_axes**2
    )


def elastic_pair_scales(h_axes: np.ndarray) -> np.ndarray:
    """Axis-pair geometry scales ``g[e, a, b] = prod(h) / (2^(dim-2) h_a h_b)``.

    ``g[:, a, b]`` multiplies the ``(a, b)`` axis pair of the elastic
    stress form (:class:`repro.sem.matfree.AnisotropicKernelND`); the
    diagonal is :func:`acoustic_axis_scales` with ``c^2 = 1``.  In 2D
    ``g[:, 0, 1] = 1`` — the shear coupling is geometry-free there, but
    *not* in 3D (``hz / 2`` for the (x, y) pair, etc.).
    """
    h = np.asarray(h_axes, dtype=np.float64)
    dim = h.shape[1]
    vol = h.prod(axis=1)
    return (vol / 2.0 ** (dim - 2))[:, None, None] / (h[:, :, None] * h[:, None, :])


def element_axis_sizes(mesh: Mesh) -> np.ndarray:
    """Validated per-axis sizes ``(n_elem, dim)`` of axis-aligned boxes.

    Raises when any element is not an axis-aligned box with positive
    per-axis extent (the affine tensor-product mapping assumption).
    """
    dim = mesh.dim
    # bits[l, a] = offset bit of local corner l along axis a (x slowest).
    bits = (np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    h = np.empty((mesh.n_elements, dim))
    aligned = True
    for a in range(dim):
        P = mesh.coords[:, a].take(mesh.elements)  # (n_elem, 2**dim): corners' axis a
        h[:, a] = P[:, 1 << (dim - 1 - a)] - P[:, 0]
        aligned = aligned and bool(np.allclose(P, P[:, :1] + bits[:, a] * h[:, a : a + 1]))
    require(aligned, "tensor-product SEM requires axis-aligned box elements", SolverError)
    require(bool(np.all(h > 0)), "degenerate elements", SolverError)
    return h


# ----------------------------------------------------------------------
# Entity-based DOF numbering
# ----------------------------------------------------------------------
def _slot_positions(corner: int, free: tuple[int, ...], order: int, dim: int) -> np.ndarray:
    """Local flat indices (C order, x slowest) of the nodes at local corner
    ``corner`` along every axis but those in ``free``, which run over the
    interior ``1..order-1``: ascending, so each free axis runs in its +axis
    direction and the earlier one is the slower (the rows of the face
    orientation perms)."""
    idx = np.indices((order + 1,) * dim).reshape(dim, -1)
    at = [((corner >> (dim - 1 - a)) & 1) * order for a in range(dim)]
    on = [(i > 0) & (i < order) if a in free else i == at[a] for a, i in enumerate(idx)]
    return np.flatnonzero(np.logical_and.reduce(on))


def _face_orientation_perms(order: int) -> np.ndarray:
    """The 8 face-grid permutations local (s, t) -> canonical (p, q).

    A shared hex face is numbered in a *canonical frame*: origin at the
    corner with the smallest global id, first axis toward the smaller of
    its two in-face neighbours.  Both adjacent elements derive the same
    frame from the (global) corner ids alone, so their face-interior
    numbering agrees for any conforming orientation.  Row ``t_id = 2 *
    origin_slot + axis1_is_s`` maps the local interior grid (s slow) to
    canonical flat offsets.
    """
    N = order
    n_int = N - 1
    s, t = np.meshgrid(np.arange(1, N), np.arange(1, N), indexing="ij")
    perms = np.empty((8, n_int * n_int), dtype=np.int64)
    for o in range(4):
        ss = (N - s) if (o >> 1) else s  # distance from origin along s
        tt = (N - t) if (o & 1) else t
        for ax1s in (0, 1):
            p, q = (ss, tt) if ax1s else (tt, ss)
            perms[2 * o + ax1s] = ((p - 1) * n_int + (q - 1)).ravel()
    return perms


@dataclass
class TensorDofLayout:
    """Entity-based global numbering of a tensor-product SEM space.

    Numbering order: mesh corner nodes, edge interiors, face interiors
    (3D), element interiors — each entity kind numbered in the
    lexicographic order of its sorted corner tuples.
    """

    order: int
    dim: int
    element_dofs: np.ndarray  # (n_elem, (order+1)**dim)
    n_dof: int
    n_corner: int
    edge_keys: np.ndarray | None = None  # (n_edges, 2) sorted corner pairs
    edge_inv: np.ndarray | None = None  # (n_elem, edges/elem)
    face_keys: np.ndarray | None = None  # (n_faces, 4) sorted corner quads
    face_inv: np.ndarray | None = None  # (n_elem, 6)

    def boundary_dofs(self) -> np.ndarray:
        """Global DOFs on the domain boundary.

        Boundary (dim-1)-entities are those used by exactly one element:
        endpoint corners in 1D, edges in 2D, faces in 3D (whose bounding
        edges and corners are boundary too).
        """
        n_int = self.order - 1
        if self.dim == 1:
            counts = np.bincount(
                self.element_dofs[:, [0, -1]].ravel(), minlength=self.n_corner
            )
            return np.nonzero(counts == 1)[0].astype(np.int64)

        # One mark over the DOFs: corner ids and whole entity blocks of
        # the boundary (an entity's interior DOFs are one row of its
        # block), read back in ascending order.
        mark = np.zeros(self.n_dof, dtype=bool)
        edge_block = mark[self.n_corner : self.n_corner + len(self.edge_keys) * n_int]
        edge_block = edge_block.reshape(len(self.edge_keys), n_int)
        if self.dim == 2:
            bnd = np.bincount(self.edge_inv.ravel(), minlength=len(self.edge_keys)) == 1
            mark[self.edge_keys[bnd].ravel()] = True
            edge_block[bnd] = True
            return np.flatnonzero(mark).astype(np.int64, copy=False)

        # 3D: faces used once; mark their corners, edges, interiors.
        bnd = np.bincount(self.face_inv.ravel(), minlength=len(self.face_keys)) == 1
        mark[self.face_keys[bnd].ravel()] = True
        for f in range(6):
            on = bnd[self.face_inv[:, f]]
            edge_block[self.edge_inv[on][:, list(_HEX_FACE_EDGES[f])].ravel()] = True
        face_base = self.n_corner + edge_block.size
        n_int2 = n_int * n_int
        mark[face_base : face_base + len(self.face_keys) * n_int2].reshape(
            len(self.face_keys), n_int2
        )[bnd] = True
        return np.flatnonzero(mark).astype(np.int64, copy=False)


def number_dofs(mesh: Mesh, order: int) -> TensorDofLayout:
    """Entity-based global DOF numbering for any conforming line/quad/hex
    mesh (see :class:`TensorDofLayout`): edge/face ``i`` is the ``i``-th
    distinct sorted corner tuple in lexicographic order, as ``np.unique``
    orders them.  A sorted pair packs into the key ``lo * n_corner + hi``
    and a sorted quad into two, so one :func:`unique_rows` sort of one or
    two key columns numbers each entity kind; the keys need
    ``n_corner**2 < 2**63`` (larger meshes are refused).  The
    table is written one local slot (a row over all elements) at a time,
    then transposed once."""
    dim, N = mesh.dim, int(order)
    require(N >= 1, "order must be >= 1", SolverError)
    n_int, n_elem, n_corner = N - 1, mesh.n_elements, mesh.n_nodes
    require(n_corner**2 < 2**63, f"{n_corner} nodes overflow 64-bit corner-pair keys", SolverError)
    ct = mesh.elements.T  # (2**dim, n_elem)
    table = np.empty(((N + 1) ** dim, n_elem), dtype=np.int64)  # element_dofs transposed
    table[np.concatenate([_slot_positions(c, (), N, dim) for c in range(2**dim)])] = ct
    nxt = n_corner

    edge_keys = edge_inv = None
    if dim >= 2:
        slots = _EDGE_SLOTS[dim]
        a, b = ct[[s[0] for s in slots]], ct[[s[1] for s in slots]]  # (n_slots, n_elem)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inv = unique_rows((lo * n_corner + hi).reshape(-1, 1))
        edge_keys = np.stack([lo.ravel()[first], hi.ravel()[first]], axis=1)
        inv = inv.reshape(len(slots), n_elem)
        edge_inv = np.ascontiguousarray(inv.T)
        if n_int:  # each edge runs from its lower global corner to its higher one
            t = np.arange(n_int)[:, None]
            ids = np.where((a > b)[:, None, :], n_int - 1 - t, t) + (nxt + inv * n_int)[:, None, :]
            # An edge slot's free axis is the one its two corners differ on.
            pos = [_slot_positions(p, (dim - (p ^ q).bit_length(),), N, dim) for p, q in slots]
            table[np.concatenate(pos)] = ids.reshape(-1, n_elem)
            nxt += len(edge_keys) * n_int

    face_keys = face_inv = None
    if dim == 3:
        q = ct[[list(c4) for c4, _, _ in _HEX_FACE_SLOTS]]  # (6, 4, n_elem) in (s, t) layout
        quad = np.sort(q, axis=1)
        pairs = quad[:, 0::2] * n_corner + quad[:, 1::2]  # (6, 2, n_elem)
        _, first, inv = unique_rows(pairs.transpose(0, 2, 1).reshape(-1, 2))
        face_keys = quad.transpose(0, 2, 1).reshape(-1, 4)[first]
        inv = inv.reshape(6, n_elem)
        face_inv = np.ascontiguousarray(inv.T)
        if n_int:
            # The canonical frame's origin is the smallest corner, slot o;
            # its s- and t-neighbours are slots o ^ 2 and o ^ 1.
            o = q.argmin(axis=1)
            adj = [np.take_along_axis(q, (o ^ k)[:, None], axis=1)[:, 0] for k in (2, 1)]
            ids = _face_orientation_perms(N).T.take(2 * o + (adj[0] < adj[1]), axis=1)
            ids += nxt + inv * n_int * n_int  # (n_int**2, 6, n_elem)
            pos = [_slot_positions(c4[0], (s, t), N, 3) for c4, s, t in _HEX_FACE_SLOTS]
            table[np.stack(pos, axis=1).ravel()] = ids.reshape(-1, n_elem)
            nxt += len(face_keys) * n_int * n_int

    if n_int:
        n_inner = n_int**dim
        inner = nxt + np.arange(n_elem) * n_inner + np.arange(n_inner)[:, None]
        table[_slot_positions(0, tuple(range(dim)), N, dim)] = inner
        nxt += n_elem * n_inner

    return TensorDofLayout(
        order=N,
        dim=dim,
        element_dofs=table.T.copy(),
        n_dof=nxt,
        n_corner=n_corner,
        edge_keys=edge_keys,
        edge_inv=edge_inv,
        face_keys=face_keys,
        face_inv=face_inv,
    )


def _sq_dist(deltas: np.ndarray) -> np.ndarray:
    """Sums of squares of ``(dim, n)`` per-axis differences, axis by axis."""
    return sum(d * d for d in deltas)


def _rows(ids: np.ndarray | None):
    """Per-element row selector of ``ids`` (every element when ``None``)."""
    return slice(None) if ids is None else np.asarray(ids)


# ----------------------------------------------------------------------
# The dimension-generic assembler
# ----------------------------------------------------------------------
class SemND:
    """Order-``order`` SEM on a conforming mesh of axis-aligned
    box elements, generic over ``mesh.dim`` in (1, 2, 3) *and* over the
    physics (components per GLL node).

    The base class is the scalar acoustic discretization; vector-valued
    physics subclass it and override the small hook set —
    :meth:`_n_components`, :meth:`_setup_physics`, :meth:`kernel` —
    while the DOF layout (component-interleaved ``n_comp * node +
    comp``), mass, Dirichlet masking and the operator live here exactly
    once (see :class:`ElasticSemND`).

    DOF numbering is entity-based (see :func:`number_dofs`), so any
    conforming mesh — not just structured grids — assembles correctly,
    with shared edge and face nodes oriented consistently.  In 1D the
    mesh's corner nodes keep their ids and each element's ``order - 1``
    interior nodes follow in element order, so ``node_coords[:, 0]`` is
    *not* sorted; ``element_dofs[e]`` lists element ``e``'s nodes left to
    right.

    ``material=`` (a :class:`repro.sem.materials.IsotropicAcoustic`)
    enables variable-density acoustics (``rho`` per element, scalars
    broadcast): the operator becomes ``rho u_tt = div(rho c^2 grad u)``;
    the default is the mesh's wave speed ``mesh.c`` at unit density.
    """

    #: Material class this assembler family consumes (subclasses narrow).
    material_cls: type[Material] = IsotropicAcoustic

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material: Material | None = None,
    ):
        require(mesh.dim in (1, 2, 3), "SemND requires dim in (1, 2, 3)", SolverError)
        require(order >= 1, "order must be >= 1", SolverError)
        if not hasattr(self, "material"):
            # Scalar acoustic base: the material defaults to the mesh's
            # per-element wave speed with unit density.
            if material is None:
                material = IsotropicAcoustic(mesh.c)
            require(
                isinstance(material, self.material_cls),
                f"{type(self).__name__} needs a {self.material_cls.__name__} material",
                SolverError,
            )
            self.material = material.expand(mesh.n_elements)
        self.mesh = mesh
        self.dim = mesh.dim
        self.order = int(order)
        self.dirichlet = bool(dirichlet)
        self.n_comp = int(self._n_components())

        N = self.order
        nc = self.n_comp

        # Geometry: per-axis sizes of the axis-aligned boxes.
        self.h_axes = element_axis_sizes(mesh)

        # Entity-based global numbering of the scalar (per-node) space;
        # vector physics interleave components on top of it.
        self._layout = number_dofs(mesh, N)
        self.scalar_dofs = self._layout.element_dofs
        self.n_scalar = self._layout.n_dof
        self.n_dof = nc * self.n_scalar
        self.element_dofs = self.scalar_dofs if nc == 1 else (
            (nc * self.scalar_dofs)[:, :, None] + np.arange(nc)
        ).reshape(mesh.n_elements, -1)

        # Node coordinates come on demand (node_coords, nearest_dof) from
        # each element's first corner, its sizes and the GLL abscissae.
        self._p0 = mesh.coords[mesh.elements[:, 0]]
        # Per-axis (dim, n_elem) element boxes padded by 10x the corner slack
        # element_axis_sizes admits: each holds every node value any
        # element computes for one of its nodes.
        self._pad = 1e-7 + 1e-4 * np.abs(mesh.coords).max()
        p0, pad = self._p0, self._pad
        self._boxes = ((p0 - pad).T.copy(), (p0 + self.h_axes + pad).T.copy())

        # Per-element physics parameters (acoustic: the per-axis scales).
        self._setup_physics()

        # Diagonal (lumped) mass: rho * |J| * (w (x) ... (x) w), the same
        # on every component of a node, so summed once per node (the
        # summands of each component's sum, in its order) and repeated.
        M = np.bincount(
            self.scalar_dofs.ravel(), weights=self._node_mass().ravel(), minlength=self.n_scalar
        )
        self.M = M if nc == 1 else np.repeat(M, nc)

        # Dirichlet mask: every product masks its columns with it.
        self.dirichlet_mask: np.ndarray | None = None
        if dirichlet:
            mask = np.ones(self.n_dof)
            mask[self.boundary_dofs()] = 0.0
            self.dirichlet_mask = mask

    # ------------------------------------------------------------------
    # Physics hooks (base class: scalar acoustic)
    # ------------------------------------------------------------------
    def _n_components(self) -> int:
        """Displacement components per GLL node (1 = scalar physics)."""
        return 1

    def _setup_physics(self) -> None:
        """Derive the per-element physics parameter arrays from the
        resolved material.

        Runs after geometry and numbering, before mass and stiffness
        assembly.  The acoustic base derives the per-axis stiffness
        scales from the modulus ``kappa = rho c^2`` (with the default
        unit density this is bit-identical to the classical ``c^2``
        scaling), so the operator discretizes ``rho u_tt = div(kappa
        grad u)`` and ``c`` stays the propagation speed under
        heterogeneous density.
        """
        self.axis_scales = acoustic_axis_scales(self.material.modulus(), self.h_axes)

    def max_velocity(self) -> np.ndarray:
        """Per-element maximal wave speed of the material — the ``c_i``
        of the CFL condition (Eq. (7)).  Pass the assembler itself to
        :func:`repro.core.levels.assign_levels` /
        :func:`repro.core.cfl.cfl_timestep` via ``assembler=`` and this
        is pulled automatically."""
        return self.material.max_velocity()

    def kernel(self, ids: np.ndarray | None = None) -> AcousticKernelND:
        """The matrix-free element kernel of elements ``ids`` (all when
        ``None``): what :func:`repro.sem.matfree.stiffness_share`
        applies."""
        return AcousticKernelND(self.order, self.axis_scales[_rows(ids)])

    def kernel_spec(self, ids: np.ndarray | None = None):
        """:meth:`kernel` under the name ``benchmarks/e2e/solver_bench.py``
        reads the kernel's coefficient arrays (``.params``) through."""
        return self.kernel(ids)

    # ------------------------------------------------------------------
    def operator(
        self,
        backend: str = "matfree",
        use_fused: bool | None = None,
        threads: int | None = None,
    ):
        """The matrix-free stiffness operator ``A = M^{-1} K`` (no matrix,
        :mod:`repro.sem.matfree`); ``backend`` accepts only ``"matfree"``.
        ``use_fused`` selects the optional fused C kernels (``None`` =
        auto); ``threads`` their OpenMP element loop (``None`` serial,
        ``0`` auto-detect — see :func:`repro.sem.matfree.resolve_threads`).
        """
        return operator_for(self, backend, use_fused=use_fused, threads=threads)

    def _node_mass(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Diagonal element mass per node ``(m, n_loc)`` of elements ``ids``
        (all when ``None``): ``rho |J|`` times the tensor GLL weights."""
        ids = np.arange(self.mesh.n_elements) if ids is None else np.asarray(ids)
        wq = tensor_quadrature_weights(self.order, self.dim)
        jac = self.h_axes[ids].prod(axis=1) / (2.0**self.dim)
        return (self.material.density()[ids] * jac)[:, None] * wq[None, :]

    def boundary_dofs(self) -> np.ndarray:
        """Global DOFs on the domain boundary (all components of the
        boundary nodes; see :meth:`TensorDofLayout.boundary_dofs`)."""
        b = self._layout.boundary_dofs()
        if self.n_comp == 1:
            return b
        return (self.n_comp * b[:, None] + np.arange(self.n_comp)).ravel()

    def _node_values(self, elems, slots: np.ndarray, n: int) -> np.ndarray:
        """``(n, dim)`` coordinates of the nodes of the elements ``elems``,
        whose ``scalar_dofs`` read ``slots`` in ``0..n-1``: every element
        writes the values it computes (``p0 + x_gll * h`` per axis), in
        ravel order, so a shared node keeps its last writer's."""
        n1, dim = self.order + 1, self.dim
        gx = (gll_points_weights(self.order)[0] + 1.0) * 0.5
        flat = np.arange(n1**dim)
        coords = np.zeros((n, dim))
        for a in range(dim):
            ia = (flat // n1 ** (dim - 1 - a)) % n1
            vals = self._p0[elems, a : a + 1] + gx[None, :] * self.h_axes[elems, a : a + 1]
            coords[slots.ravel(), a] = vals[:, ia].ravel()
        return coords

    @cached_property
    def node_coords(self) -> np.ndarray:
        """``(n_scalar, dim)`` GLL node coordinates, built on first access
        (no setup stage reads them; :meth:`nearest_dof` computes its few)."""
        return self._node_values(slice(None), self.scalar_dofs, self.n_scalar)

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolant of ``f(x[, y[, z]])`` (vectorized callable)."""
        args = [self.node_coords[:, a] for a in range(self.dim)]
        return np.asarray(f(*args), dtype=np.float64)

    def nearest_dof(self, *point: float) -> int:
        """Global DOF closest to ``point`` (one coordinate per axis), ties to
        the lowest id: the brute-force ``argmin`` over :attr:`node_coords`,
        computed without building it.

        Every value an element computes for a node lies in the padded box
        of each element holding the node, and a box's distance, summed per
        axis alike, is bitwise <= that of any value in it.  The nearest
        box's own node grid, each per-axis distance lengthened by the pad,
        bounds the best distance from above (at the grid node whose per-axis
        terms are least).  The elements whose boxes lie within
        that bound hold every node no farther, and every element holding
        such a node, so those nodes get their last writer's value as in
        :attr:`node_coords`; a node whose last writer lies outside is
        farther than the bound whatever value it gets."""
        require(len(point) == self.dim, "point must have one coordinate per axis", SolverError)
        x = np.array(point, dtype=np.float64)
        require(bool(np.isfinite(x).all()), f"point must be finite, got {point}", SolverError)
        (lo, hi), xc = self._boxes, x[:, None]
        box = _sq_dist(np.maximum(np.maximum(lo - xc, xc - hi), 0.0))
        e, gx = np.argmin(box), (gll_points_weights(self.order)[0] + 1.0) * 0.5
        own = self._p0[e, :, None] + gx * self.h_axes[e, :, None]  # (dim, n1) per-axis values
        bound = _sq_dist((np.abs(own - xc) + self._pad).min(axis=1))  # at its nearest node
        near = np.flatnonzero(box <= bound)
        ids, slots = np.unique(self.scalar_dofs[near], return_inverse=True)
        y = self._node_values(near, slots, len(ids))
        return int(ids[np.argmin(_sq_dist((y - x).T))])


# ----------------------------------------------------------------------
# Vector-valued physics: shared conveniences
# ----------------------------------------------------------------------
class VectorSemMixin:
    """Component-addressing conveniences shared by every vector-valued
    assembler (isotropic and anisotropic elastic): the interleaved
    layout ``n_comp * node + comp`` exposed as per-component views."""

    def component_dofs(self, comp: int) -> np.ndarray:
        """All global DOFs of displacement component ``comp`` (0 = x)."""
        require(0 <= comp < self.n_comp, f"comp must be in 0..{self.n_comp - 1}", SolverError)
        return np.arange(comp, self.n_dof, self.n_comp)

    def interpolate(self, *fs) -> np.ndarray:
        """Nodal interpolant of a vector field, one vectorized callable
        per displacement component."""
        require(len(fs) == self.n_comp, "one callable per component", SolverError)
        args = [self.node_coords[:, a] for a in range(self.dim)]
        out = np.zeros(self.n_dof)
        for c, f in enumerate(fs):
            out[c :: self.n_comp] = f(*args)
        return out

    def nearest_dof(self, *point: float, comp: int = 0) -> int:
        """Global DOF of component ``comp`` nearest to ``point``."""
        require(0 <= comp < self.n_comp, f"comp must be in 0..{self.n_comp - 1}", SolverError)
        return self.n_comp * super().nearest_dof(*point) + int(comp)


# ----------------------------------------------------------------------
# Isotropic elastic physics, generic over dimension
# ----------------------------------------------------------------------
class ElasticSemND(VectorSemMixin, SemND):
    """Isotropic elastic SEM (the paper's Eqs. (1)-(2)) on a conforming
    mesh of axis-aligned box elements, generic over ``mesh.dim``.

    ``dim`` displacement components per GLL node, component-interleaved
    (``dim * node + comp``); per-element Lamé parameters ``lam``, ``mu``
    and density ``rho`` (scalars broadcast); free-surface (natural)
    boundaries by default, optional homogeneous Dirichlet clamping.

    The matrix-free operator (:class:`repro.sem.matfree.ElasticKernelND`,
    built by :meth:`kernel`) applies it in SPECFEM's stress form, the
    one general anisotropy runs
    (:class:`repro.sem.matfree.AnisotropicKernelND`): gradient, the
    pointwise stress of the isotropic tensor ``isotropic_stiffness(lam,
    mu, dim)`` times the axis-pair scales of
    :func:`elastic_pair_scales`, weighted divergence.  The assembled
    per-axis-pair block form it reduces to is the tests' CSR oracle's
    (``tests/oracles/csr.py``).

    ``mesh.c`` is *ignored* for material properties; LTS levels should
    follow the per-element P-wave speed (Eq. (7)) — pass the assembler
    as ``assembler=`` to :func:`repro.core.levels.assign_levels` and the
    maximal material speed (here: P) is pulled automatically.

    Parameters come as a :class:`repro.sem.materials.IsotropicElastic`
    ``material=`` (default ``lam = mu = rho = 1``), read back through
    ``self.material``.  ``mu = 0`` elements are fluid (acoustic-limit)
    inclusions: their S speed is 0, so level assignment and CFL must use
    the P speed — which ``max_velocity`` / ``assembler=`` do.  A 1D mesh
    is refused: elastic waves need ``dim`` in (2, 3).
    """

    material_cls = IsotropicElastic

    def __init__(
        self,
        mesh: Mesh,
        order: int = 4,
        dirichlet: bool = False,
        material: IsotropicElastic | None = None,
    ):
        require(mesh.dim in (2, 3), "elastic SEM requires dim in (2, 3)", SolverError)
        if material is None:
            material = IsotropicElastic()
        require(
            isinstance(material, self.material_cls),
            f"{type(self).__name__} needs a {self.material_cls.__name__} material",
            SolverError,
        )
        self.material = material.expand(mesh.n_elements)
        super().__init__(mesh, order=order, dirichlet=dirichlet)

    # -- hooks ----------------------------------------------------------
    def _n_components(self) -> int:
        return self.mesh.dim

    def _setup_physics(self) -> None:
        pass  # lam/mu/rho are validated by the material before super()

    def kernel(self, ids: np.ndarray | None = None) -> ElasticKernelND:
        sl = _rows(ids)
        m = self.material
        return ElasticKernelND(self.order, m.lam[sl], m.mu[sl], self.h_axes[sl])

    # -- wave speeds ----------------------------------------------------
    def p_velocity(self) -> np.ndarray:
        """Per-element P-wave speed ``sqrt((lambda + 2 mu) / rho)``.

        This is the ``c_i`` of the CFL condition (Eq. (7)) — what
        ``assembler=`` pulls in :func:`repro.core.levels.assign_levels`
        so LTS levels follow the compressional speed, as the paper
        prescribes.
        """
        return self.material.p_velocity()

    def s_velocity(self) -> np.ndarray:
        """Per-element S-wave speed ``sqrt(mu / rho)`` — exactly 0 on
        fluid (``mu = 0``) elements, so never feed it to CFL or level
        assignment (those guard against non-positive speeds); use
        :meth:`p_velocity` / :meth:`max_velocity`."""
        return self.material.s_velocity()

    # Vector-field conveniences (component_dofs, vector interpolate,
    # component-aware nearest_dof) come from VectorSemMixin.
