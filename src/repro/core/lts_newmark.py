"""Multi-level LTS-Newmark (paper Sec. II, Algorithm 1, generalized).

One *LTS cycle* advances the whole system by the coarse step ``dt``.
Level 1 (coarsest) freezes its stiffness contribution ``w = A P_1 u^n``
over the cycle; the remaining levels advance an auxiliary system

    du~/dtau = v~,   dv~/dtau = -A P_1 u^n - A P_2 u~ - ... ,

recursively: each level ``k`` freezes ``z_k = A P_k u~`` over its own step
``dt / 2**(k-1)`` while the finer levels substep inside it, and
reconstructs its staggered velocity from the substepped displacement
(``v <- v + 2 (u_fine - u) / dt_k``, Eq. (14)).  With a single level the
scheme *is* explicit Newmark, and that is how Newmark runs:
:class:`NewmarkSolver` is the one-level :class:`LTSNewmarkSolver`, its
one product the operator's own (a restriction to every column is no
copy and no mask, :mod:`repro.core.operator`).

One implementation steps it, the variant the paper's Sec. II-C
describes as requiring "great care": a substep costs work proportional
to its *active set* (DOFs of levels >= k plus their stiffness halo --
the paper's gray nodes), never to the mesh.  Empty levels are skipped by
doubling the substep ratio.  Three pieces:

* *restricted applies*: level ``k`` precomputes the product
  ``A[:, dofs(level k)] u[dofs(level k)]`` (:meth:`StiffnessOperator
  .restrict`), which reads only the level's columns and overwrites its
  whole output, zero off its row support;
* *depth 0 is plain Newmark plus a fix-up*: outside the coarsest active
  set the auxiliary system sees a constant force, a leap-frog chain
  under constant force is exactly quadratic (``u(T) = u(0) - T^2/2
  F``), and that closed form followed by the velocity reconstruction
  *is* ``v -= dt F; u += dt v`` -- one streaming step; the active rows
  take the recursion's result instead;
* *a compact recursion on one level-sorted numbering*: the active sets
  are nested, so the order ``[~act_1, act_1 \\ act_2, ..., act_last]``
  makes every depth's active set a tail of the vector, and every
  product is relabelled onto it once, at plan build
  (:meth:`~repro.core.operator.Restriction.renumber`).  Each depth holds
  its vectors at its tail's length, a substep is one apply on them plus
  contiguous passes, and depth 0 steps the prefix and updates the tail
  in place: no index array is touched in a cycle.

Each vector phase exists twice, with bitwise the same arithmetic: as a
few NumPy passes, and, where the level-1 product runs the fused C tier,
as one C loop (:mod:`repro.sem.fused`) each.

Its oracle is the literal transcription of Algorithm 1 -- a full-size
product per substep, full-length vector updates -- kept with the tests
(``tests/oracles/algorithm1.py``).  The two agree to machine precision
(tested), which is the paper's implicit claim that the active-set cycle
computes *the same scheme* with the minimal op set.

The cycle exists once, for one solver or many ranks — the
paper parallelises the SPECFEM way (Sec. III): every rank runs the
serial substep and a neighbour sum follows each stiffness application.
:class:`_RankState` holds the compact state of one DOF numbering (the
whole mesh, or one rank's local DOFs) and does the arithmetic in
*phases*, cut exactly where a level's apply output must be summed over
the ranks sharing its rows; :class:`_LockStepCycle` runs the phases over
a list of states with a ``_sum_shared(level)`` hook at each cut.
:class:`LTSNewmarkSolver` is that driver over one state, its hook doing
nothing; :class:`repro.runtime.executor.DistributedLTSSolver` the same
driver over one state per rank, its hook the halo exchange.  Both step
one :class:`LTSPlan`, whose every numbering applies its share of
``M^{-1} K`` (``1/M`` folded into a CSR or NumPy product's entries; a
fused product is raw, and the phases multiply its summed output by the
numbering's ``Minv`` as they first read it): a rank adds the halo sum
and nothing else, so one rank is the serial run bit for bit.

The solver is backend- and dimension-agnostic: ``A`` is a scipy sparse
matrix (a caller's own) or any
:class:`repro.core.operator.StiffnessOperator`, such as the matrix-free
one of :mod:`repro.sem.matfree`, whose level restriction applies only
the active level's elements plus their gray halo, as SPECFEM does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.newmark import Fields, ReplicaMap, run_cycles
from repro.core.operator import Restriction, _restrict_levels, as_operator
from repro.core.workspace import workspace_bytes
from repro.sem.fused import bind_phase
from repro.util.errors import SolverError
from repro.util.validation import check_positive, require


# ----------------------------------------------------------------------
# DOF-level assignment
# ----------------------------------------------------------------------
def dof_levels_from_elements(
    element_dofs: np.ndarray, element_levels: np.ndarray, n_dof: int
) -> np.ndarray:
    """Per-DOF level: the finest (largest) level of any touching element.

    This realizes the paper's selection matrices ``P_k``: a node shared by
    a fine and a coarse element belongs to the fine set (it must be
    updated at the fine rate), making the coarse-side copies the "gray
    halo" nodes of Fig. 2.
    """
    element_dofs = np.asarray(element_dofs)
    element_levels = np.asarray(element_levels)
    require(
        element_dofs.ndim == 2 and len(element_levels) == element_dofs.shape[0],
        "element_dofs must be (n_elem, dofs_per_elem) matching element_levels",
        SolverError,
    )
    dof_level = np.zeros(n_dof, dtype=np.int64)
    per_dof = np.repeat(element_levels, element_dofs.shape[1])
    np.maximum.at(dof_level, element_dofs.ravel(), per_dof)
    require(bool(np.all(dof_level >= 1)), "some DOFs belong to no element", SolverError)
    return dof_level


# ----------------------------------------------------------------------
# Operation accounting
# ----------------------------------------------------------------------
@dataclass
class OperationCounter:
    """Counts the arithmetic a careful native implementation would perform.

    ``stiffness_ops`` counts the work of stiffness applications in the
    operator backend's unit — touched nonzeros (= multiply-adds) for
    assembled sparse products, tensor-contraction flops for the
    matrix-free backend (see :mod:`repro.core.operator`); both scale
    identically between a full apply (``A.nnz``) and the per-level
    restricted applies, so Eq. (9) speedup ratios are backend-consistent.
    ``vector_ops`` counts elements touched by the arithmetic passes of
    the vector updates (gathers, scatters and copies are not counted).  The
    serial-efficiency benchmark (paper Eq. (9), Sec. II-C) compares LTS
    cycles against non-LTS steps in these units.  A cycle adds its plan's
    closed form once (:meth:`NumberingPlan.ops_per_cycle`); the tests'
    Algorithm 1 oracle counts as it runs, and holds that form to it.
    """

    stiffness_ops: int = 0
    vector_ops: int = 0
    applications_per_level: dict[int, int] = field(default_factory=dict)

    def count_stiffness(self, level: int, nnz: int, times: int = 1) -> None:
        self.stiffness_ops += times * int(nnz)
        self.applications_per_level[level] = self.applications_per_level.get(level, 0) + times

    def count_vector(self, n: int) -> None:
        self.vector_ops += int(n)

    def add(self, other: "OperationCounter") -> "OperationCounter":
        """Add ``other``'s counts to this counter, which is returned."""
        self.stiffness_ops += other.stiffness_ops
        self.vector_ops += other.vector_ops
        for level, n in other.applications_per_level.items():
            self.applications_per_level[level] = self.applications_per_level.get(level, 0) + n
        return self

    @property
    def total_ops(self) -> int:
        return self.stiffness_ops + self.vector_ops

    def reset(self) -> None:
        self.stiffness_ops = 0
        self.vector_ops = 0
        self.applications_per_level.clear()

    def snapshot(self) -> "OperationCounter":
        """Detached copy of the current counts (safe to keep across
        :meth:`reset` — used for per-repetition benchmark reporting)."""
        return OperationCounter().add(self)


def newmark_cycle_ops(A, n_substeps: int) -> int:
    """Op count for ``n_substeps`` plain Newmark steps (the non-LTS cost).

    ``A`` is any sparse matrix or :class:`~repro.core.operator
    .StiffnessOperator` (``nnz`` = ops per full apply either way).
    """
    n = A.shape[0]
    return n_substeps * (A.nnz + 2 * n)


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
@dataclass
class _Depth:
    """One recursion depth of the cycle, the auxiliary system
    of one fine level on its active set, the numbering's last ``n``
    entries: the level's product relabelled onto that tail (a plan's,
    shared by its solvers), and the compact state :meth:`bind` adds —
    every vector, the apply output included, of the tail's length."""

    level: int
    restr: Restriction  # on the tail
    n: int  # active-set length: the numbering's last n entries
    n_diff: int  # leading entries outside the next finer depth's active set
    z: np.ndarray | None = None  # the level's apply output
    u: np.ndarray | None = None  # displacement, velocity, frozen forcing
    v: np.ndarray | None = None  # (a view, see bind) and scratch
    F: np.ndarray | None = None
    r: np.ndarray | None = None

    def bind(self, F: np.ndarray) -> "_Depth":
        """This depth ready to step: fresh state vectors, a fork of its
        product, and ``F``, a view of its parent's summed output on this
        depth's set (``z1``'s tail, or the parent depth's ``r``'s)."""
        return replace(self, restr=self.restr.fork(), F=F,
                       **{k: np.empty(self.n) for k in "zuvr"})


def compact_depths(
    levels: list[int], make: list[Callable[..., Restriction]], masks: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[_Depth]]:
    """The level-sorted numbering and compact recursion of the fine
    ``levels`` (ascending, the coarsest active level excluded) of one DOF
    numbering — the whole mesh, or one rank's local DOFs.

    ``masks[i]`` is depth ``i``'s active set and ``make[i](idx, pos,
    off)`` builds its level's restricted product, which must read and
    write inside it, on a numbering.  The sets are nested, so the order
    ``[~act_1, act_1 \\ act_2, ..., act_last]`` (each block ascending: a
    stable counting sort by how many sets hold a DOF) makes every
    depth's set a tail, and the part its child does not cover — where
    the closed form applies — a prefix of that tail.  Returns the order
    (position ``j`` holds DOF ``order[j]``), its inverse, and the
    depths, each product built on its tail through that one inverse.
    """
    depth = np.zeros(len(masks[0]), dtype=np.int16)  # how many of the sets hold a DOF
    for m in masks:
        depth += m
    blocks = [np.flatnonzero(depth == d) for d in range(len(masks) + 1)]
    order = np.concatenate(blocks, dtype=np.int32, casting="same_kind")
    inv = np.empty(len(order), dtype=np.int32)  # int32 both: half the bytes of int64
    inv[order] = np.arange(len(order), dtype=np.int32)
    sizes = [len(b) for b in blocks]
    starts = np.cumsum(sizes).tolist()
    return order, inv, [
        _Depth(lv, mk(order[off:], inv, off), len(order) - off,
               nd if i + 1 < len(levels) else 0)
        for i, (lv, mk, off, nd) in enumerate(zip(levels, make, starts, sizes[1:]))
    ]


class _RankState:
    """Buffers and arithmetic of the cycle on one DOF numbering
    (see the module docs), in the phases :class:`_LockStepCycle` runs:
    :meth:`apply_coarse` | :meth:`begin`; per substep :meth:`apply_level`
    | :meth:`update`, the child's substeps, :meth:`reconstruct`; last
    :meth:`finish` (``|``: where several ranks sum the apply output).

    ``restr0`` and the bound ``depths`` arrive forked, relabelled onto
    the level-sorted numbering, each its share of ``M^{-1} K`` — or raw,
    with ``Minv`` the scale ``begin`` and ``update`` multiply a summed
    output by (depth ``i`` by its tail) before adding any forcing.
    ``z1`` is level 1's output, overwritten whole by every apply (as
    every product's output is), so a source entry written into it lasts
    one cycle; its tail is the top depth's ``F``, as each depth's ``r``
    tail is its child's.  ``force`` is the source in this numbering.
    ``tier`` is the kernel tier of the level-1 product: where it is a
    ``fused`` one with a ``Minv``, each vector phase is one C call
    (:meth:`_bind_c`), bitwise the NumPy phases.
    The state never refers back to its solver: through such a cycle the
    buffers of a finished run would wait for the cyclic collector.
    """

    def __init__(self, dt: float, restr0: Restriction, depths: list[_Depth],
                 z1: np.ndarray, force=None, tier: str = "", Minv=None):
        self.dt, self.restr0, self.depths = dt, restr0, depths
        self.z1, self.force, self.Minv = z1, force, Minv
        self.n = len(z1)
        self.n0 = self.n - (depths[0].n if depths else 0)  # the prefix no depth holds
        self.shape = z1.shape  # of the (u, v) this state steps
        #: Per level, ascending, the buffer its apply writes: what the
        #: ranks sum in place when they share rows.
        self.outputs = [z1, *(d.z for d in depths)]
        # Per depth, what each phase unpacks — hoisted here because
        # attribute access per buffer per substep shows on small cycles.
        self._applies, self._updates, self._recons = [], [], []
        # The C phases (:meth:`_bind_c`); None / empty on the NumPy ones.
        self._c_begin = self._c_finish = None
        self._c_updates, self._c_recons = [], []
        for d, kid in zip(depths, depths[1:] + [None]):
            dt_k = dt / float(2 ** (d.level - 1))
            nd = d.n_diff
            self._applies.append((d.restr.apply, d.u, d.z))
            hand = None
            if kid is not None:
                u_in, r_in = d.u[nd:], d.r[nd:]  # the child's set is a suffix
                hand = (kid.u, u_in)
                self._recons.append((kid.u, u_in, r_in, d.r[:nd], d.r, d.u, d.v, dt_k))
            scale = None if Minv is None else Minv[self.n - d.n:]
            self._updates.append((d.z, d.r, d.F, d.u, d.v, dt_k, hand, scale))
        if tier.startswith("fused") and Minv is not None:
            self._bind_c()

    def _bind_c(self) -> None:
        """Bind the C phases to this state's buffers
        (:func:`~repro.sem.fused.bind_phase`): a call then passes nothing
        but, to ``begin`` and ``finish``, the cycle's ``(u, v)``.  Per
        depth, indexed by ``first``, the update's (and a parent depth's
        reconstruct's) bound call."""
        bind, dt, depths, n0 = bind_phase, self.dt, self.depths, self.n0
        du, na0 = (depths[0].u, depths[0].n) if depths else (None, 0)
        self._c_begin = bind("lts_begin", self.z1, self.Minv, n0, dt, du, na0)
        if depths:
            self._c_finish = bind("lts_finish", du, n0, na0, dt)
        for d, kid, upd in zip(depths, depths[1:] + [None], self._updates):
            dt_k, na, nd = upd[5], d.n, d.n_diff
            head = (d.z, upd[7], d.F, d.r, d.u, d.v, na, nd, dt_k, None if kid is None else kid.u)
            self._c_updates.append(tuple(bind("lts_update", *head, f) for f in (0, 1)))
            if kid is not None:  # the others hand over, then reconstruct
                recon = (kid.u, d.r, d.u, d.v, na, nd, dt_k)
                self._c_recons.append(tuple(bind("lts_reconstruct", *recon, f) for f in (0, 1)))

    def nbytes(self) -> int:
        """Bytes of the buffers the phases touch (every ``F`` is a view),
        and of the scratch its restricted products report."""
        bufs = [self.z1]
        for d in self.depths:
            bufs += [d.z, d.u, d.v, d.r]
        restrs = [self.restr0, *(d.restr for d in self.depths)]
        return sum(b.nbytes for b in bufs) + workspace_bytes(*restrs)

    def apply_coarse(self, u: np.ndarray) -> None:
        """``z1 = A P_1 u``, the level's own (unsummed) share."""
        self.restr0.apply(u, out=self.z1)

    def begin(self, u: np.ndarray, v: np.ndarray, t: float) -> None:
        """Freeze ``F_1 = A P_1 u - f(t)``, copy the tail's displacement
        into the recursion, and take plain Newmark on the prefix: with one
        level that is the scheme; with more, the closed form of every DOF
        outside the coarsest active set.  The C phase does all of it in
        one call (a dense force takes the NumPy passes), writing ``F_1``
        on the tail only; the NumPy passes reuse ``z1``'s prefix as the
        step's scratch once ``v`` has read it."""
        z1, dt, n0, force = self.z1, self.dt, self.n0, self.force
        at = -1 if force is None else getattr(force, "dof", None)
        if self._c_begin is not None and at is not None:
            fat = 0.0 if force is None else float(force.value(t))
            self._c_begin(int(at), fat, u.ctypes.data, v.ctypes.data)
            return
        if self.Minv is not None:
            z1 *= self.Minv
        if at is None:
            z1 -= force(t)
        elif at >= 0:  # a point source (PointSource's dof, value): one entry
            z1[at] -= force.value(t)
        if self.depths:
            np.copyto(self.depths[0].u, u[n0:])
        z, u, v = z1[:n0], u[:n0], v[:n0]
        z *= dt
        v -= z
        np.multiply(v, dt, out=z)
        u += z

    def apply_level(self, i: int) -> None:
        """``z = A P_k u~`` for depth ``i``'s level, unsummed: one apply
        of its renumbered product on the depth's own buffers."""
        apply, u, z = self._applies[i]
        apply(u, out=z)

    def update(self, i: int, first: bool) -> None:
        """After the (summed) apply: ``r = F + A P_k u~`` on the active
        set.  The finest depth takes its leap-frog step with it; any
        other hands its child the displacement on the child's set (a
        suffix; ``r`` there is the child's forcing) and waits for
        :meth:`reconstruct`."""
        if self._c_updates:
            self._c_updates[i][first]()
            return
        z, r, F, u, v, dt_k, hand, scale = self._updates[i]
        np.add(z if scale is None else np.multiply(z, scale, out=r), F, out=r)  # scale first
        if hand is not None:
            np.copyto(*hand)
            return
        if first:
            np.multiply(r, -(0.5 * dt_k), out=v)
        else:
            r *= dt_k
            v -= r
        np.multiply(v, dt_k, out=r)
        u += r

    def reconstruct(self, i: int, first: bool) -> None:
        """After the child's substeps: the staggered velocity from the
        substepped displacement, ``v += 2 (u_fine - u) / dt_k`` (Eq.
        (14)).  The leading ``n_diff`` entries, outside the child's set,
        saw a constant force over the child's whole span ``dt_k``, so
        theirs is the closed form ``-dt_k/2 F`` — no ``(u - small) - u``
        cancellation."""
        if self._c_recons:
            self._c_recons[i][first]()
            return
        kid_u, u_in, r_in, r_out, r, u, v, dt_k = self._recons[i]
        np.subtract(kid_u, u_in, out=r_in)
        r_in /= dt_k  # recon = (u_fine - u) / dt_k
        r_out *= -(0.5 * dt_k)
        if first:
            np.copyto(v, r)
        else:
            r *= 2.0
            v += r
        np.multiply(v, dt_k, out=r)
        u += r

    def finish(self, u: np.ndarray, v: np.ndarray) -> None:
        """The tail from the recursion's result, in place: ``v += 2
        (u_fine - u) / dt``, ``u += dt v``."""
        if self._c_finish is not None:
            self._c_finish(u.ctypes.data, v.ctypes.data)
            return
        r, dt, n0 = self.depths[0].r, self.dt, self.n0
        u, v = u[n0:], v[n0:]
        np.subtract(self.depths[0].u, u, out=r)
        r *= 2.0 / dt
        v += r
        np.multiply(v, dt, out=r)
        u += r


def active_levels(dof_levels: list[np.ndarray]) -> list[int]:
    """The non-empty levels over every numbering, ascending: all
    numberings follow one schedule, whether a level is present locally
    or not."""
    require(all(lv.min(initial=1) >= 1 for lv in dof_levels), "levels must be >= 1", SolverError)
    return sorted({int(k) for lv in dof_levels for k in np.flatnonzero(np.bincount(lv))})


@dataclass
class NumberingPlan:
    """One DOF numbering's share of a plan — the whole mesh,
    or one rank's local DOFs: its coarsest level's product, the compact
    recursion of the finer levels, the level-1 product's kernel
    tier (``"assembled"`` for a CSR one): the tier a run records, and
    the operator's ``row_scale`` in this numbering's order (``Minv``:
    ``None`` where the products carry it)."""

    n: int
    level0: int
    restr0: Restriction
    depths: list[_Depth]
    tier: str
    Minv: np.ndarray | None = None

    def bind(self, dt: float, force=None) -> _RankState:
        """A state stepping this numbering: fresh buffers, forked products."""
        z1 = out = np.empty(self.n)
        depths = []
        for d in self.depths:  # each forcing the tail of its parent's output
            depths.append(d.bind(out[len(out) - d.n:]))
            out = depths[-1].r
        return _RankState(dt, self.restr0.fork(), depths, z1, force, self.tier, self.Minv)

    def ops_per_cycle(self) -> OperationCounter:
        """One cycle's operations on this numbering, from the
        plan alone: the coarsest level is applied once, a finer level
        ``k`` ``2**(k-1)`` times, and each vector pass touches entries
        fixed by its depth's active set, ``n_diff`` and ``first``.
        ``begin`` steps the prefix only: the top depth's tail is the
        recursion's, and ``finish``'s."""
        na0 = self.depths[0].n if self.depths else 0
        ops = OperationCounter(self.restr0.ops, 4 * (self.n - na0), {self.level0: 1})
        parent = 1  # substeps of the parent depth per cycle, one first substep each
        for d in self.depths:
            applies, na, nd = 2 ** (d.level - 1), d.n, d.n_diff
            ops.count_stiffness(d.level, d.restr.ops, applies)
            # The finest depth's leap-frog update, or another's reconstruct.
            first, later = (4 * na, 5 * na) if d is self.depths[-1] else (5 * na - nd, 7 * na - nd)
            ops.count_vector(parent * first + (applies - parent) * later)
            parent = applies
        ops.count_vector(5 * na0)  # finish
        return ops


def plan_numberings(stiffness: list, dof_levels: list[np.ndarray], channels=None):
    """The per-numbering work of an :class:`LTSPlan`: over one
    numbering serially, over one per rank on a layout.

    ``stiffness[r]`` makes numbering ``r``'s level products
    (:func:`~repro.core.operator._restrict_levels`: a matrix-free
    stiffness's element subsets, an operator's ``restrict``) and
    ``dof_levels[r]`` holds its DOF levels.  Numberings that share rows
    pass ``channels(supports)``, which makes a level's exchange plan
    from every numbering's row support of that level.  Depth ``i``'s
    active set is, over the levels ``k >= level_i``, the level-``k``
    columns, the rows the level-``k`` product writes and every index
    the level's exchange keeps — a shared DOF only a peer's gray-halo
    element writes still receives a sum there.

    With fine levels each numbering is level-sorted (:func:`compact_depths`)
    and, through its one inverse, the level-1 product is built on the
    whole order and each level's exchange indices relabelled onto the
    tail its output lands in.  Returns the active levels, one
    :class:`NumberingPlan` per numbering, the exchange plan per level
    (``{}`` without ``channels``) and each numbering's ``(order,
    inverse)`` (``None`` with one level: nothing is relabelled).
    """
    levels = active_levels(dof_levels)
    col_masks = [[lv == k for k in levels] for lv in dof_levels]
    # The coarsest level's rows matter only to an exchange (its reach is
    # a pass over nearly every element), so ``supports[r][j - first]``.
    first = 0 if channels else 1
    make, supports = map(list, zip(*(
        _restrict_levels(K, m, first) for K, m in zip(stiffness, col_masks)
    )))
    exchange = {} if channels is None else {
        k: channels([s[j] for s in supports]) for j, k in enumerate(levels)
    }
    numberings, orders = [], [] if len(levels) > 1 else None
    for r, (K, lv) in enumerate(zip(stiffness, dof_levels)):
        depths, numbering = [], ()
        if orders is not None:
            active, acts = np.zeros(len(lv), dtype=bool), []
            for j in range(len(levels) - 1, 0, -1):  # finest first
                active = active | col_masks[r][j] | supports[r][j - first]
                for idx in exchange[levels[j]].indices[r] if exchange else ():
                    active[idx] = True
                acts.append(active)
            order, inv, depths = compact_depths(levels[1:], make[r][1:], acts[::-1])
            numbering = (order, inv)
            # The map's sorter: an index NumPy reads without a converted copy.
            orders.append((order, inv.astype(np.intp)))
        # Level 1's product last, once the other builders (and any
        # ascending products they hold) are gone.
        make0, make[r], supports[r], col_masks[r] = make[r][0], None, None, None
        scale = getattr(K, "row_scale", None)  # what raw products leave to the phases
        scale = scale.take(numbering[0]) if scale is not None and numbering else scale
        numberings.append(NumberingPlan(len(lv), levels[0], make0(*numbering), depths,
                                        getattr(K, "tier", "assembled"), scale))
    for j, k in enumerate(levels if exchange and orders else ()):
        offs = [nb.n - nb.depths[j - 1].n if j else 0 for nb in numberings]
        exchange[k] = replace(exchange[k], indices=[
            [np.subtract(inv[ix], off, dtype=ix.dtype) for ix in per_rank]
            for (_, inv), off, per_rank in zip(orders, offs, exchange[k].indices)
        ])
    return levels, numberings, exchange, orders


_F64 = np.dtype(np.float64)


def _check_fields(states: list[_RankState], us, vs) -> None:
    """Refuse, before any write, fields a cycle cannot step in place:
    one ``(u, v)`` per state, of its length, and writeable aligned
    C-contiguous float64 (``flags.carray``) — the C phases write through
    raw pointers, so a strided view or another dtype would be corrupted,
    not converted.  Plain tests: on a small system this costs as much
    as a vector pass."""
    if len(us) != len(states) or len(vs) != len(states):
        raise SolverError("state shape mismatch: one (u, v) pair per DOF numbering")
    for st, u, v in zip(states, us, vs):
        if u.shape != st.shape or v.shape != st.shape:
            raise SolverError("state shape mismatch: each (u, v) of its numbering's length")
        if not (u.flags.carray and v.flags.carray and u.dtype == _F64 and v.dtype == _F64):
            raise SolverError("u and v must be writeable C-contiguous float64 arrays")


class _LockStepCycle:
    """One LTS cycle over ``self._states`` in lock step, and
    what a solver keeps around it: the schedule position and ``run``.
    A subclass sets ``plan`` (whose ``replicas`` lay out the fields it
    steps) and ``active_levels`` and binds its numberings
    (:meth:`_bind`); several numberings need :meth:`_sum_shared`.
    """

    #: Optional :class:`OperationCounter`: every cycle adds ``_ops`` to it.
    counter: OperationCounter | None = None

    def __init__(self, dt: float, force):
        self.dt = check_positive(dt, "dt", SolverError)
        self.force = force
        self.t = 0.0
        self.n_cycles_taken = 0
        self._states: list[_RankState] = []

    def _bind(self, numberings: list[NumberingPlan]) -> None:
        """A :class:`_RankState` per numbering, with the force in its
        order, and ``_ops``: one cycle's operations."""
        forces = [None] * len(numberings) if self.force is None else (
            self.plan.replicas.forces(self.force))
        self._states = [nb.bind(self.dt, f) for nb, f in zip(numberings, forces)]
        self._ops = OperationCounter()
        for nb in numberings:
            self._ops.add(nb.ops_per_cycle())

    def _sum_shared(self, level: int) -> None:
        """Sum ``level``'s fresh apply outputs over the numberings that
        share rows (one numbering: nothing to do)."""

    def check_no_leaks(self) -> None:
        """Verify no message is left undelivered after a run (no mailbox:
        nothing to do)."""

    def cycle(self, us, vs) -> None:
        """Advance every numbering's ``(u^n, v^{n-1/2})`` by the coarse
        ``dt``, in place: one replica pair per state, each of its length
        and in its order (``plan.replicas``' ``scatter`` makes them from
        global vectors, its ``gather`` the global result)."""
        states, levels = self._states, self.active_levels
        _check_fields(states, us, vs)
        for st, u in zip(states, us):
            st.apply_coarse(u)
        self._sum_shared(levels[0])
        for st, u, v in zip(states, us, vs):
            st.begin(u, v, self.t)
        if len(levels) > 1:
            self._advance(0, 2 ** (levels[1] - 1))
            for st, u, v in zip(states, us, vs):
                st.finish(u, v)
        self.t += self.dt
        self.n_cycles_taken += 1
        if self.counter is not None:
            self.counter.add(self._ops)

    def _advance(self, i: int, n_steps: int) -> None:
        """Advance the auxiliary system of levels ``active_levels[i+1:]``
        on every numbering's active set: ``n_steps`` steps of size ``dt /
        2**(level-1)`` from the displacement and frozen coarser forcing
        the caller filled in, the auxiliary velocity starting at zero."""
        states, levels = self._states, self.active_levels
        level = levels[i + 1]
        ratio = 2 ** (levels[i + 2] - level) if i + 2 < len(levels) else 0
        for s in range(n_steps):
            for st in states:
                st.apply_level(i)
            self._sum_shared(level)
            for st in states:
                st.update(i, s == 0)
            if ratio:
                self._advance(i + 1, ratio)
                for st in states:
                    st.reconstruct(i, s == 0)

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing: completed-cycle count
        and simulated time.  The LTS schedule is RNG-free and repeats
        identically every cycle, so the cycle index *is* the full
        schedule position; the fields live with the caller."""
        return {"t": self.t, "cycle": self.n_cycles_taken}

    def restore(self, state: dict) -> None:
        """Resume the schedule position saved by :meth:`state`.

        With field vectors restored alongside, continuing is bitwise
        identical to the uninterrupted run (same operator, same
        summation order, same force sampling times)."""
        self.t = float(state["t"])
        self.n_cycles_taken = int(state["cycle"])

    def run(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        n_cycles: int,
        health: HealthGuard | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint: Callable | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate ``n_cycles`` LTS cycles from the global staggered
        ``(u0, v^{-1/2})``; returns global vectors, inputs untouched.

        ``health`` runs a :class:`~repro.core.health.HealthGuard` on
        its cadence; ``on_checkpoint(cycle, us, vs)`` fires every
        ``checkpoint_every`` completed cycles with copies of the
        replica lists, each ascending in global DOF id (cycle counts are
        the solver totals, so resumed runs keep their cadence).
        """
        m = self.plan.replicas
        return run_cycles(
            self, Fields(m, m.scatter(u0), m.scatter(v0)), n_cycles, health=health,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
        )


class LTSPlan:
    """What a solver derives from its products and DOF levels alone:
    :func:`plan_numberings` over one numbering per replica — the
    non-empty levels (:attr:`active_levels`, ascending: the coarsest sets
    the cycle step), :attr:`numberings` (level restrictions relabelled
    onto the level-sorted order, the compact recursion) and the
    per-level :attr:`exchange` channels — and :attr:`replicas`, the map
    that lays the fields out in those orders.  ``A`` is the serial
    ``M^{-1} K`` with ``dof_level``: one numbering, no channels.  Or it
    is a :class:`~repro.runtime.halo.RankLayout` carrying its levels,
    kept as :attr:`layout`: one numbering per rank (each product the
    rank's share of ``M^{-1} K``), its channels.  Stepping changes none
    of it, so one plan serves any number of solvers, concurrently too:
    :meth:`bind` gives each its own buffers and operator scratch.
    """

    def __init__(self, A, dof_level: np.ndarray | None = None):
        if isinstance(A, ReplicaMap):  # a rank layout
            require(
                len(A.dof_level_local) == A.n_ranks,
                "layout must carry dof levels (build_rank_layout(dof_level=...))",
                SolverError,
            )
            self.layout = A
            self.active_levels, self.numberings, self.exchange, orders = plan_numberings(
                A.K_local, A.dof_level_local, channels=A.exchange_channels
            )
            self.replicas = A if orders is None else A.reorder(orders)
            return
        self.op = as_operator(A)
        n = self.op.shape[0]
        require(self.op.shape == (n, n), "A must be square", SolverError)
        self.n_dof = n
        dof_level = np.asarray(dof_level, dtype=np.int64)
        require(dof_level.shape == (n,), "dof_level must be (n,)", SolverError)
        self.active_levels, self.numberings, self.exchange, orders = plan_numberings(
            [self.op], [dof_level]
        )
        if orders:  # the serial map: its one replica's ids are the order
            ((order, inv),) = orders
            self.replicas = ReplicaMap(n, [order], [np.ones(n, dtype=bool)], sorter=[inv])

    def bind(self, dt: float, force=None, world=None) -> "_LockStepCycle":
        """A solver stepping this plan: only buffers are allocated.  A
        plan with channels steps its ranks through ``world`` (a fresh
        mailbox world by default) in the runtime's
        :class:`~repro.runtime.executor.DistributedLTSSolver`."""
        if not self.exchange:
            require(world is None, "a plan without channels steps no world", SolverError)
            return LTSNewmarkSolver(self, None, dt, force=force)
        from repro.runtime.executor import DistributedLTSSolver  # the layer above this one

        return DistributedLTSSolver(self, dt, world=world, force=force)

    @cached_property
    def replicas(self) -> ReplicaMap:
        """The fields' layout, each replica in its numbering's order: one
        replica owning every DOF, ascending unless levels sort it."""
        return ReplicaMap.identity(self.n_dof)


class LTSNewmarkSolver(_LockStepCycle):
    """Multi-level LTS-Newmark integrator for ``u'' = -A u + f(t)``.

    Parameters
    ----------
    A:
        Stiffness operator ``M^{-1} K``: a scipy sparse matrix / dense
        array (wrapped into an assembled-CSR backend), or any
        :class:`repro.core.operator.StiffnessOperator` such as the
        matrix-free backend from :meth:`repro.sem.tensor.SemND.operator`
        (2D quads and 3D hexahedra alike).  Or a serial
        :class:`LTSPlan`, which stands for ``A`` and ``dof_level``
        together (a plan over ranks binds through :meth:`LTSPlan.bind`).
    dof_level:
        ``(n,)`` int array of per-DOF levels, 1 = coarsest (from
        :func:`dof_levels_from_elements`).
    dt:
        Coarse (cycle) step, i.e. :attr:`LevelAssignment.dt`.
    force:
        Optional mass-scaled force ``f(t)`` (fixed at construction);
        frozen over each cycle at ``t_n`` and treated as a level-1
        (coarse) contribution, which is second-order consistent for
        sources supported on coarse DOFs.  A
        :class:`repro.sem.sources.PointSource` is applied as a
        single-entry update, any other callable as a dense vector.
    counter:
        Optional :class:`OperationCounter` (assignable later as
        :attr:`counter`); each cycle adds its operations to it.

    ``force`` and ``counter`` are keyword-only.  What derives from ``A``
    and ``dof_level`` alone is kept as :attr:`plan`; to step the same
    system again, :meth:`LTSPlan.bind` it.
    """

    def __init__(
        self,
        A,
        dof_level: np.ndarray,
        dt: float,
        *,
        force: Callable[[float], np.ndarray] | None = None,
        counter: OperationCounter | None = None,
    ):
        self.plan = plan = A if isinstance(A, LTSPlan) else LTSPlan(A, dof_level)
        require(not plan.exchange, "a plan over ranks steps through LTSPlan.bind", SolverError)
        super().__init__(dt, force)
        self.counter = counter
        self.op, self.active_levels = plan.op, plan.active_levels
        self._bind(plan.numberings)

    def workspace_bytes(self) -> int:
        """Bytes of persistent stepping scratch (solver, operator, and
        level restrictions)."""
        return workspace_bytes(self.op) + sum(st.nbytes() for st in self._states)

    def step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One LTS cycle: advance ``(u^n, v^{n-1/2})`` by the coarse ``dt``,
        in place, in ``plan.replicas``' order: with several levels, make
        them with its ``scatter`` and read them with its ``gather`` (or
        use :meth:`run`)."""
        self.cycle((u,), (v,))
        return u, v


class NewmarkSolver(LTSNewmarkSolver):
    """Explicit Newmark/leap-frog (Eqs. (5)-(6)) for ``u'' = -A u + f(t)``:
    the one-level :class:`LTSNewmarkSolver`, every DOF on level 1, whose
    cycle is one step of ``dt``.

    ``A`` is whatever :func:`~repro.core.operator.as_operator` accepts: a
    :class:`~repro.core.operator.StiffnessOperator`, or a scipy sparse
    matrix or dense array, wrapped as CSR and applied in its stored entry
    order.  ``step(u, v)`` advances writeable C-contiguous float64
    vectors of length ``n`` in place.  ``dt`` must be CFL-admissible
    (:func:`repro.core.cfl.cfl_timestep`); ``force`` is an optional
    mass-scaled ``f(t)``, as for :class:`LTSNewmarkSolver`.
    """

    def __init__(self, A, dt: float, force: Callable[[float], np.ndarray] | None = None):
        # Every DOF on level 1, as a read-only view: no vector of ones.
        one_level = np.broadcast_to(np.int64(1), (A.shape[0],))
        super().__init__(A, one_level, dt, force=force)

