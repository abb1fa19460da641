"""Multi-level LTS-Newmark (paper Sec. II, Algorithm 1, generalized).

One *LTS cycle* advances the whole system by the coarse step ``dt``.
Level 1 (coarsest) freezes its stiffness contribution ``w = A P_1 u^n``
over the cycle; the remaining levels advance an auxiliary system

    du~/dtau = v~,   dv~/dtau = -A P_1 u^n - A P_2 u~ - ... ,

recursively: each level ``k`` freezes ``z_k = A P_k u~`` over its own step
``dt / 2**(k-1)`` while the finer levels substep inside it, and
reconstructs its staggered velocity from the substepped displacement
(``v <- v + 2 (u_fine - u) / dt_k``, Eq. (14)).  With a single level the
scheme *is* explicit Newmark (tested to machine precision).

Two implementations share one recursion:

* ``mode="reference"`` — literal full-vector transcription of Algorithm 1.
  Every substep performs a full-size stiffness product and full-length
  vector updates.  Simple, obviously correct, slow.
* ``mode="optimized"`` — the high-performance variant the paper's Sec. II-C
  describes as requiring "great care": a substep costs work proportional
  to its *active set* (DOFs of levels >= k plus their stiffness halo --
  the paper's gray nodes), never to the mesh.  Empty levels are skipped
  by doubling the substep ratio.  Three pieces:

  - *restricted applies*: level ``k`` precomputes the product
    ``A[:, dofs(level k)] u[dofs(level k)]`` (:meth:`StiffnessOperator
    .restrict`), which reads only the level's columns and writes only
    its row support; the solver owns one zero-initialised full-length
    output per fine level, so rows a level never writes stay zero;
  - *depth 0 is plain Newmark plus a fix-up*: outside the coarsest
    active set the auxiliary system sees a constant force, a leap-frog
    chain under constant force is exactly quadratic (``u(T) = u(0) -
    T^2/2 F``), and that closed form followed by the velocity
    reconstruction *is* ``v -= dt F; u += dt v`` -- four contiguous
    passes over the whole vector, after which the active rows are
    overwritten from the recursion's result;
  - *a compact recursion*: each depth holds displacement, velocity and
    frozen forcing as active-set-length vectors, ordered so the nested
    active sets are suffix slices and the closed-form complement a
    prefix slice.  Per substep one gather (the level's output rows) and
    one scatter (the level's columns into the single full-length buffer
    its apply reads) touch index arrays; everything else is contiguous.

  The two modes agree to machine precision (tested), which is the
  paper's implicit claim that the optimized implementation computes
  *the same scheme* with the minimal op set.

The solver is backend- and dimension-agnostic: ``A`` may be a scipy
sparse matrix (the assembled path), or any
:class:`repro.core.operator.StiffnessOperator` — in particular the
matrix-free sum-factorization operator of :mod:`repro.sem.matfree` from
any :class:`repro.sem.tensor.SemND` assembler (2D quads, 3D hexahedra),
whose per-level restriction applies the stiffness only on the active
level's elements plus their gray halo, exactly as the paper's SPECFEM
implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.levels import LevelAssignment
from repro.core.newmark import Fields, run_cycles, subtract_force
from repro.core.operator import AssembledOperator, Restriction, as_operator
from repro.core.workspace import workspace_bytes
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
    cycles against non-LTS steps in these units.
    """

    stiffness_ops: int = 0
    vector_ops: int = 0
    applications_per_level: dict[int, int] = field(default_factory=dict)

    def count_stiffness(self, level: int, nnz: int) -> None:
        self.stiffness_ops += int(nnz)
        self.applications_per_level[level] = self.applications_per_level.get(level, 0) + 1

    def count_vector(self, n: int) -> None:
        self.vector_ops += int(n)

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
        return OperationCounter(
            stiffness_ops=self.stiffness_ops,
            vector_ops=self.vector_ops,
            applications_per_level=dict(self.applications_per_level),
        )


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
    """One recursion depth of the optimized mode, the auxiliary system
    of one fine level on its active set: index maps (a plan's, shared
    by its solvers) and the compact state :meth:`bind` adds."""

    level: int
    restr: Restriction
    idx: np.ndarray  # DOF ids of the active set, in compact order
    colpos: np.ndarray  # positions in ``idx`` of the level's columns (restr.cols)
    n_diff: int  # leading entries outside the next finer depth's active set
    z: np.ndarray | None = None  # full-length: the level's apply output
    u: np.ndarray | None = None  # displacement, velocity, frozen forcing and
    v: np.ndarray | None = None  # scratch, all of the active set's length
    F: np.ndarray | None = None
    r: np.ndarray | None = None
    c: np.ndarray | None = None  # staging for the level's column values

    def bind(self, z: np.ndarray) -> "_Depth":
        """This depth ready to step: fresh state vectors and a fork of
        its product, whose output ``z`` is."""
        na = len(self.idx)
        return replace(
            self, restr=self.restr.fork(), z=z, u=np.empty(na), v=np.empty(na),
            F=np.empty(na), r=np.empty(na), c=np.empty(len(self.colpos)),
        )


def compact_depths(
    levels: list[int], restr: list[Restriction], masks: list[np.ndarray]
) -> list[_Depth]:
    """Index maps of the compact recursion for the fine ``levels``
    (ascending, the coarsest active level excluded) of one DOF
    numbering — the whole mesh, or one rank's local DOFs.

    ``masks[i]`` is depth ``i``'s active set and ``restr[i]`` its
    level's restricted product.  The sets are nested, so one ordering
    of the coarsest serves all depths: ``[act_1 \\ act_2, act_2 \\
    act_3, ..., act_last]`` makes every depth's set a suffix, and the
    part its child does not cover — where the closed form applies — a
    prefix of that.
    """
    if not levels:
        return []
    blocks = [np.nonzero(a & ~b)[0] for a, b in zip(masks, masks[1:])]
    order = np.concatenate(blocks + [np.nonzero(masks[-1])[0]])
    pos = np.empty(len(masks[0]), dtype=np.int64)
    pos[order] = np.arange(len(order))
    depths, off = [], 0
    for i, (lv, rs) in enumerate(zip(levels, restr)):
        n_diff = len(blocks[i]) if i < len(blocks) else 0
        depths.append(_Depth(lv, rs, order[off:], pos[rs.cols] - off, n_diff))
        off += n_diff
    return depths


class LTSPlan:
    """What an :class:`LTSNewmarkSolver` derives from the operator and
    the DOF levels alone: the non-empty levels, their columns and, in
    ``mode="optimized"``, the per-level restricted products, the active
    sets and the compact recursion's index maps.  Stepping changes
    none of it, so one plan serves any number of solvers, concurrently
    too: :meth:`bind` gives each its own buffers and operator scratch.
    (Optimized mode only: reference-mode solvers all apply the plan's
    one operator, scratch included, so step those one at a time.)
    """

    def __init__(self, A, dof_level: np.ndarray, mode: str = "optimized"):
        require(mode in ("optimized", "reference"), f"unknown mode {mode!r}", SolverError)
        self.mode = mode
        self.op = as_operator(A)
        n = self.op.shape[0]
        require(self.op.shape == (n, n), "A must be square", SolverError)
        #: Legacy attribute: the assembled CSR matrix when the backend is
        #: assembled, else the operator itself (both expose shape/nnz/@).
        self.A = self.op.A if isinstance(self.op, AssembledOperator) else self.op
        self.n_dof = n
        self.dof_level = np.asarray(dof_level, dtype=np.int64)
        require(self.dof_level.shape == (n,), "dof_level must be (n,)", SolverError)
        require(bool(np.all(self.dof_level >= 1)), "levels must be >= 1", SolverError)

        self.n_levels = int(self.dof_level.max())
        counts = np.bincount(self.dof_level, minlength=self.n_levels + 1)
        #: Non-empty levels, ascending (level 1 is always present: the
        #: coarsest existing level defines the cycle step).
        self.active_levels: list[int] = [
            k for k in range(1, self.n_levels + 1) if counts[k] > 0
        ]
        require(
            self.active_levels[0] >= 1 and self.active_levels[-1] == self.n_levels,
            "corrupt level histogram",
            SolverError,
        )
        self._cols = {k: np.nonzero(self.dof_level == k)[0] for k in self.active_levels}
        self.restr0: Restriction | None = None
        self.depths: list[_Depth] = []
        if mode != "optimized":
            return
        # ``op.restrict(cols)`` gives the per-level product (column blocks
        # for the assembled backend, element subsets for the matrix-free
        # one); ``op.reach()`` — one vectorized structural query per depth
        # — the active set of depth ``i``: the rows reachable from the
        # columns of levels ``>= active_levels[i]``, plus those columns;
        # :func:`compact_depths` orders them.
        levels = self.active_levels
        restr = {k: self.op.restrict(self._cols[k]) for k in levels}
        self.restr0 = restr[levels[0]]
        masks = []
        for lv in levels[1:]:
            col_mask = self.dof_level >= lv
            masks.append(self.op.reach(col_mask) | col_mask)
        self.depths = compact_depths(
            levels[1:], [restr[lv] for lv in levels[1:]], masks
        )

    @cached_property
    def reach1(self) -> np.ndarray:
        """Rows the coarsest level's columns reach (see ``_F1_stale``)."""
        return self.op.reach(self.dof_level == self.active_levels[0])

    def bind(self, dt: float, force=None, counter=None) -> "LTSNewmarkSolver":
        """A solver stepping this plan: only buffers are allocated."""
        return LTSNewmarkSolver(self, None, dt, force=force, counter=counter)


class LTSNewmarkSolver:
    """Multi-level LTS-Newmark integrator for ``u'' = -A u + f(t)``.

    Parameters
    ----------
    A:
        Stiffness operator ``M^{-1} K``: a scipy sparse matrix / dense
        array (wrapped into an assembled-CSR backend), or any
        :class:`repro.core.operator.StiffnessOperator` such as the
        matrix-free backend from :meth:`repro.sem.tensor.SemND.operator`
        (2D quads and 3D hexahedra alike).  Or an :class:`LTSPlan`,
        which stands for ``A``, ``dof_level`` and ``mode`` together.
    dof_level:
        ``(n,)`` int array of per-DOF levels, 1 = coarsest (from
        :func:`dof_levels_from_elements`).
    dt:
        Coarse (cycle) step, i.e. :attr:`LevelAssignment.dt`.
    mode:
        ``"optimized"`` (default) or ``"reference"`` (see module docs).
    force:
        Optional mass-scaled force ``f(t)`` (fixed at construction);
        frozen over each cycle at ``t_n`` and treated as a level-1
        (coarse) contribution, which is second-order consistent for
        sources supported on coarse DOFs.  A
        :class:`repro.sem.sources.PointSource` is applied as a
        single-entry update, any other callable as a dense vector.
    counter:
        Optional :class:`OperationCounter` to fill while stepping.

    What derives from ``A`` and ``dof_level`` alone is kept as
    :attr:`plan`; to step the same system again, :meth:`LTSPlan.bind` it.
    """

    def __init__(
        self,
        A,
        dof_level: np.ndarray,
        dt: float,
        mode: str = "optimized",
        force: Callable[[float], np.ndarray] | None = None,
        counter: OperationCounter | None = None,
    ):
        self.plan = plan = A if isinstance(A, LTSPlan) else LTSPlan(A, dof_level, mode)
        self.dt = check_positive(dt, "dt", SolverError)
        self.force = force
        self.counter = counter
        self.t = 0.0
        self.n_cycles_taken = 0
        self.mode, self.op, self.A = plan.mode, plan.op, plan.A
        self.n_dof, self.dof_level, self._cols = plan.n_dof, plan.dof_level, plan._cols
        self.n_levels, self.active_levels = plan.n_levels, plan.active_levels
        self._depths: list[_Depth] = []
        if self.mode != "optimized":
            return
        n = self.n_dof
        self._restr0 = plan.restr0.fork()
        # Level 1's output also takes the source term.  The depth-0 passes
        # keep its unwritten rows at zero (0 * dt), so only a source entry
        # outside the level's row support could survive into the next
        # cycle: a dense force, or a point source no level-1 column
        # reaches.  Only then is the buffer cleared every cycle.
        self._F1 = np.zeros(n)
        self._F1_stale = force is not None
        if self._F1_stale:
            dof = getattr(force, "dof", None)
            self._F1_stale = not (
                plan.reach1.all() or (dof is not None and plan.reach1[dof])
            )
        #: The one full-length buffer every fine level's apply reads (each
        #: depth scatters its level's columns into it first); depth 0's
        #: scratch between cycles.  Always finite: the matrix-free gather
        #: multiplies the entries it does not use by a zero mask.
        self._w = np.zeros(n)
        # Each fine level's product writes its row support only: a
        # zero-initialised output apiece keeps the other rows zero.
        self._depths = [d.bind(np.zeros(n)) for d in plan.depths]
        if self._depths:
            # Saved depth-0 copies of the coarsest active set's rows.
            self._u0 = np.empty(len(self._depths[0].idx))
            self._v0 = np.empty(len(self._depths[0].idx))

    def workspace_bytes(self) -> int:
        """Bytes of persistent stepping scratch (solver, operator, and
        level restrictions; index maps included)."""
        total = workspace_bytes(self.op)
        if self.mode == "optimized":
            restrs = [self._restr0] + [d.restr for d in self._depths]
            total += workspace_bytes(*restrs)
            bufs = [self._F1, self._w]
            for d in self._depths:
                bufs += [d.colpos, d.z, d.u, d.v, d.F, d.r, d.c]
            if self._depths:
                bufs += [self._depths[0].idx, self._u0, self._v0]
            total += sum(b.nbytes for b in bufs)
        return total

    # ------------------------------------------------------------------
    def _count_vec(self, n: int) -> None:
        if self.counter is not None:
            self.counter.count_vector(n)

    def _apply(self, restr: Restriction, level: int, u: np.ndarray,
               out: np.ndarray) -> None:
        """Optimized ``A P_k u``: the restricted product, written on the
        level's row support of its own output buffer."""
        restr.apply(u, out=out)
        if self.counter is not None:
            self.counter.count_stiffness(level, restr.ops)

    def _advance(self, i: int, n_steps: int) -> None:
        """Advance the auxiliary system of levels ``active_levels[i+1:]``
        on its active set, in place in ``self._depths[i]``.

        The caller has filled the depth's displacement ``u`` and frozen
        coarser forcing ``F``; the auxiliary velocity starts at zero.
        Takes ``n_steps`` steps of size ``dt / 2**(level-1)``.  With a
        finer depth below, the leading ``n_diff`` entries (not in the
        child's set) see a constant force over the child's whole span
        ``dt_k``, so their reconstructed velocity is the closed form
        ``-dt_k/2 F`` — no ``(u - small) - u`` cancellation.
        """
        d = self._depths[i]
        dt_k = self.dt / float(2 ** (d.level - 1))
        u, v, F, r, w = d.u, d.v, d.F, d.r, self._w
        na, nd = len(u), d.n_diff
        child = self._depths[i + 1] if i + 1 < len(self._depths) else None
        if child is not None:
            ratio = 2 ** (child.level - d.level)
            u_in, r_in, r_out = u[nd:], r[nd:], r[:nd]
        for s in range(n_steps):
            u.take(d.colpos, out=d.c, mode="clip")
            w[d.restr.cols] = d.c
            self._apply(d.restr, d.level, w, d.z)
            d.z.take(d.idx, out=r, mode="clip")
            r += F  # rhs = F + A P_k u on the active set
            if child is None:
                if s == 0:
                    np.multiply(r, -(0.5 * dt_k), out=v)
                else:
                    r *= dt_k
                    v -= r
                self._count_vec((4 if s == 0 else 5) * na)
            else:
                np.copyto(child.F, r_in)
                np.copyto(child.u, u_in)
                self._advance(i + 1, ratio)
                np.subtract(child.u, u_in, out=r_in)
                r_in /= dt_k  # recon = (u_fine - u) / dt_k
                r_out *= -(0.5 * dt_k)
                if s == 0:
                    np.copyto(v, r)
                else:
                    r *= 2.0
                    v += r
                self._count_vec((5 if s == 0 else 7) * na - nd)
            np.multiply(v, dt_k, out=r)
            u += r

    # ---------------- reference mode: full vectors ----------------------
    def _apply_level(self, k: int, u: np.ndarray) -> np.ndarray:
        """Reference ``A P_k u``: mask and run the full product, as a
        direct transcription would."""
        masked = np.zeros_like(u)
        cols = self._cols[k]
        masked[cols] = u[cols]
        if self.counter is not None:
            self.counter.count_stiffness(k, self.op.nnz)
        return self.op.apply(masked)

    def _advance_reference(self, i: int, u0: np.ndarray, F: np.ndarray,
                           n_steps: int) -> np.ndarray:
        """Literal Algorithm 1 for levels ``active_levels[i:]``: starts
        from ``u0`` with zero auxiliary velocity, takes ``n_steps`` steps
        of size ``dt / 2**(active_levels[i]-1)`` under the frozen coarser
        forcing ``F``, returns the advanced displacement."""
        lv = self.active_levels[i]
        dt_k = self.dt / float(2 ** (lv - 1))
        u = u0.copy()
        n = self.n_dof
        v = np.zeros(n)
        if i == len(self.active_levels) - 1:
            for s in range(n_steps):
                rhs = F + self._apply_level(lv, u)
                if s == 0:
                    v = -(0.5 * dt_k) * rhs
                else:
                    v -= dt_k * rhs
                u += dt_k * v
                self._count_vec(5 * n)
            return u
        ratio = 2 ** (self.active_levels[i + 1] - lv)
        for m in range(n_steps):
            z = self._apply_level(lv, u)
            u_fine = self._advance_reference(i + 1, u, F + z, ratio)
            recon = (u_fine - u) / dt_k
            if m == 0:
                v = recon
            else:
                v += 2.0 * recon
            u += dt_k * v
            self._count_vec(7 * n)
        return u

    def _step_reference(self, u: np.ndarray, v: np.ndarray) -> None:
        F1 = self._apply_level(self.active_levels[0], u)
        if self.force is not None:
            F1 = F1 - self.force(self.t)
        if len(self.active_levels) == 1:
            # Degenerate single-level mesh: LTS *is* explicit Newmark.
            v -= self.dt * F1
            self._count_vec(4 * self.n_dof)
        else:
            n_sub = 2 ** (self.active_levels[1] - 1)
            u_t = self._advance_reference(1, u, F1, n_sub)
            v += (2.0 / self.dt) * (u_t - u)
            self._count_vec(6 * self.n_dof)
        u += self.dt * v

    # ------------------------------------------------------------------
    def step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One LTS cycle: advance ``(u^n, v^{n-1/2})`` by the coarse ``dt``,
        in place."""
        n, dt = self.n_dof, self.dt
        require(u.shape == (n,) and v.shape == (n,), "state shape mismatch", SolverError)
        if self.mode == "reference":
            self._step_reference(u, v)
        else:
            F1, w = self._F1, self._w
            if self._F1_stale:
                F1.fill(0.0)
            self._apply(self._restr0, self.active_levels[0], u, F1)
            if self.force is not None:
                subtract_force(self.force, self.t, F1)
            if self._depths:
                d, u0, v0 = self._depths[0], self._u0, self._v0
                u.take(d.idx, out=u0, mode="clip")
                v.take(d.idx, out=v0, mode="clip")
                F1.take(d.idx, out=d.F, mode="clip")
                np.copyto(d.u, u0)
                self._advance(0, 2 ** (d.level - 1))
            # Plain Newmark on the whole vector (with one level that is
            # the scheme; with more, the closed form of every DOF outside
            # the coarsest active set) ...
            F1 *= dt
            v -= F1
            np.multiply(v, dt, out=w)
            u += w
            self._count_vec(4 * n)
            if self._depths:
                # ... then the active rows from the recursion's result:
                # v += 2 (u_fine - u) / dt, u += dt v on the saved copies.
                r = d.r
                np.subtract(d.u, u0, out=r)
                r *= 2.0 / dt
                v0 += r
                v[d.idx] = v0
                np.multiply(v0, dt, out=r)
                u0 += r
                u[d.idx] = u0
                self._count_vec(5 * len(u0))
        self.t += dt
        self.n_cycles_taken += 1
        return u, v

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing: completed-cycle count
        and simulated time.  The LTS schedule is RNG-free and repeats
        identically every cycle, so the cycle index *is* the full
        schedule position; ``u``/``v`` live with the caller."""
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
        """Integrate ``n_cycles`` LTS cycles from staggered ``(u0, v^{-1/2})``.

        ``health`` runs a :class:`~repro.core.health.HealthGuard` on
        its cadence; ``on_checkpoint(cycle, u, v)`` fires every
        ``checkpoint_every`` completed cycles with snapshot copies.
        """
        u = np.array(u0, dtype=np.float64, copy=True)
        v = np.array(v0, dtype=np.float64, copy=True)
        return run_cycles(
            self, Fields(u, v), n_cycles, health=health,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
        )


def lts_newmark_run(
    A,
    dof_level: np.ndarray,
    dt: float,
    u0: np.ndarray,
    v0: np.ndarray,
    n_cycles: int,
    mode: str = "optimized",
    force: Callable[[float], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot convenience wrapper around :class:`LTSNewmarkSolver`."""
    solver = LTSNewmarkSolver(A, dof_level, dt, mode=mode, force=force)
    return solver.run(u0, v0, n_cycles)


def make_solver_for_assignment(
    A,
    element_dofs: np.ndarray,
    assignment: LevelAssignment,
    mode: str = "optimized",
    force: Callable[[float], np.ndarray] | None = None,
    counter: OperationCounter | None = None,
) -> LTSNewmarkSolver:
    """Build an :class:`LTSNewmarkSolver` from an element-level assignment."""
    n_dof = A.shape[0]  # sparse matrices, arrays, and operators all have .shape
    dof_level = dof_levels_from_elements(element_dofs, assignment.level, n_dof)
    return LTSNewmarkSolver(
        A, dof_level, assignment.dt, mode=mode, force=force, counter=counter
    )
