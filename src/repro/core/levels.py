"""p-level assignment: mapping elements to LTS refinement levels.

Following Sec. II-B of the paper, level ``k`` (1-based, 1 = coarsest) takes
``p_k = 2**(k-1)`` steps of size ``dt / p_k`` per LTS cycle (Eq. (16)); the
powers-of-two restriction makes bordering levels take steps that nest (two
``dt/4`` steps fit in one ``dt/2``).

An element whose local stable step is ``r`` times the global minimum can
safely take steps ``2**floor(log2(r))`` times larger, which places it
``floor(log2(r))`` levels below the finest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.cfl import stable_timestep_per_element
from repro.mesh.mesh import Mesh
from repro.util.errors import SolverError
from repro.util.validation import require


@dataclass(frozen=True)
class LevelAssignment:
    """Result of :func:`assign_levels`.

    Attributes
    ----------
    level:
        ``(n_elements,)`` int array, values in ``1..n_levels``
        (1 = coarsest, paper's ``P_1``; ``n_levels`` = finest, ``P_N``).
    dt:
        Coarsest step size (the paper's global ``dt``).
    dt_min:
        Finest step size ``dt / p_max`` (what a non-LTS scheme must use).
    """

    level: np.ndarray
    dt: float
    dt_min: float

    @property
    def n_levels(self) -> int:
        return int(self.level.max())

    @property
    def p_max(self) -> int:
        return int(2 ** (self.n_levels - 1))

    @property
    def p_per_element(self) -> np.ndarray:
        """Steps per LTS cycle taken by each element."""
        return (2 ** (self.level - 1)).astype(np.int64)

    def counts(self) -> np.ndarray:
        """``(n_levels,)`` number of elements in each level (1-based order)."""
        return np.bincount(self.level, minlength=self.n_levels + 1)[1:]

    def elements_of_level(self, k: int) -> np.ndarray:
        """Element ids belonging to level ``k`` (1-based)."""
        require(1 <= k <= self.n_levels, f"level {k} out of range", SolverError)
        return np.nonzero(self.level == k)[0]

    def step_size(self, k: int) -> float:
        """Step size of level ``k``: ``dt / 2**(k-1)``."""
        require(1 <= k <= self.n_levels, f"level {k} out of range", SolverError)
        return self.dt / float(2 ** (k - 1))


def assign_levels(
    mesh: Mesh,
    c_cfl: float = 0.5,
    max_levels: int | None = None,
    grade: bool = False,
    order: int | None = None,
    velocity: np.ndarray | None = None,
    assembler=None,
) -> LevelAssignment:
    """Assign every element to an LTS p-level from its local stable step.

    Parameters
    ----------
    mesh:
        The mesh; only ``h`` and ``c`` are used.
    c_cfl:
        CFL constant (Eq. (7)).
    max_levels:
        Cap on the number of levels; elements that could step even more
        coarsely are clamped to level 1 with the capped ``dt``.  ``None``
        uses as many levels as the size ratio supports.
    grade:
        If True, post-process with :func:`enforce_level_grading` so that
        face-adjacent elements differ by at most one level.
    order:
        SEM polynomial order; folds the GLL sub-spacing into the stable
        step (see :func:`repro.core.cfl.gll_spacing_factor`).  Defaults
        to the assembler's order when ``assembler=`` is given, else 1.
    velocity:
        Optional per-element wave speed overriding ``mesh.c``.  Eq. (7)
        prescribes the maximal material speed (the *P-wave* speed for
        elastic media) — levels then follow it without mutating the
        mesh.
    assembler:
        Material-aware convenience: pull ``velocity`` (the material's
        maximal wave speed — acoustic ``c``, elastic P, anisotropic
        Christoffel quasi-P maximum) and ``order`` from a
        :class:`repro.sem.tensor.SemND` assembler instead of passing
        them by hand.  Mutually exclusive with ``velocity=``.

    Notes
    -----
    With a uniform mesh the result is a single level and LTS degenerates
    exactly to global Newmark (tested).
    """
    dt_elem = stable_timestep_per_element(
        mesh, c_cfl, order=order, velocity=velocity, assembler=assembler
    )
    dt_min = float(dt_elem.min())
    # Tiny relative slack so elements sized at exact powers of two land on
    # the intended level despite float rounding.
    ratio = dt_elem / dt_min * (1.0 + 1e-12)
    coarseness = np.floor(np.log2(ratio)).astype(np.int64)  # 0 = finest
    if max_levels is not None:
        require(max_levels >= 1, "max_levels must be >= 1", SolverError)
        coarseness = np.minimum(coarseness, max_levels - 1)
    n_levels = int(coarseness.max()) + 1
    level = (n_levels - coarseness).astype(np.int64)  # 1 = coarsest
    dt = dt_min * float(2 ** (n_levels - 1))
    assignment = LevelAssignment(level=level, dt=dt, dt_min=dt_min)
    if grade:
        assignment = enforce_level_grading(mesh, assignment)
    return assignment


def enforce_level_grading(
    mesh: Mesh, assignment: LevelAssignment, max_jump: int = 1
) -> LevelAssignment:
    """Refine elements until face neighbours differ by <= ``max_jump`` levels.

    Raising an element's level (taking *smaller* steps than strictly
    necessary) is always stable, so grading only ever refines.  Used by
    implementations that restrict inter-level coupling to nested halo
    layers; the structured benchmark meshes already satisfy the constraint.
    """
    require(max_jump >= 1, "max_jump must be >= 1", SolverError)
    level = assignment.level.copy()
    xadj, adjncy = mesh.dual_graph()

    queue = deque(range(mesh.n_elements))
    in_queue = np.ones(mesh.n_elements, dtype=bool)
    while queue:
        e = queue.popleft()
        in_queue[e] = False
        le = level[e]
        for nb in adjncy[xadj[e] : xadj[e + 1]]:
            if level[nb] < le - max_jump:
                level[nb] = le - max_jump
                if not in_queue[nb]:
                    queue.append(nb)
                    in_queue[nb] = True
    return LevelAssignment(level=level, dt=assignment.dt, dt_min=assignment.dt_min)
