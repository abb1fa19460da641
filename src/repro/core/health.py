"""Numerical health guards for the stepping loops.

Long LTS runs can die silently: one NaN from an inadmissible time step
(or a flipped bit in a halo message) propagates through every
subsequent stiffness application, and the run "completes" with a field
of NaNs.  :class:`HealthGuard` makes blow-up loud and diagnosable — a
periodic check raising :class:`repro.util.errors.NumericalError` that
names the offending elements, compares the step in effect against the
CFL bound, and reports the last cycle that was known healthy (so a
supervisor knows which checkpoint is still trustworthy).

Two checks, both O(n) and run every ``check_every`` cycles:

* **finiteness** — any NaN/Inf in displacement or velocity fails, with
  the non-finite DOFs mapped back to elements via ``element_dofs``;
* **energy growth** (opt-in via ``energy_factor``) — the quadratic
  proxy ``e = |u|^2 + |v|^2`` must not exceed ``energy_factor`` times
  its running peak.  A CFL-violating leap-frog mode grows
  exponentially, so this trips long before the overflow to Inf.  It is
  off by default because externally forced runs ramp up from zero
  energy, where any relative-growth bound is meaningless; enable it for
  source-free or late-time runs.

Every solver — serial :class:`repro.core.lts_newmark.LTSNewmarkSolver`
and distributed :class:`repro.runtime.executor.DistributedLTSSolver`,
each with its one-level Newmark subclass — accepts a guard via
``run(..., health=...)`` (one loop, :func:`repro.core.newmark
.run_cycles`, runs the check), and the façade
builds one from :class:`repro.api.config.ResilienceSpec
.health_check_every`.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import NumericalError, SolverError
from repro.util.validation import require


class HealthGuard:
    """Periodic NaN/Inf and energy-growth checks over solver state.

    Parameters
    ----------
    check_every:
        Check cadence in cycles (1 = every cycle).  :meth:`check_locals`
        is a no-op on non-multiples, so it can be called unconditionally
        from a stepping loop.
    element_dofs:
        Optional ``(n_elem, n_loc)`` connectivity used to map bad DOFs
        to element ids in the diagnostics.
    dt, dt_stable:
        Optional step in effect and its stability bound; reported (and
        compared) in the failure message.
    energy_factor:
        Optional blow-up threshold: fail when the energy proxy exceeds
        ``energy_factor`` times its running peak (see module docs).
    max_report:
        At most this many DOF/element ids are stored on the error.
    """

    def __init__(
        self,
        check_every: int = 1,
        *,
        element_dofs: np.ndarray | None = None,
        dt: float | None = None,
        dt_stable: float | None = None,
        energy_factor: float | None = None,
        max_report: int = 16,
    ):
        require(int(check_every) >= 1, "check_every must be >= 1", SolverError)
        require(
            energy_factor is None or energy_factor > 1.0,
            "energy_factor must be > 1",
            SolverError,
        )
        self.check_every = int(check_every)
        self.element_dofs = (
            None if element_dofs is None else np.asarray(element_dofs)
        )
        self.dt = None if dt is None else float(dt)
        self.dt_stable = None if dt_stable is None else float(dt_stable)
        self.energy_factor = energy_factor
        self.max_report = int(max_report)
        #: Last cycle index that passed all checks (-1 = none yet).
        self.last_healthy = -1
        #: Number of checks actually performed.
        self.checks_run = 0
        self._energy_peak = 0.0

    # ------------------------------------------------------------------
    def bad_elements(self, bad_dofs: np.ndarray) -> np.ndarray | None:
        """Element ids touching any of ``bad_dofs`` (None without
        connectivity)."""
        if self.element_dofs is None:
            return None
        mask = np.zeros(int(self.element_dofs.max()) + 1, dtype=bool)
        mask[bad_dofs[bad_dofs < len(mask)]] = True
        return np.nonzero(mask[self.element_dofs].any(axis=1))[0]

    def _dt_clause(self) -> str:
        if self.dt is None:
            return ""
        if self.dt_stable is None:
            return f"; dt={self.dt:.6g}"
        rel = "EXCEEDS" if self.dt > self.dt_stable else "within"
        return (
            f"; dt={self.dt:.6g} vs stable bound {self.dt_stable:.6g} "
            f"({rel} the CFL bound)"
        )

    def _fail_nonfinite(self, cycle: int, bad_dofs: np.ndarray, where: str):
        elems = self.bad_elements(bad_dofs)
        loc = f"{len(bad_dofs)} non-finite values in {where}"
        if elems is not None:
            shown = ", ".join(str(int(e)) for e in elems[: self.max_report])
            more = "..." if len(elems) > self.max_report else ""
            loc += f" across {len(elems)} elements [{shown}{more}]"
        else:
            shown = ", ".join(str(int(d)) for d in bad_dofs[: self.max_report])
            more = "..." if len(bad_dofs) > self.max_report else ""
            loc += f" at DOFs [{shown}{more}]"
        raise NumericalError(
            f"numerical health check failed at cycle {cycle}: {loc}"
            f"{self._dt_clause()}; last healthy check at cycle "
            f"{self.last_healthy}",
            cycle=cycle,
            last_healthy=self.last_healthy,
            bad_dofs=bad_dofs[: self.max_report],
            bad_elements=None if elems is None else elems[: self.max_report],
            dt=self.dt,
            dt_stable=self.dt_stable,
        )

    # ------------------------------------------------------------------
    def check_locals(
        self,
        cycle: int,
        u_locals: list[np.ndarray],
        v_locals: list[np.ndarray] | None = None,
        gdofs: list[np.ndarray] | None = None,
        force: bool = False,
    ) -> bool:
        """Run the checks on the replica vectors (one for a serial run,
        one per rank for a distributed one) if ``cycle`` is on the
        cadence (or ``force``).

        ``cycle`` is the 1-based count of completed cycles.  Returns
        ``True`` when the checks ran and passed, ``False`` when skipped;
        raises :class:`~repro.util.errors.NumericalError` on failure.

        Distributed runs must check the *replicas*, not the gathered
        field: gathering projects every shared DOF onto its owner's
        copy, so corruption living in a non-owned replica (e.g. a
        bit-flipped halo message) is invisible to a gathered check for
        a full cycle — long enough to poison a checkpoint.  ``gdofs``
        (the per-rank local-to-global maps) translates bad local
        indices into global DOFs so element diagnostics still work.
        The energy proxy sums over all replicas; shared DOFs are
        double-counted, consistently across cycles.  A failure names the
        field, and the rank when there are several replicas.
        """
        if not force and cycle % self.check_every != 0:
            return False
        self.checks_run += 1
        for name, replicas in (("u", u_locals), ("v", v_locals or [])):
            for r, x in enumerate(replicas):
                bad = ~np.isfinite(x)
                if bad.any():
                    idx = np.nonzero(bad)[0]
                    self._fail_nonfinite(
                        cycle,
                        idx if gdofs is None else np.asarray(gdofs[r])[idx],
                        name if len(replicas) == 1 else f"{name} (rank {r})",
                    )
        if self.energy_factor is not None:
            # The proxy may overflow to inf right at blow-up — that is
            # the condition being detected, not a warning-worthy event.
            with np.errstate(over="ignore", invalid="ignore"):
                e = sum(float(x @ x) for x in u_locals)
                if v_locals is not None:
                    e += sum(float(x @ x) for x in v_locals)
            self._check_energy(cycle, e)
        self.last_healthy = cycle
        return True

    def _check_energy(self, cycle: int, e: float) -> None:
        if self._energy_peak > 0.0 and (
            e > self.energy_factor * self._energy_peak or not np.isfinite(e)
        ):
            raise NumericalError(
                f"numerical health check failed at cycle {cycle}: "
                f"energy proxy grew to {e:.6g}, more than "
                f"{self.energy_factor:g}x its running peak "
                f"{self._energy_peak:.6g} (exponential blow-up)"
                f"{self._dt_clause()}; last healthy check at cycle "
                f"{self.last_healthy}",
                cycle=cycle,
                last_healthy=self.last_healthy,
                dt=self.dt,
                dt_stable=self.dt_stable,
            )
        self._energy_peak = max(self._energy_peak, e)
