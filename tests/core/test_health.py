"""Numerical health guards: NaN/Inf detection, diagnostics, energy growth."""

import numpy as np
import pytest

from repro.core import HealthGuard, LTSNewmarkSolver, NewmarkSolver
from repro.core.lts_newmark import dof_levels_from_elements
from repro.mesh import refined_interval
from repro.sem import SemND
from repro.util.errors import NumericalError, SolverError
from oracles import csr


class TestHealthGuard:
    def test_clean_fields_pass(self):
        guard = HealthGuard()
        assert guard.check_locals(1, [np.zeros(8)], [np.zeros(8)])
        assert guard.last_healthy == 1
        assert guard.checks_run == 1

    def test_cadence_skips_off_cycles(self):
        guard = HealthGuard(check_every=3)
        u = np.full(4, np.nan)
        assert not guard.check_locals(1, [u])  # skipped, no raise
        assert not guard.check_locals(2, [u])
        with pytest.raises(NumericalError):
            guard.check_locals(3, [u])
        assert guard.checks_run == 1

    def test_force_overrides_cadence(self):
        guard = HealthGuard(check_every=10)
        with pytest.raises(NumericalError):
            guard.check_locals(1, [np.array([np.inf])], force=True)

    def test_nan_reports_dofs_and_cycle(self):
        guard = HealthGuard()
        u = np.zeros(10)
        u[7] = np.nan
        with pytest.raises(NumericalError, match="cycle 5") as exc:
            guard.check_locals(5, [u])
        assert exc.value.cycle == 5
        assert list(exc.value.bad_dofs) == [7]
        assert exc.value.last_healthy == -1

    def test_bad_dofs_mapped_to_elements(self):
        element_dofs = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        guard = HealthGuard(element_dofs=element_dofs)
        u = np.zeros(7)
        u[3] = np.inf
        with pytest.raises(NumericalError, match="elements") as exc:
            guard.check_locals(1, [u])
        assert list(exc.value.bad_elements) == [1]

    def test_shared_dof_maps_to_both_elements(self):
        element_dofs = np.array([[0, 1, 2], [2, 3, 4]])
        guard = HealthGuard(element_dofs=element_dofs)
        u = np.zeros(5)
        u[2] = np.nan
        with pytest.raises(NumericalError) as exc:
            guard.check_locals(1, [u])
        assert list(exc.value.bad_elements) == [0, 1]

    def test_velocity_checked_too(self):
        guard = HealthGuard()
        v = np.zeros(4)
        v[0] = np.inf
        with pytest.raises(NumericalError, match="in v"):
            guard.check_locals(1, [np.zeros(4)], [v])

    def test_dt_clause_names_cfl_violation(self):
        guard = HealthGuard(dt=2.0, dt_stable=1.0)
        with pytest.raises(NumericalError, match="EXCEEDS"):
            guard.check_locals(1, [np.array([np.nan])])
        guard = HealthGuard(dt=0.5, dt_stable=1.0)
        with pytest.raises(NumericalError, match="within"):
            guard.check_locals(1, [np.array([np.nan])])

    def test_last_healthy_tracks_best_known_cycle(self):
        guard = HealthGuard()
        guard.check_locals(1, [np.zeros(2)])
        guard.check_locals(2, [np.zeros(2)])
        with pytest.raises(NumericalError) as exc:
            guard.check_locals(3, [np.array([np.nan, 0.0])])
        assert exc.value.last_healthy == 2

    def test_energy_growth_trips_before_nonfinite(self):
        guard = HealthGuard(energy_factor=4.0)
        guard.check_locals(1, [np.ones(4)])  # establishes the peak
        with pytest.raises(NumericalError, match="energy"):
            guard.check_locals(2, [np.full(4, 100.0)])

    def test_energy_growth_allows_modest_variation(self):
        guard = HealthGuard(energy_factor=4.0)
        for cycle, scale in enumerate([1.0, 1.5, 1.2, 1.9], start=1):
            guard.check_locals(cycle, [np.full(4, scale)])
        assert guard.last_healthy == 4

    def test_invalid_params_rejected(self):
        with pytest.raises(SolverError):
            HealthGuard(check_every=0)
        with pytest.raises(SolverError):
            HealthGuard(energy_factor=1.0)


class TestCheckLocals:
    def test_clean_replicas_pass(self):
        guard = HealthGuard()
        assert guard.check_locals(1, [np.zeros(4), np.zeros(3)],
                                  [np.zeros(4), np.zeros(3)])
        assert guard.last_healthy == 1

    def test_replica_corruption_names_rank(self):
        guard = HealthGuard()
        u1 = np.zeros(3)
        u1[2] = np.nan
        with pytest.raises(NumericalError, match=r"u \(rank 1\)"):
            guard.check_locals(1, [np.zeros(4), u1])

    def test_gdofs_maps_local_indices_to_global_elements(self):
        # Rank 1's local DOF 0 is global DOF 2, shared by both elements.
        element_dofs = np.array([[0, 1, 2], [2, 3, 4]])
        guard = HealthGuard(element_dofs=element_dofs)
        gdofs = [np.array([0, 1, 2]), np.array([2, 3, 4])]
        u1 = np.array([np.inf, 0.0, 0.0])
        with pytest.raises(NumericalError) as exc:
            guard.check_locals(1, [np.zeros(3), u1], gdofs=gdofs)
        assert list(exc.value.bad_dofs) == [2]
        assert list(exc.value.bad_elements) == [0, 1]

    def test_velocity_replicas_checked(self):
        guard = HealthGuard()
        v1 = np.array([0.0, np.inf])
        with pytest.raises(NumericalError, match=r"v \(rank 1\)"):
            guard.check_locals(1, [np.zeros(2), np.zeros(2)],
                               [np.zeros(2), v1])

    def test_energy_sums_over_replicas(self):
        guard = HealthGuard(energy_factor=10.0)
        assert guard.check_locals(1, [np.ones(4), np.ones(4)])  # e = 8
        with pytest.raises(NumericalError, match="energy"):
            guard.check_locals(2, [np.full(4, 10.0), np.zeros(4)])  # e = 400

    def test_cadence_applies(self):
        guard = HealthGuard(check_every=2)
        bad = [np.array([np.nan])]
        assert not guard.check_locals(1, bad)
        with pytest.raises(NumericalError):
            guard.check_locals(2, bad)


@pytest.fixture(scope="module")
def sys1d():
    mesh = refined_interval(8, 4, refinement=2, coarse_h=0.125)
    sem = SemND(mesh, order=3)
    from repro.core import assign_levels

    a = assign_levels(mesh, c_cfl=0.4, order=3)
    dof_level = dof_levels_from_elements(sem.element_dofs, a.level, sem.n_dof)
    u0 = np.exp(-((sem.node_coords[:, 0] - sem.node_coords[:, 0].mean()) ** 2) / 0.05)
    return sem, a, dof_level, u0


class TestSolverIntegration:
    def test_stable_run_passes_guard(self, sys1d):
        sem, a, dof_level, u0 = sys1d
        guard = HealthGuard(check_every=2, dt=a.dt, dt_stable=a.dt)
        solver = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        solver.run(u0, np.zeros_like(u0), 8, health=guard)
        assert guard.checks_run == 4
        assert guard.last_healthy == 8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_newmark_caught_within_cadence(self, sys1d):
        """A CFL-violating step blows up; the guard catches it on its
        cadence and the error names dt as EXCEEDS the bound."""
        sem, a, _, u0 = sys1d
        dt = 10.0 * a.dt_min  # grossly unstable
        guard = HealthGuard(
            check_every=5, element_dofs=sem.element_dofs, dt=dt,
            dt_stable=a.dt_min, energy_factor=100.0,
        )
        solver = NewmarkSolver(csr.A(sem), dt)
        with pytest.raises(NumericalError, match="EXCEEDS") as exc:
            solver.run(u0, np.zeros_like(u0), 100, health=guard)
        # caught at a multiple of the cadence, within one window of onset
        assert exc.value.cycle % 5 == 0
        assert exc.value.cycle <= 100

    def test_injected_nan_caught_next_check(self, sys1d):
        sem, a, dof_level, u0 = sys1d
        solver = LTSNewmarkSolver(csr.A(sem), dof_level, a.dt)
        guard = HealthGuard(check_every=1, element_dofs=sem.element_dofs)
        # step runs in the plan's numbering; its map names the global DOFs.
        m = solver.plan.replicas
        (u,), (v,) = m.scatter(u0), m.scatter(np.zeros_like(u0))
        u, v = solver.step(u, v)
        guard.check_locals(1, [u], [v], gdofs=m.gdofs)
        u[5] = np.nan
        u, v = solver.step(u, v)
        with pytest.raises(NumericalError) as exc:
            guard.check_locals(2, [u], [v], gdofs=m.gdofs)
        assert exc.value.last_healthy == 1
        assert len(exc.value.bad_elements) >= 1
