"""Tests for CFL computation (Eq. (7)) and p-level assignment (Eq. (16))."""

import numpy as np
import pytest

from repro.core import (
    assign_levels,
    cfl_timestep,
    enforce_level_grading,
    gll_spacing_factor,
    operator_spectral_radius,
    stable_timestep_from_operator,
    stable_timestep_per_element,
)
from repro.mesh import refined_interval, uniform_grid, uniform_interval
from repro.sem import SemND
from repro.util.errors import SolverError
from oracles import csr


class TestCfl:
    def test_uniform_mesh_timestep(self):
        m = uniform_interval(10, length=10.0, c=2.0)
        assert cfl_timestep(m, c_cfl=0.5) == pytest.approx(0.25)

    def test_min_over_elements(self):
        m = refined_interval(4, 4, refinement=4, coarse_h=1.0)
        assert cfl_timestep(m, c_cfl=1.0) == pytest.approx(0.25)

    def test_order_shrinks_step(self):
        m = uniform_interval(4)
        assert cfl_timestep(m, order=4) < cfl_timestep(m, order=1)

    def test_gll_spacing_factor_order1(self):
        assert gll_spacing_factor(1) == 1.0

    def test_gll_spacing_factor_order4(self):
        # order-4 GLL min gap/2 ~ 0.1727
        assert gll_spacing_factor(4) == pytest.approx(0.1727, abs=1e-3)

    def test_rejects_bad_cfl_constant(self):
        with pytest.raises(SolverError):
            cfl_timestep(uniform_interval(2), c_cfl=-1.0)

    def test_operator_bound_is_stable_and_sharp(self):
        mesh = uniform_interval(20)
        sem = SemND(mesh, order=4)
        dt = stable_timestep_from_operator(csr.A(sem), safety=1.0)
        # Leap-frog with dt below the bound stays bounded; 5% above blows up.
        from repro.core import NewmarkSolver

        u0 = np.sin(np.pi * sem.node_coords[:, 0] / sem.node_coords[:, 0].max())
        stable, _ = NewmarkSolver(csr.A(sem), 0.95 * dt).run(u0, np.zeros_like(u0), 400)
        assert np.max(np.abs(stable)) < 10.0
        unstable, _ = NewmarkSolver(csr.A(sem), 1.05 * dt).run(u0, np.zeros_like(u0), 400)
        assert np.max(np.abs(unstable)) > 10.0


class TestMatrixFreeCfl:
    """Power iteration on the operator *action*: the matrix-free CFL path
    (ROADMAP item) — no assembled matrix needed for very large meshes."""

    @staticmethod
    def _contrast(shape, order):
        mesh = uniform_grid(shape)
        mesh.c = mesh.c.copy()
        mesh.c[mesh.n_elements // 2] = 3.0
        return SemND(mesh, order=order)

    @pytest.mark.parametrize("shape,order", [((5, 4), 4), ((6, 6), 3), ((3, 3, 2), 3)])
    def test_power_iteration_matches_sparse_eigensolver(self, shape, order):
        sem = self._contrast(shape, order)
        dt_eigs = stable_timestep_from_operator(csr.A(sem), method="eigs")
        dt_pow = stable_timestep_from_operator(
            sem.operator("matfree"), method="power"
        )
        assert abs(dt_pow - dt_eigs) / dt_eigs < 1e-6

    def test_auto_selects_power_for_matrix_free_operator(self):
        sem = self._contrast((4, 4), 3)
        op = sem.operator("matfree")
        # auto on a matrix-free operator must not require any matrix
        dt = stable_timestep_from_operator(op)
        assert dt == pytest.approx(stable_timestep_from_operator(csr.A(sem)), rel=1e-6)

    def test_auto_unwraps_assembled_operator(self):
        sem = self._contrast((4, 4), 3)
        dt_wrapped = stable_timestep_from_operator(csr.operator(sem))
        assert dt_wrapped == pytest.approx(
            stable_timestep_from_operator(csr.A(sem)), rel=1e-12
        )

    def test_spectral_radius_on_plain_matrix(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        lam = np.linspace(0.1, 7.0, 40)
        A = (Q * lam) @ Q.T  # symmetric with known spectrum
        assert operator_spectral_radius(A) == pytest.approx(7.0, rel=1e-9)

    def test_eigs_method_rejects_matrix_free(self):
        sem = self._contrast((4, 4), 2)
        with pytest.raises(SolverError):
            stable_timestep_from_operator(sem.operator("matfree"), method="eigs")


class TestAssignLevels:
    def test_uniform_mesh_single_level(self):
        a = assign_levels(uniform_interval(8))
        assert a.n_levels == 1
        assert np.all(a.level == 1)
        assert a.dt == a.dt_min

    def test_refinement_4_gives_3_levels_with_empty_middle(self):
        m = refined_interval(8, 8, refinement=4)
        a = assign_levels(m)
        assert a.n_levels == 3
        counts = a.counts()
        assert counts[0] == 8 and counts[1] == 0 and counts[2] == 8

    def test_level_convention_finest_is_max(self):
        m = refined_interval(4, 4, refinement=2)
        a = assign_levels(m)
        fine_elems = np.nonzero(m.h < m.h.max())[0]
        assert np.all(a.level[fine_elems] == a.n_levels)

    def test_dt_relation(self):
        m = refined_interval(4, 4, refinement=8)
        a = assign_levels(m)
        assert a.dt == pytest.approx(a.dt_min * a.p_max)
        assert a.p_max == 2 ** (a.n_levels - 1)

    def test_p_per_element_matches_level(self):
        m = refined_interval(4, 4, refinement=4)
        a = assign_levels(m)
        assert np.array_equal(a.p_per_element, 2 ** (a.level - 1))

    def test_max_levels_caps(self):
        m = refined_interval(4, 4, refinement=16)
        a = assign_levels(m, max_levels=3)
        assert a.n_levels == 3

    def test_per_element_stability_respected(self):
        """Every element's own step dt/2^(level-1) obeys its local CFL."""
        m = refined_interval(6, 6, refinement=4)
        c_cfl = 0.5
        a = assign_levels(m, c_cfl=c_cfl)
        dt_elem = stable_timestep_per_element(m, c_cfl)
        own_step = a.dt / 2.0 ** (a.level - 1)
        assert np.all(own_step <= dt_elem * (1 + 1e-9))

    def test_step_size_accessor(self):
        m = refined_interval(4, 4, refinement=2)
        a = assign_levels(m)
        assert a.step_size(1) == pytest.approx(a.dt)
        assert a.step_size(a.n_levels) == pytest.approx(a.dt_min)

    def test_elements_of_level_partition(self):
        m = refined_interval(5, 3, refinement=4)
        a = assign_levels(m)
        all_elems = np.concatenate(
            [a.elements_of_level(k) for k in range(1, a.n_levels + 1)]
        )
        assert sorted(all_elems) == list(range(m.n_elements))


class TestGrading:
    def test_grading_only_refines(self):
        m = refined_interval(16, 4, refinement=8)
        a = assign_levels(m)
        g = enforce_level_grading(m, a)
        assert np.all(g.level >= a.level)

    def test_graded_neighbours_within_one(self):
        m = refined_interval(16, 4, refinement=8)
        g = assign_levels(m, grade=True)
        xadj, adjncy = m.dual_graph()
        for e in range(m.n_elements):
            for nb in adjncy[xadj[e]:xadj[e + 1]]:
                assert abs(int(g.level[e]) - int(g.level[nb])) <= 1

    def test_already_graded_unchanged(self):
        m = refined_interval(8, 8, refinement=2)
        a = assign_levels(m)
        g = enforce_level_grading(m, a)
        assert np.array_equal(a.level, g.level)


class TestAssemblerConvenience:
    """assembler= pulls the material's maximal wave speed (and the
    polynomial order) so callers stop copy-pasting velocity=..."""

    def test_matches_explicit_velocity_and_order_elastic(self):
        from repro.sem import ElasticSemND, IsotropicElastic

        mesh = uniform_grid((4, 4), (1.0, 1.0))
        lam = np.full(mesh.n_elements, 2.0)
        lam[5] = 32.0
        mu = np.full(mesh.n_elements, 1.0)
        mu[5] = 16.0
        sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=lam, mu=mu))
        via_assembler = assign_levels(mesh, c_cfl=0.4, assembler=sem)
        explicit = assign_levels(mesh, c_cfl=0.4, order=3, velocity=sem.p_velocity())
        assert np.array_equal(via_assembler.level, explicit.level)
        assert via_assembler.dt == explicit.dt
        assert via_assembler.n_levels == 3  # the 4x-cp inclusion refines
        assert cfl_timestep(mesh, assembler=sem) == cfl_timestep(
            mesh, order=3, velocity=sem.p_velocity()
        )

    def test_acoustic_assembler_uses_material_speed(self):
        mesh = uniform_grid((3, 3))
        mesh.c = np.linspace(1.0, 2.0, mesh.n_elements)
        sem = SemND(mesh, order=2)
        assert cfl_timestep(mesh, assembler=sem) == cfl_timestep(
            mesh, order=2, velocity=sem.max_velocity()
        )

    def test_explicit_order_overrides_assembler_order(self):
        mesh = uniform_grid((3, 3))
        sem = SemND(mesh, order=4)
        assert cfl_timestep(mesh, assembler=sem, order=1) == cfl_timestep(
            mesh, order=1, velocity=sem.max_velocity()
        )

    def test_velocity_and_assembler_mutually_exclusive(self):
        mesh = uniform_grid((2, 2))
        sem = SemND(mesh, order=2)
        with pytest.raises(SolverError):
            cfl_timestep(mesh, velocity=sem.max_velocity(), assembler=sem)
        with pytest.raises(SolverError):
            assign_levels(mesh, velocity=sem.max_velocity(), assembler=sem)

    def test_assembler_without_max_velocity_rejected(self):
        with pytest.raises(SolverError):
            cfl_timestep(uniform_grid((2, 2)), assembler=object())
