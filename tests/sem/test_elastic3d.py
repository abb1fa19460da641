"""Tests for the 3D isotropic elastic SEM on the physics-generic core:
assembly invariants, backend equivalence (full + LTS-restricted), fused
gating, the assembler-built kernel, energy conservation, power-iteration CFL,
and distributed LTS — the 3D instances of the paper's Eqs. (1)-(2)."""

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.core import assign_levels, stable_timestep_from_operator
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.core import NewmarkSolver
from repro.core.newmark import staggered_initial_velocity
from repro.mesh import uniform_grid, uniform_interval
from repro.sem import ElasticSemND, IsotropicElastic, discrete_energy, fused
from repro.sem.matfree import ElasticKernelND, inverse_mass, stiffness_share
from repro.util.errors import PartitionError, SolverError
from oracles.scale import as_scaled
from oracles import csr

#: Both implementation tiers when the fused C kernels are available,
#: otherwise just the portable NumPy path.
FUSED_PARAMS = [False, None] if fused.available() else [False]


def _mesh(shape=(3, 2, 2)):
    return uniform_grid(shape, (1.0, 1.3, 0.8))


def _sem(order=3, shape=(3, 2, 2), dirichlet=False):
    return ElasticSemND(
        _mesh(shape), order=order, dirichlet=dirichlet,
        material=IsotropicElastic(lam=2.3, mu=1.7, rho=1.1),
    )


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


@pytest.fixture(scope="module")
def elastic():
    return ElasticSemND(
        uniform_grid((2, 2, 2), (1.0, 1.0, 1.0)), order=3,
        material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.0),
    )


class TestAssembly:
    def test_dof_count(self, elastic):
        assert elastic.n_dof == 3 * (2 * 3 + 1) ** 3
        assert elastic.n_dof == 3 * elastic.n_scalar

    def test_stiffness_symmetric_psd(self, elastic):
        K = csr.K(elastic).toarray()
        assert np.allclose(K, K.T, atol=1e-10)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8

    def test_rigid_body_translations_in_kernel(self, elastic):
        for comp in range(3):
            u = np.zeros(elastic.n_dof)
            u[comp::3] = 1.0
            assert np.max(np.abs(csr.K(elastic) @ u)) < 1e-9

    def test_infinitesimal_rotations_in_kernel(self, elastic):
        """All three infinitesimal rotations have zero strain: the
        elastic energy kernel is exactly the rigid motions."""
        zero = lambda x, y, z: 0 * x  # noqa: E731
        rotations = [
            elastic.interpolate(lambda x, y, z: y, lambda x, y, z: -x, zero),
            elastic.interpolate(lambda x, y, z: z, zero, lambda x, y, z: -x),
            elastic.interpolate(zero, lambda x, y, z: z, lambda x, y, z: -y),
        ]
        for u in rotations:
            assert np.max(np.abs(csr.K(elastic) @ u)) < 1e-8

    def test_mass_positive_and_totals_rho_volume(self, elastic):
        assert np.all(elastic.M > 0)
        assert elastic.M.sum() == pytest.approx(3.0 * 1.0)  # 3 comps x rho x vol

    def test_p_and_s_velocities(self, elastic):
        assert np.allclose(elastic.p_velocity(), 2.0)  # sqrt((2+2)/1)
        assert np.allclose(elastic.s_velocity(), 1.0)

    def test_spectrum_scales_with_moduli(self, elastic):
        """A is linear in (lambda, mu)/rho: scaling both by 4 scales
        every entry of A by 4 (homogeneity check of the assembly)."""
        sem4 = ElasticSemND(
            uniform_grid((2, 2, 2), (1.0, 1.0, 1.0)), order=3,
            material=IsotropicElastic(lam=8.0, mu=4.0, rho=1.0),
        )
        diff = csr.A(sem4) - 4.0 * csr.A(elastic)
        assert np.max(np.abs(diff.toarray())) < 1e-9

    def test_dirichlet_masks_all_components(self):
        sem = _sem(order=2, dirichlet=True)
        bd = sem.boundary_dofs()
        assert len(bd) % 3 == 0
        u = np.random.default_rng(0).standard_normal(sem.n_dof)
        z = csr.A(sem) @ u
        assert np.max(np.abs(z[bd])) == 0.0

    def test_rejects_bad_materials_and_dim(self):
        with pytest.raises(SolverError):
            ElasticSemND(_mesh(), material=IsotropicElastic(mu=-1.0))
        with pytest.raises(SolverError, match="dim in"):
            ElasticSemND(uniform_interval(4), order=2)


class TestBackendEquivalence:
    @pytest.mark.parametrize("order", range(1, fused.MAX_ORDER_3D + 1))
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_full_apply(self, order, dirichlet):
        # Every 3D order; two elements keep the high ones cheap.
        shape = (3, 2, 2) if order <= 4 else (2, 1, 1)
        sem = _sem(order=order, shape=shape, dirichlet=dirichlet)
        u = np.random.default_rng(order).standard_normal(sem.n_dof)
        ref = csr.A(sem) @ u
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            assert _rel_err(op @ u, ref) < 1e-12, (order, dirichlet, uf)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_restricted_apply(self, order, dirichlet):
        sem = _sem(order=order, dirichlet=dirichlet)
        rng = np.random.default_rng(order)
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=max(1, sem.n_dof // 3), replace=False)
        ref = csr.operator(sem).restrict(cols).apply(u)
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            restr = op.restrict(cols)
            assert _rel_err(as_scaled(op, restr.apply(u)), ref) < 1e-12, (order, dirichlet, uf)
            assert restr.ops > 0

    def test_heterogeneous_materials(self):
        rng = np.random.default_rng(3)
        mesh = _mesh()
        lam = rng.uniform(1.0, 4.0, mesh.n_elements)
        mu = rng.uniform(0.5, 2.0, mesh.n_elements)
        rho = rng.uniform(0.8, 1.2, mesh.n_elements)
        sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(lam=lam, mu=mu, rho=rho))
        u = rng.standard_normal(sem.n_dof)
        ref = csr.A(sem) @ u
        for uf in FUSED_PARAMS:
            assert _rel_err(sem.operator("matfree", use_fused=uf) @ u, ref) < 1e-12

    def test_reach_superset_of_assembled(self):
        sem = _sem(order=2)
        mask = np.zeros(sem.n_dof, dtype=bool)
        mask[::11] = True
        reach_a = csr.operator(sem).reach(mask)
        reach_m = sem.operator("matfree").reach(mask)
        assert np.all(reach_m | ~reach_a)  # reach_a implies reach_m

    def test_rank_share_matches_partial_assembly(self):
        sem = _sem(order=2)
        ids = np.array([0, 3, 7, 11])
        gd = np.unique(sem.element_dofs[ids].ravel())
        ld = np.searchsorted(gd, sem.element_dofs[ids])
        minv = inverse_mass(sem)[gd]
        for uf in FUSED_PARAMS:
            K = stiffness_share(sem, minv, ids, ld, use_fused=uf)
            u = np.random.default_rng(0).standard_normal(len(gd))
            ref = np.zeros(len(gd))
            Ke, _ = csr.element_system_batch(sem, ids)
            for m in range(len(ids)):
                ref[ld[m]] += Ke[m] @ u[ld[m]]
            assert _rel_err(K @ u, minv * ref) < 1e-12

    def test_nnz_counts_contraction_flops(self):
        sem = _sem(order=3)
        op = sem.operator("matfree")
        assert isinstance(op.kernel, ElasticKernelND) and op.kernel.dim == 3
        assert op.nnz == sem.mesh.n_elements * op.kernel.flops_per_element
        cols = np.arange(10)
        assert 0 < op.restrict(cols).ops < op.nnz


class TestKernel:
    def test_kernel_is_built_from_the_element_slice(self):
        sem = _sem(order=2)
        k = sem.kernel()
        assert isinstance(k, ElasticKernelND)
        assert (k.physics, k.dim, k.n_comp) == ("elastic", 3, 3)
        ids = np.array([1, 4])
        sub = sem.kernel(ids)
        assert np.array_equal(sub.lam, sem.material.lam[ids])
        assert np.array_equal(sub.mu, sem.material.mu[ids])
        assert np.array_equal(sub.h_axes, sem.h_axes[ids])

    def test_layout_refuses_assembler_without_kernel(self):
        """A matrix-free rank layout needs the assembler's own kernel:
        one that builds none gets a clear error."""
        from repro.runtime import build_rank_layout

        sem = _sem(order=2)

        class NoKernel:
            def __getattr__(self, name):
                if name == "kernel":
                    raise AttributeError(name)
                return getattr(sem, name)

        parts = np.arange(sem.mesh.n_elements) % 2
        with pytest.raises(PartitionError, match="kernel"):
            build_rank_layout(NoKernel(), parts, 2, backend="matfree")


class TestFusedGating3D:
    def test_numpy_path_pinned(self):
        sem = _sem(order=2)
        op = sem.operator("matfree", use_fused=False)
        assert op._plan is None
        assert np.isfinite(op @ np.ones(sem.n_dof)).all()

    @pytest.mark.skipif(not fused.available(), reason="no C compiler")
    def test_fused_3d_plan_built_when_available(self):
        sem = _sem(order=2)
        plan = sem.operator("matfree")._plan
        assert isinstance(plan, fused.Elastic3DPlan)

    def test_order_above_3d_cap_falls_back_to_numpy(self):
        order = fused.MAX_ORDER_3D + 1
        sem = ElasticSemND(
            uniform_grid((1, 1, 1)), order=order,
            material=IsotropicElastic(lam=2.0, mu=1.0),
        )
        op = sem.operator("matfree")  # auto: numpy fallback
        assert op._plan is None
        u = np.random.default_rng(0).standard_normal(sem.n_dof)
        assert _rel_err(op @ u, csr.A(sem) @ u) < 1e-12
        with pytest.raises(SolverError):
            sem.operator("matfree", use_fused=True)


class TestDynamicsAndCFL:
    def test_energy_conserved(self, elastic):
        """Staggered Newmark on the free-surface elastic operator
        conserves the discrete energy (as the 2D suite pins)."""
        zero = lambda x, y, z: 0 * x  # noqa: E731
        u = elastic.interpolate(
            lambda x, y, z: np.cos(np.pi * x) * np.cos(np.pi * y) * np.cos(np.pi * z),
            zero,
            zero,
        )
        dt = 2e-4
        v = staggered_initial_velocity(csr.A(elastic), dt, u, np.zeros_like(u))
        solver = NewmarkSolver(csr.A(elastic), dt)
        energies = []
        for _ in range(150):
            u_prev = u.copy()
            u, v = solver.step(u, v)
            energies.append(discrete_energy(elastic.M, csr.K(elastic), u_prev, u, v))
        energies = np.asarray(energies)
        assert np.ptp(energies) / energies.mean() < 1e-6

    @pytest.mark.parametrize("use_fused", FUSED_PARAMS)
    def test_power_iteration_cfl_matches_eigs(self, use_fused):
        """Matrix-free CFL on the elastic operator action agrees with
        the sparse eigensolver bound (no assembled matrix needed)."""
        sem = _sem(order=2)
        dt_eigs = stable_timestep_from_operator(csr.A(sem), method="eigs")
        dt_power = stable_timestep_from_operator(
            sem.operator("matfree", use_fused=use_fused), method="power"
        )
        assert abs(dt_eigs - dt_power) / dt_eigs < 1e-6

    def test_auto_selects_power_for_matrix_free_elastic(self):
        sem = _sem(order=2)
        dt = stable_timestep_from_operator(sem.operator("matfree"), method="auto")
        assert dt > 0


class TestElasticLTS3D:
    def _setup(self):
        mesh = _mesh((3, 3, 2))
        lam = np.full(mesh.n_elements, 2.0)
        mu = np.full(mesh.n_elements, 1.0)
        lam[7] = 128.0
        mu[7] = 64.0  # cp factor-8 inclusion, graded: four active levels
        sem = ElasticSemND(mesh, order=2, material=IsotropicElastic(lam=lam, mu=mu))
        levels = assign_levels(
            mesh, c_cfl=0.35, order=2, velocity=sem.p_velocity(), grade=True
        )  # P-velocity-driven, not geometry
        dof_level = dof_levels_from_elements(
            sem.element_dofs, levels.level, sem.n_dof
        )
        assert np.unique(dof_level).tolist() == [1, 2, 3, 4]
        zero = lambda x, y, z: 0 * x  # noqa: E731
        u0 = sem.interpolate(
            lambda x, y, z: np.exp(-8 * ((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.4) ** 2)),
            zero,
            zero,
        )
        v0 = staggered_initial_velocity(csr.A(sem), levels.dt, u0, np.zeros_like(u0))
        return sem, levels, dof_level, u0, v0

    def test_lts_matches_algorithm1_on_stiff_inclusion(self):
        sem, levels, dof_level, u0, v0 = self._setup()
        u1, _ = algorithm1(csr.A(sem), dof_level, levels.dt, u0, v0, 4)
        u2, _ = LTSNewmarkSolver(csr.A(sem), dof_level, levels.dt).run(u0, v0, 4)
        assert np.max(np.abs(u1 - u2)) < 1e-12
        assert np.all(np.isfinite(u1))

    @pytest.mark.parametrize("tier", ["assembled", "matfree"])
    def test_distributed_elastic_lts_matches_serial(self, tier):
        from repro.runtime import DistributedLTSSolver

        sem, levels, dof_level, u0, v0 = self._setup()
        us, _ = algorithm1(csr.A(sem), dof_level, levels.dt, u0, v0, 3)
        parts = (np.arange(sem.mesh.n_elements) % 3).astype(np.int64)
        layout = csr.tier_layout(sem, parts, 3, tier, dof_level)
        ud, _ = DistributedLTSSolver(layout, levels.dt).run(u0, v0, 3)
        assert np.max(np.abs(us - ud)) < 1e-11
