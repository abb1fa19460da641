"""Tests for general anisotropic elastic SEM: reduction to the isotropic
operator, backend equivalence (assembled vs matrix-free stress form),
Christoffel-driven LTS levels, and the distributed runtime."""

import numpy as np
import pytest

from repro.core import (
    assign_levels,
    stable_timestep_from_operator,
)
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.mesh import uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld
from repro.sem import (
    AnisotropicElastic,
    AnisotropicElasticSemND,
    ElasticSemND,
    IsotropicElastic,
    hexagonal_stiffness,
    isotropic_stiffness,
)
from repro.sem import fused
from repro.sem.materials import rotation_about_y
from repro.sem.matfree import AnisotropicKernelND
from repro.util.errors import SolverError
from oracles.scale import as_scaled
from oracles import csr


def _random_pd_voigt(rng, n_elem, dim):
    nv = 3 if dim == 2 else 6
    A = rng.standard_normal((n_elem, nv, nv))
    return A @ A.transpose(0, 2, 1) + 3.0 * np.eye(nv)


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


class TestIsotropicReduction:
    """An isotropic Voigt tensor must reproduce ElasticSemND exactly."""

    @pytest.mark.parametrize("tier", ["assembled", "numpy", "fused"])
    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("dim,grid", [(2, (4, 3)), (3, (2, 2, 2))])
    def test_matches_isotropic_assembler(self, dim, grid, dirichlet, tier):
        """The assembled CSRs agree to 1e-14.  The matrix-free tiers run
        one stress form: NumPy and the fused 2D tier (``an_apply`` for
        both) bitwise; in 3D the isotropic kernel's 15-coefficient stress
        (``el_apply3``) against the general one (``an_apply3``) to
        1e-13."""
        if tier == "fused" and not fused.available():
            pytest.skip("no C compiler: fused tier unavailable")
        mesh = uniform_grid(grid, tuple(1.0 + 0.2 * a for a in range(dim)))
        rng = np.random.default_rng(dim)
        lam = 2.0 + rng.random(mesh.n_elements)
        mu = 1.0 + rng.random(mesh.n_elements)
        rho = 1.0 + rng.random(mesh.n_elements)
        iso = ElasticSemND(mesh, order=3, dirichlet=dirichlet,
                           material=IsotropicElastic(lam=lam, mu=mu, rho=rho))
        aniso = AnisotropicElasticSemND(
            mesh, order=3, C=isotropic_stiffness(lam, mu, dim), rho=rho, dirichlet=dirichlet
        )
        assert np.array_equal(iso.M, aniso.M)
        u = rng.standard_normal(iso.n_dof)
        if tier == "assembled":
            assert _rel_err(csr.K(aniso).toarray(), csr.K(iso).toarray()) < 1e-14
            assert _rel_err(csr.A(aniso) @ u, csr.A(iso) @ u) < 1e-14
            return
        ops = [sem.operator(use_fused=tier == "fused") for sem in (iso, aniso)]
        assert [op.tier for op in ops] == [tier, tier]
        got, ref = (op @ u for op in ops)
        assert np.any(ref != 0.0)
        if tier == "fused" and dim == 3:
            assert [op._plan._symbol for op in ops] == ["el_apply3", "an_apply3"]
            assert _rel_err(got, ref) <= 1e-13
        else:
            assert np.array_equal(got, ref)

    def test_max_velocity_matches_p_velocity(self):
        mesh = uniform_grid((3, 3))
        iso = ElasticSemND(mesh, order=2, material=IsotropicElastic(lam=2.0, mu=1.0, rho=1.3))
        aniso = AnisotropicElasticSemND(
            mesh, order=2, C=isotropic_stiffness(2.0, 1.0, 2), rho=1.3
        )
        assert np.allclose(aniso.max_velocity(), iso.p_velocity())


class TestBackendEquivalence:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8])  # 8: a 2D-only order
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_full_apply_2d(self, order, dirichlet):
        mesh = uniform_grid((4, 3), (1.0, 1.3))
        rng = np.random.default_rng(order)
        sem = AnisotropicElasticSemND(
            mesh,
            order=order,
            C=_random_pd_voigt(rng, mesh.n_elements, 2),
            rho=1.0 + rng.random(mesh.n_elements),
            dirichlet=dirichlet,
        )
        u = rng.standard_normal(sem.n_dof)
        assert _rel_err(sem.operator("matfree") @ u, csr.A(sem) @ u) < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_full_apply_3d(self, order):
        mesh = uniform_grid((2, 2, 2), (1.0, 1.2, 0.9))
        rng = np.random.default_rng(order)
        sem = AnisotropicElasticSemND(
            mesh, order=order, C=_random_pd_voigt(rng, mesh.n_elements, 3)
        )
        u = rng.standard_normal(sem.n_dof)
        assert _rel_err(sem.operator("matfree") @ u, csr.A(sem) @ u) < 1e-12

    @pytest.mark.parametrize("dim,grid", [(2, (4, 3)), (3, (2, 2, 2))])
    def test_restricted_apply(self, dim, grid):
        mesh = uniform_grid(grid)
        rng = np.random.default_rng(dim)
        sem = AnisotropicElasticSemND(
            mesh, order=3, C=_random_pd_voigt(rng, mesh.n_elements, dim)
        )
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=sem.n_dof // 4, replace=False)
        ref = csr.operator(sem).restrict(cols).apply(u)
        op = sem.operator("matfree")
        restr = op.restrict(cols)
        assert _rel_err(as_scaled(op, restr.apply(u)), ref) < 1e-12
        assert restr.ops > 0

    def test_rigid_modes_in_kernel(self):
        """Translations and linearized rotations carry zero strain, so
        any (minor-symmetric) stiffness annihilates them."""
        mesh = uniform_grid((3, 3))
        rng = np.random.default_rng(0)
        sem = AnisotropicElasticSemND(
            mesh, order=3, C=_random_pd_voigt(rng, mesh.n_elements, 2)
        )
        op = sem.operator("matfree")
        scale = np.abs(csr.A(sem)).max()
        for c in range(2):
            z = np.zeros(sem.n_dof)
            z[c::2] = 1.0
            assert np.abs(op @ z).max() / scale < 1e-12
        rot = sem.interpolate(lambda x, y: y, lambda x, y: -x)
        assert np.abs(op @ rot).max() / scale < 1e-12

    def test_stiffness_symmetric(self):
        mesh = uniform_grid((3, 2))
        rng = np.random.default_rng(1)
        sem = AnisotropicElasticSemND(
            mesh, order=2, C=_random_pd_voigt(rng, mesh.n_elements, 2)
        )
        K = csr.K(sem).toarray()
        assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())

    @pytest.mark.skipif(not fused.available(), reason="no C compiler")
    @pytest.mark.parametrize("dim,grid", [(2, (4, 3)), (3, (2, 2, 2))])
    def test_fused_tier_matches_assembled(self, dim, grid):
        """The fused stress-form kernels (an_apply/an_apply3) reproduce
        the assembled CSR action at machine precision."""
        mesh = uniform_grid(grid)
        rng = np.random.default_rng(dim)
        sem = AnisotropicElasticSemND(
            mesh, order=3, C=_random_pd_voigt(rng, mesh.n_elements, dim),
            dirichlet=True,
        )
        op = sem.operator("matfree", use_fused=True)
        assert op.tier == "fused"
        u = rng.standard_normal(sem.n_dof)
        assert _rel_err(op @ u, csr.A(sem) @ u) < 1e-12
        cols = rng.choice(sem.n_dof, size=sem.n_dof // 4, replace=False)
        ref = csr.operator(sem).restrict(cols).apply(u)
        assert _rel_err(as_scaled(op, op.restrict(cols).apply(u)), ref) < 1e-12

    def test_use_fused_true_raises_when_unavailable(self):
        """Requesting the fused tier past its order ceiling must fail
        loudly, not silently fall back (3D workspace caps at
        MAX_ORDER_3D)."""
        mesh = uniform_grid((1, 1, 1))
        rng = np.random.default_rng(0)
        sem = AnisotropicElasticSemND(
            mesh, order=fused.MAX_ORDER_3D + 1,
            C=_random_pd_voigt(rng, mesh.n_elements, 3),
        )
        with pytest.raises(SolverError):
            sem.operator("matfree", use_fused=True)


class TestKernel:
    def test_kernel_is_built_from_the_element_slice(self):
        mesh = uniform_grid((3, 2))
        sem = AnisotropicElasticSemND(mesh, order=2, C=isotropic_stiffness(2.0, 1.0, 2))
        k = sem.kernel()
        assert isinstance(k, AnisotropicKernelND)
        assert (k.physics, k.dim, k.n_comp) == ("anisotropic_elastic", 2, 2)
        assert np.array_equal(k.C, sem.material.C)
        ids = np.array([0, 2])
        sub = sem.kernel(ids)
        assert np.array_equal(sub.C, sem.material.C[ids])
        assert np.array_equal(sub.h_axes, sem.h_axes[ids])


class TestChristoffelLevels:
    def test_assembler_levels_follow_christoffel_velocity(self):
        """A fast TTI slab forces finer p-levels on a uniform grid."""
        mesh = uniform_grid((6, 2, 2))
        C = np.broadcast_to(
            isotropic_stiffness(2.0, 1.0, 3), (mesh.n_elements, 6, 6)
        ).copy()
        tti = AnisotropicElastic(
            hexagonal_stiffness(80.0, 50.0, 20.0, 16.0, 20.0)
        ).rotate(rotation_about_y(0.5))
        fast = np.arange(mesh.n_elements) < mesh.n_elements // 3
        C[fast] = tti.C
        sem = AnisotropicElasticSemND(mesh, order=2, C=C)
        levels = assign_levels(mesh, assembler=sem)
        explicit = assign_levels(mesh, order=2, velocity=sem.max_velocity())
        assert np.array_equal(levels.level, explicit.level)
        assert levels.dt == explicit.dt
        assert levels.level[fast].min() > levels.level[~fast].max()

    def test_power_iteration_cfl_matches_eigs(self):
        mesh = uniform_grid((3, 3))
        rng = np.random.default_rng(3)
        sem = AnisotropicElasticSemND(
            mesh, order=3, C=_random_pd_voigt(rng, mesh.n_elements, 2)
        )
        dt_e = stable_timestep_from_operator(csr.A(sem), method="eigs")
        dt_p = stable_timestep_from_operator(
            sem.operator("matfree"), method="power", tol=1e-10, maxiter=200_000
        )
        assert dt_p == pytest.approx(dt_e, rel=1e-3)


class TestDistributed:
    @pytest.mark.parametrize("tier", ["assembled", "matfree"])
    def test_distributed_lts_matches_serial_3d(self, tier):
        """Anisotropic 3D through rank layouts, halo exchange and the
        distributed LTS executor, per stiffness backend."""
        mesh = uniform_grid((4, 2, 2))
        C = np.broadcast_to(
            isotropic_stiffness(2.0, 1.0, 3), (mesh.n_elements, 6, 6)
        ).copy()
        C[: mesh.n_elements // 2] = hexagonal_stiffness(80.0, 50.0, 20.0, 16.0, 20.0)
        sem = AnisotropicElasticSemND(mesh, order=2, C=C)
        levels = assign_levels(mesh, c_cfl=0.3, assembler=sem)
        assert levels.n_levels >= 2
        dof_level = dof_levels_from_elements(sem.element_dofs, levels.level, sem.n_dof)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(sem.n_dof) * 1e-3
        v0 = np.zeros(sem.n_dof)
        us, _ = LTSNewmarkSolver(csr.A(sem), dof_level, levels.dt).run(u0, v0, 4)

        parts = np.arange(mesh.n_elements) % 2
        layout = csr.tier_layout(sem, parts, 2, tier, dof_level)
        dist = DistributedLTSSolver(layout, levels.dt, world=MailboxWorld(2))
        ud, _ = dist.run(u0, v0, 4)
        assert _rel_err(ud, us) < 1e-12
