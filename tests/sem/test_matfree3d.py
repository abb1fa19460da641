"""3D matrix-free backend: machine-precision equivalence with assembled
CSR (full apply and LTS level-restricted apply), mirroring the 2D suite,
the op unit of the acoustic and (2D and 3D) elastic kernels, plus the
fused-tier gating rules specific to 3D."""

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import AnisotropicElasticSemND, ElasticSemND, SemND, fused, isotropic_stiffness
from repro.sem.matfree import AcousticKernelND, inverse_mass, stiffness_share
from repro.util.errors import SolverError
from oracles.scale import as_scaled
from oracles import csr

#: Both implementation tiers when the fused C kernels are available,
#: otherwise just the portable NumPy path.
FUSED_PARAMS = [False, None] if fused.available() else [False]


def _mesh(shape=(3, 3, 2)):
    mesh = uniform_grid(shape, (1.0, 1.3, 0.8))
    mesh.c = mesh.c.copy()
    mesh.c[mesh.n_elements // 2] = 3.0  # velocity contrast
    return mesh


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


class TestAcoustic3DEquivalence:
    @pytest.mark.parametrize("order", range(1, fused.MAX_ORDER_3D + 1))
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_full_apply(self, order, dirichlet):
        # Every 3D order; four elements keep order 7 (MAXNL3) cheap.
        mesh = _mesh() if order <= 6 else _mesh((2, 2, 1))
        sem = SemND(mesh, order=order, dirichlet=dirichlet)
        u = np.random.default_rng(order).standard_normal(sem.n_dof)
        ref = csr.A(sem) @ u
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            assert _rel_err(op @ u, ref) < 1e-12, (order, dirichlet, uf)

    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_restricted_apply(self, order, dirichlet):
        sem = SemND(_mesh(), order=order, dirichlet=dirichlet)
        rng = np.random.default_rng(order)
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=max(1, sem.n_dof // 3), replace=False)
        ref = csr.operator(sem).restrict(cols).apply(u)
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            restr = op.restrict(cols)
            assert _rel_err(as_scaled(op, restr.apply(u)), ref) < 1e-12, (order, dirichlet, uf)
            assert restr.ops > 0

    def test_reach_superset_of_assembled(self):
        sem = SemND(_mesh(), order=3)
        mask = np.zeros(sem.n_dof, dtype=bool)
        mask[::11] = True
        reach_a = csr.operator(sem).reach(mask)
        reach_m = sem.operator("matfree").reach(mask)
        assert np.all(reach_m | ~reach_a)  # reach_a implies reach_m

    def test_nnz_counts_contraction_flops(self):
        """3D flops per element are O(n^4): the sum-factorization payoff
        against the O(n^6) dense element matvec."""
        sem = SemND(_mesh(), order=4)
        op = sem.operator("matfree")
        k = op.kernel
        assert isinstance(k, AcousticKernelND) and k.dim == 3
        n1 = k.n1
        assert k.flops_per_element == 6 * n1**4 + 9 * n1**3
        assert op.nnz == sem.mesh.n_elements * k.flops_per_element

    @pytest.mark.parametrize("dim", [2, 3])
    def test_elastic_flops_count_the_stress_form(self, dim):
        """The elastic op unit is the stress form the fused tier runs:
        ``2 dim^2`` axis contractions of ``n1^(dim+1)`` multiply-adds,
        then the pointwise stress per node -- in 3D ``el_apply3``'s
        15-coefficient isotropic stress (42 flops: 9 weight products, 3
        normal stresses of 5, 6 shear stresses of 3), in 2D the full
        16-term combine ``an_apply`` runs (36 flops), which is also the
        anisotropic kernel's in either dimension (``2 dim^4 + dim^2``)."""
        mesh = uniform_grid((2,) * dim)
        el = ElasticSemND(mesh, order=4).kernel()
        an = AnisotropicElasticSemND(mesh, order=4, C=isotropic_stiffness(2.0, 1.0, dim)).kernel()
        n1 = el.n1
        contractions = 4 * dim**2 * n1 ** (dim + 1)
        assert an.flops_per_element == contractions + (2 * dim**4 + dim**2) * n1**dim
        if dim == 2:
            assert el.flops_per_element == an.flops_per_element == 2900
        else:
            assert el.flops_per_element == contractions + 42 * n1**3 == 27750
        op = ElasticSemND(mesh, order=4).operator("matfree")
        assert op.nnz == mesh.n_elements * el.flops_per_element

    def test_rank_share_matches_partial_assembly(self):
        sem = SemND(_mesh(), order=2)
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


class TestFusedGating3D:
    def test_numpy_path_pinned(self):
        sem = SemND(_mesh(), order=2)
        op = sem.operator("matfree", use_fused=False)
        assert op._plan is None
        assert np.isfinite(op @ np.ones(sem.n_dof)).all()

    @pytest.mark.skipif(not fused.available(), reason="no C compiler")
    def test_fused_3d_plan_built_when_available(self):
        sem = SemND(_mesh(), order=2)
        plan = sem.operator("matfree")._plan
        assert isinstance(plan, fused.Acoustic3DPlan)

    def test_order_above_3d_cap_falls_back_to_numpy(self):
        """Beyond MAX_ORDER_3D the auto tier must fall back silently,
        and forcing the fused tier must raise (REPRO_FUSED contract)."""
        order = fused.MAX_ORDER_3D + 1
        sem = SemND(uniform_grid((1, 1, 1)), order=order)
        op = sem.operator("matfree")  # auto: numpy fallback
        assert op._plan is None
        u = np.random.default_rng(0).standard_normal(sem.n_dof)
        assert _rel_err(op @ u, csr.A(sem) @ u) < 1e-12
        with pytest.raises(SolverError):
            sem.operator("matfree", use_fused=True)
