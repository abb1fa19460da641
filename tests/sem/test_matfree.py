"""Matrix-free tensor-product operator: equivalence with the assembled CSR
backend to machine precision (paper Sec. II-C: the unassembled
implementation computes *the same* operator)."""

import subprocess

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import ElasticSemND, IsotropicElastic, SemND, fused
from repro.sem.matfree import MatrixFreeStiffness, inverse_mass, stiffness_share
from oracles.scale import as_scaled
from oracles import csr

#: Both implementation tiers when the fused C kernels are available,
#: otherwise just the portable NumPy path.
FUSED_PARAMS = [False, None] if fused.available() else [False]


def _mesh(shape=(5, 4)):
    mesh = uniform_grid(shape, (1.0, 1.3))
    mesh.c = mesh.c.copy()
    mesh.c[mesh.n_elements // 2] = 3.0  # velocity contrast
    return mesh


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


class TestAcousticEquivalence:
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_full_apply(self, order, dirichlet):
        sem = SemND(_mesh(), order=order, dirichlet=dirichlet)
        u = np.random.default_rng(order).standard_normal(sem.n_dof)
        ref = csr.A(sem) @ u
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            assert _rel_err(op @ u, ref) < 1e-12, (order, dirichlet, uf)

    @pytest.mark.parametrize("order", [1, 3, 5, 8])
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

    @pytest.mark.parametrize("order", [2, 4])
    def test_reach_superset_of_assembled(self, order):
        """Matrix-free reach = all same-element DOFs: a valid superset of
        the assembled structural reach (supersets preserve the LTS
        scheme; see lts_newmark module docs)."""
        sem = SemND(_mesh(), order=order)
        mask = np.zeros(sem.n_dof, dtype=bool)
        mask[::7] = True
        reach_a = csr.operator(sem).reach(mask)
        reach_m = sem.operator("matfree").reach(mask)
        assert np.all(reach_m | ~reach_a)  # reach_a implies reach_m

    def test_nnz_counts_contraction_flops(self):
        sem = SemND(_mesh(), order=4)
        op = sem.operator("matfree")
        assert op.nnz == sem.mesh.n_elements * op.kernel.flops_per_element
        # restriction ops scale with the touched element subset
        cols = np.arange(10)
        assert 0 < op.restrict(cols).ops < op.nnz


class TestElasticEquivalence:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_full_apply(self, order):
        el = ElasticSemND(
            _mesh((4, 3)), order=order,
            material=IsotropicElastic(lam=2.3, mu=1.7, rho=1.1),
        )
        u = np.random.default_rng(order).standard_normal(el.n_dof)
        ref = csr.A(el) @ u
        for uf in FUSED_PARAMS:
            op = el.operator("matfree", use_fused=uf)
            assert _rel_err(op @ u, ref) < 1e-12, (order, uf)

    @pytest.mark.parametrize("order", [2, 5])
    def test_restricted_apply(self, order):
        el = ElasticSemND(
            _mesh((4, 3)), order=order,
            material=IsotropicElastic(lam=2.3, mu=1.7, rho=1.1),
        )
        rng = np.random.default_rng(order)
        u = rng.standard_normal(el.n_dof)
        cols = rng.choice(el.n_dof, size=el.n_dof // 4, replace=False)
        ref = csr.operator(el).restrict(cols).apply(u)
        for uf in FUSED_PARAMS:
            op = el.operator("matfree", use_fused=uf)
            restr = op.restrict(cols)
            assert _rel_err(as_scaled(op, restr.apply(u)), ref) < 1e-12, (order, uf)

    def test_rigid_motions_in_kernel(self):
        el = ElasticSemND(_mesh((4, 3)), order=3, material=IsotropicElastic(lam=2.0, mu=1.0))
        op = el.operator("matfree")
        rot = el.interpolate(lambda x, y: y, lambda x, y: -x)
        assert np.abs(op @ rot).max() < 1e-8
        for comp in (0, 1):
            u = np.zeros(el.n_dof)
            u[comp::2] = 1.0
            assert np.abs(op @ u).max() < 1e-9


class TestStiffnessShare:
    """One builder makes every matrix-free product: a rank's share of
    ``M^{-1} K`` and, over every element, the serial operator."""

    def test_rank_share_matches_partial_assembly(self):
        sem = SemND(_mesh(), order=3)
        ids = np.array([0, 3, 7, 11])
        gd = np.unique(sem.element_dofs[ids].ravel())
        ld = np.searchsorted(gd, sem.element_dofs[ids])
        minv = inverse_mass(sem)[gd]
        for uf in FUSED_PARAMS:
            K = stiffness_share(sem, minv, ids, ld, use_fused=uf)
            u = np.random.default_rng(0).standard_normal(len(gd))
            # brute force: sum of dense element systems, rows scaled by 1/M
            ref = np.zeros(len(gd))
            Ke, _ = csr.element_system_batch(sem, ids)
            for m in range(len(ids)):
                ref[ld[m]] += Ke[m] @ u[ld[m]]
            assert _rel_err(K @ u, minv * ref) < 1e-12

    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_serial_operator_is_the_all_elements_share(self, dirichlet):
        """The serial operator and the whole mesh's share are one
        product, bitwise; the 1/M of both is 0 on Dirichlet rows."""
        sem = SemND(_mesh(), order=3, dirichlet=dirichlet)
        minv = inverse_mass(sem)
        held = np.zeros(sem.n_dof, dtype=bool)
        if dirichlet:
            held[sem.boundary_dofs()] = True
        assert np.array_equal(minv == 0, held)
        u = np.random.default_rng(3).standard_normal(sem.n_dof)
        for uf in FUSED_PARAMS:
            op = sem.operator("matfree", use_fused=uf)
            share = stiffness_share(sem, minv, np.arange(sem.mesh.n_elements),
                                    use_fused=uf)
            assert isinstance(op, MatrixFreeStiffness) and op.tier == share.tier
            assert (op @ u).tobytes() == (share @ u).tobytes()

    def test_masked_subset_restricts_input_support(self):
        sem = SemND(_mesh(), order=3)
        K = sem.operator("matfree")
        mask = np.zeros(sem.n_dof, dtype=bool)
        mask[sem.element_dofs[2]] = True
        sub = K.masked_subset(mask)
        u = np.random.default_rng(1).standard_normal(sem.n_dof)
        masked_u = np.where(mask, u, 0.0)
        assert _rel_err(as_scaled(K, sub @ u), K @ masked_u) < 1e-12
        assert sub.nnz < K.nnz  # fewer elements touched

    def test_empty_subset(self):
        sem = SemND(_mesh(), order=2)
        K = sem.operator("matfree")
        sub = K.masked_subset(np.zeros(sem.n_dof, dtype=bool))
        assert not (sub @ np.ones(sem.n_dof)).any()

    @pytest.mark.parametrize("bad", [-3, "n_dof"])
    def test_element_dof_out_of_range_rejected(self, bad):
        """A corrupt table is refused at construction on both tiers (an
        apply would gather a clipped entry and scatter through the bad
        index) — below 0 as well as at ``n_dof``."""
        from repro.util.errors import SolverError

        sem = SemND(_mesh(), order=2)
        ed = sem.element_dofs.copy()
        ed[0, 0] = sem.n_dof if bad == "n_dof" else bad
        ids = np.arange(sem.mesh.n_elements)
        minv = inverse_mass(sem)
        for uf in FUSED_PARAMS:
            with pytest.raises(SolverError, match="out of range"):
                MatrixFreeStiffness(sem.operator("matfree").kernel, ed, minv,
                                    use_fused=uf)
            with pytest.raises(SolverError, match="out of range"):
                stiffness_share(sem, minv, ids, ed, use_fused=uf)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_mask_other_than_0_1_refused(self, bad):
        """Masks hold 0 and 1 only, on both tiers: the fused tier reads
        them as ``uint8``, where a 0.5 would become 0."""
        from repro.util.errors import SolverError

        sem = SemND(_mesh(), order=2, dirichlet=True)
        kernel = sem.operator("matfree").kernel
        minv = inverse_mass(sem)
        gm = np.ones(sem.element_dofs.shape)
        gm[1, 2] = bad
        dm = sem.dirichlet_mask.copy()
        dm[np.flatnonzero(dm)[0]] = bad
        for uf in FUSED_PARAMS:
            with pytest.raises(SolverError, match="gmask must hold only 0 and 1"):
                MatrixFreeStiffness(kernel, sem.element_dofs, minv,
                                    use_fused=uf, gmask=gm)
        sem.dirichlet_mask = dm
        for uf in FUSED_PARAMS:
            with pytest.raises(SolverError, match="dirichlet_mask must hold only 0 and 1"):
                stiffness_share(sem, minv, use_fused=uf)

    def test_mask_dtype_does_not_change_the_product(self):
        """A 0/1 mask gives one result whether it comes as float, uint8 or
        bool, on each tier."""
        sem = SemND(_mesh(), order=3)
        kernel = sem.operator("matfree").kernel
        minv = inverse_mass(sem)
        rng = np.random.default_rng(2)
        gm = rng.random(sem.element_dofs.shape) < 0.6
        u = rng.standard_normal(sem.n_dof)
        for uf in FUSED_PARAMS:
            got = [
                MatrixFreeStiffness(kernel, sem.element_dofs, minv,
                                    use_fused=uf, gmask=gm.astype(dt)) @ u
                for dt in (np.float64, np.uint8, bool)
            ]
            assert all(np.array_equal(got[0], g) for g in got[1:])


class TestAssemblerKernel:
    """Each physics assembler builds its own element kernel from its
    per-element arrays, 2D included."""

    def test_acoustic_kernel(self):
        from repro.sem.matfree import AcousticKernelND

        sem = SemND(_mesh(), order=3)
        k = sem.kernel()
        assert isinstance(k, AcousticKernelND)
        assert (k.physics, k.dim) == ("acoustic", 2)
        assert np.array_equal(k.scales, sem.axis_scales)
        ids = np.array([0, 2])
        assert np.array_equal(sem.kernel(ids).scales, sem.axis_scales[ids])
        assert sem.kernel_spec(ids).params.keys() == {"scales"}

    def test_elastic_kernel(self):
        from repro.sem.matfree import ElasticKernelND

        el = ElasticSemND(_mesh((4, 3)), order=3, material=IsotropicElastic(lam=2.0, mu=1.0))
        k = el.kernel()
        assert isinstance(k, ElasticKernelND)
        assert (k.physics, k.dim, k.n_comp) == ("elastic", 2, 2)
        assert np.array_equal(k.lam, el.material.lam)
        assert np.array_equal(k.mu, el.material.mu)
        assert np.array_equal(k.h_axes, el.h_axes)

    def test_1d_matfree_backend(self):
        """The acoustic kernel opens the matrix-free backend to 1D meshes too."""
        from repro.mesh import refined_interval

        mesh = refined_interval(n_coarse=4, n_fine=4, refinement=4)
        for dirichlet in (False, True):
            sem = SemND(mesh, order=4, dirichlet=dirichlet)
            assert sem.kernel().dim == 1
            u = np.random.default_rng(0).standard_normal(sem.n_dof)
            ref = csr.A(sem) @ u
            op = sem.operator("matfree", use_fused=False)
            assert _rel_err(op @ u, ref) < 1e-12

    @pytest.mark.parametrize(
        "physics, shape",
        [
            ("acoustic", (6,)),
            ("acoustic", (3, 2)),
            ("acoustic", (2, 2, 2)),
            ("elastic", (3, 2)),
            ("elastic", (2, 2, 2)),
            ("anisotropic", (3, 2)),
            ("anisotropic", (2, 2, 2)),
        ],
    )
    def test_kernel_of_a_slice_applies_its_element_matrices(self, physics, shape):
        """``kernel(ids)`` is the element stiffness of exactly the
        elements ``ids``: its contraction equals the dense element
        matrices of ``csr.element_system_batch`` on those elements, and
        it is the full kernel's ``subset(ids)``, bitwise."""
        from repro.sem import (
            AnisotropicElasticSemND,
            IsotropicAcoustic,
            isotropic_stiffness,
        )

        mesh = uniform_grid(shape, (1.0, 1.3, 0.8)[: len(shape)])
        ne, dim = mesh.n_elements, mesh.dim
        rng = np.random.default_rng(ne + dim)
        if physics == "acoustic":
            sem = SemND(mesh, order=3, material=IsotropicAcoustic(
                c=rng.uniform(1.0, 3.0, ne), rho=rng.uniform(0.5, 2.0, ne)))
        elif physics == "elastic":
            sem = ElasticSemND(mesh, order=3, material=IsotropicElastic(
                lam=rng.uniform(1.0, 3.0, ne), mu=rng.uniform(0.5, 1.5, ne)))
        else:
            C = np.stack([isotropic_stiffness(la, mu, dim) for la, mu in
                          zip(rng.uniform(1.0, 3.0, ne), rng.uniform(0.5, 1.5, ne))])
            sem = AnisotropicElasticSemND(mesh, order=3, C=C)
        ids = np.array([ne - 1, 0, ne // 2])
        Ke, _ = csr.element_system_batch(sem, ids)
        Ue = rng.standard_normal(Ke.shape[:2])
        got = sem.kernel(ids).contract(Ue.copy())
        ref = np.einsum("eij,ej->ei", Ke, Ue)
        assert _rel_err(got, ref) < 1e-12
        assert np.array_equal(got, sem.kernel().subset(ids).contract(Ue.copy()))


class TestFusedGating:
    def test_forcing_numpy_path_works(self):
        sem = SemND(_mesh(), order=2)
        op = sem.operator("matfree", use_fused=False)
        assert op._plan is None  # numpy path pinned
        assert np.isfinite(op @ np.ones(sem.n_dof)).all()

    @pytest.mark.skipif(not fused.available(), reason="no C compiler")
    def test_fused_plan_built_when_available(self):
        sem = SemND(_mesh(), order=2)
        assert sem.operator("matfree")._plan is not None

    def test_dof_count_beyond_int32_has_no_fused_tier(self, monkeypatch):
        """The fused kernels read ``int32`` DOF tables: a product with
        ``n_dof > MAX_DOF`` runs NumPy (or raises, naming the limit, when
        the fused tier is demanded).  The limit is lowered to this
        product's size, so no vector of 2**31 entries is allocated."""
        from repro.util.errors import SolverError

        assert fused.MAX_DOF == 2**31 - 1
        sem = SemND(_mesh(), order=2)
        kernel, minv, ed = sem.operator("matfree").kernel, inverse_mass(sem), sem.element_dofs
        monkeypatch.setattr(fused, "MAX_DOF", sem.n_dof - 1)
        K = MatrixFreeStiffness(kernel, ed, minv)
        assert K.tier == "numpy" and K.element_dofs.dtype == np.int64
        with pytest.raises(SolverError, match=f"limit {sem.n_dof - 1}"):
            MatrixFreeStiffness(kernel, ed, minv, use_fused=True)
        if fused.available():  # at the limit it still fits
            monkeypatch.setattr(fused, "MAX_DOF", sem.n_dof)
            K = MatrixFreeStiffness(kernel, ed, minv)
            assert K.tier == "fused" and K.element_dofs.dtype == np.int32
            assert np.array_equal(K.element_dofs, ed)

    @staticmethod
    def _fresh_build(monkeypatch, tmp_path, script):
        """Point ``CC`` at a shell ``script`` and forget any earlier load,
        so the next ``fused.load()`` builds from scratch with it."""
        cc = tmp_path / "cc"
        cc.write_text("#!/bin/sh\n" + script)
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_FUSED", raising=False)
        for name, fresh in (("_tried", False), ("_lib", None), ("_failure", None),
                            ("_flag_cache", {})):
            monkeypatch.setattr(fused, name, fresh)

    def test_failed_build_is_reported(self, monkeypatch, tmp_path, capsys):
        """A compiler that exits 1 leaves the NumPy tier, and says why:
        the exception type and the compiler's stderr, in ``repro info``."""
        from repro.__main__ import main

        self._fresh_build(monkeypatch, tmp_path,
                          'echo "fused.c: error: broken compiler" >&2\nexit 1\n')
        assert not fused.available()
        reason = fused.failure_reason()
        assert reason == "CalledProcessError: fused.c: error: broken compiler"
        assert main(["info"]) == 0
        assert f"fused C no ({reason})" in capsys.readouterr().out

    def test_failed_load_is_reported(self, monkeypatch, tmp_path):
        """A build that succeeds but leaves an object ``ctypes`` cannot
        load reports the loader's ``OSError`` message, not just its type."""
        self._fresh_build(
            monkeypatch, tmp_path,
            'while [ $# -gt 0 ]; do\n'
            '  if [ "$1" = -o ]; then echo "not an object" > "$2"; fi\n'
            '  shift\n'
            'done\n',
        )
        assert not fused.available()
        reason = fused.failure_reason()
        assert reason.startswith("OSError: ") and "fused_" in reason, reason

    def test_build_timeout_reason(self):
        exc = subprocess.TimeoutExpired(["cc"], 120, stderr=b"still compiling")
        assert fused._failure_reason(exc) == "TimeoutExpired: still compiling"
        exc = OSError("fused_x.so: failed to map segment from shared object")
        assert (fused._failure_reason(exc)
                == "OSError: fused_x.so: failed to map segment from shared object")

    def test_unknown_backend_rejected(self):
        from repro.util.errors import SolverError

        sem = SemND(_mesh(), order=2)
        with pytest.raises(SolverError):
            sem.operator("turbo")
