"""Threaded kernel tier: the OpenMP fused kernels agree with their
serial counterparts, and ``threads`` means nothing else.

The OpenMP path changes only summation order (per-thread partial
scatters reduced in a fixed order), so results are documented to match
serial within 1e-12 *relative* — in practice they agree to the last few
bits, and for a fixed thread count repeated applies are deterministic.
The NumPy tier is serial whatever ``threads`` says, and a built
operator reports the tier it runs.
"""

import numpy as np
import pytest

from repro.mesh import uniform_grid, uniform_interval
from repro.sem import ElasticSemND, SemND, fused
from repro.sem.anisotropic import AnisotropicElasticSemND
from repro.sem.matfree import resolve_threads
from repro.util.errors import SolverError

TOL = 1e-12

OMP = fused.available() and fused.omp_enabled()


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


def _spd_voigt(n_elements: int, nv: int) -> np.ndarray:
    A = np.random.default_rng(0).standard_normal((n_elements, nv, nv))
    return A @ A.transpose(0, 2, 1) + nv * np.eye(nv)


def _assemblers():
    mesh2 = uniform_grid((5, 4), (1.0, 1.3))
    mesh3 = uniform_grid((3, 3, 2))
    return [
        ("acoustic2", SemND(mesh2, order=4, dirichlet=True)),
        ("acoustic3", SemND(mesh3, order=3)),
        ("elastic2", ElasticSemND(mesh2, order=3)),
        ("elastic3", ElasticSemND(mesh3, order=2, dirichlet=True)),
        ("aniso3", AnisotropicElasticSemND(mesh3, order=2, C=_spd_voigt(mesh3.n_elements, 6))),
    ]


class TestResolveThreads:
    def test_none_is_serial(self):
        assert resolve_threads(None) == 1

    def test_explicit_count(self):
        assert resolve_threads(3) == 3

    def test_zero_auto_detects(self):
        n = resolve_threads(0)
        assert n >= 1

    def test_negative_rejected(self):
        with pytest.raises(SolverError, match="threads must be >= 0"):
            resolve_threads(-2)


class TestNumpyTierIgnoresThreads:
    """The NumPy tier has no thread pool: ``threads`` is the fused tier's
    OpenMP count and nothing else, so a NumPy-tier operator asked for N
    threads is the serial operator, bit for bit."""

    @pytest.mark.parametrize("name,sem", _assemblers())
    def test_full_apply_matches_serial(self, name, sem):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(sem.n_dof)
        serial = sem.operator("matfree", use_fused=False)
        op = sem.operator("matfree", use_fused=False, threads=2)
        assert op.tier == serial.tier == "numpy"
        assert np.array_equal(op @ u, serial @ u), name

    @pytest.mark.parametrize("name,sem", _assemblers()[:2])
    def test_restricted_apply_matches_serial(self, name, sem):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=max(1, sem.n_dof // 3), replace=False)
        ref = sem.operator("matfree", use_fused=False).restrict(cols).apply(u)
        op = sem.operator("matfree", use_fused=False, threads=2)
        assert np.array_equal(op.restrict(cols).apply(u), ref), name

    def test_deterministic_across_applies(self):
        sem = SemND(uniform_grid((5, 4)), order=3)
        op = sem.operator("matfree", use_fused=False, threads=2)
        u = np.random.default_rng(3).standard_normal(sem.n_dof)
        z = op @ u
        for _ in range(3):
            assert np.array_equal(op @ u, z)

    def test_tiny_workload_runs_serial(self):
        sem = SemND(uniform_grid((1, 1)), order=2)
        op = sem.operator("matfree", use_fused=False, threads=8)
        assert op.tier == "numpy"


@pytest.mark.skipif(not OMP, reason="fused kernels without OpenMP")
class TestOpenMPFusedTier:
    @pytest.mark.parametrize("name,sem", _assemblers())
    @pytest.mark.parametrize("threads", [2, 3])
    def test_full_apply_matches_serial_fused_and_numpy(self, name, sem, threads):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(sem.n_dof)
        ref_np = sem.operator("matfree", use_fused=False) @ u
        ref_fused = sem.operator("matfree", use_fused=True) @ u
        op = sem.operator("matfree", use_fused=True, threads=threads)
        assert op.tier == f"fused+openmp:{threads}"
        z = op @ u
        assert _rel_err(z, ref_fused) < TOL, name
        assert _rel_err(z, ref_np) < TOL, name

    @pytest.mark.parametrize("name,sem", _assemblers())
    def test_restricted_apply_matches_serial(self, name, sem):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(sem.n_dof)
        cols = rng.choice(sem.n_dof, size=max(1, sem.n_dof // 3), replace=False)
        ref = sem.operator("matfree", use_fused=True).restrict(cols).apply(u)
        op = sem.operator("matfree", use_fused=True, threads=2)
        assert _rel_err(op.restrict(cols).apply(u), ref) < TOL, name

    def test_deterministic_across_applies(self):
        sem = SemND(uniform_grid((3, 2, 2)), order=3)
        op = sem.operator("matfree", threads=2)
        u = np.random.default_rng(6).standard_normal(sem.n_dof)
        z = op @ u
        for _ in range(3):
            assert np.array_equal(op @ u, z)

    def test_tiny_workload_runs_serial(self):
        # fewer padded blocks than threads -> the plan drops to serial
        sem = SemND(uniform_grid((2, 2)), order=2)  # 4 elements -> 1 block
        op = sem.operator("matfree", threads=4)
        assert op.tier == "fused"


class TestSimulationParity:
    """End-to-end: a threads=2 config reproduces the serial trace."""

    def _cfg(self, **backend):
        from repro.api import SimulationConfig

        return SimulationConfig.from_dict(
            {
                "mesh": {"family": "uniform_grid", "params": {"shape": [6, 5]}},
                "material": {"model": "acoustic", "c": 1.0, "rho": 1.0},
                "order": 3,
                "time": {"t_end": 0.05},
                "backend": backend,
            }
        )

    @pytest.mark.skipif(not OMP, reason="fused kernels without OpenMP")
    def test_openmp_fused_matches_serial(self):
        from repro.api import Simulation

        ref = Simulation(self._cfg(stiffness="matfree")).run()
        sim = Simulation(self._cfg(stiffness="matfree", threads=2))
        res = sim.run()
        assert res.metadata["kernel_tier"] == "fused+openmp:2"
        assert _rel_err(res.u, ref.u) < TOL


class TestTierReporting:
    def test_built_operator_reports_its_tier(self):
        """``tier`` names what a built operator runs on every physics x
        dimension x ``use_fused`` x ``threads``: NumPy when pinned or
        without a compiler, else fused, with OpenMP when asked for and
        built (every mesh here has more than two ``VL`` blocks)."""
        mesh2 = uniform_grid((5, 4), (1.0, 1.3))
        mesh3 = uniform_grid((3, 3, 2))
        sems = [
            SemND(mesh2, order=3),
            SemND(mesh3, order=3),
            ElasticSemND(mesh2, order=3),
            ElasticSemND(mesh3, order=2),
            AnisotropicElasticSemND(mesh2, order=3, C=_spd_voigt(mesh2.n_elements, 3)),
            AnisotropicElasticSemND(mesh3, order=2, C=_spd_voigt(mesh3.n_elements, 6)),
        ]
        fused_settings = [False, None] + ([True] if fused.available() else [])
        for sem in sems:
            for uf in fused_settings:
                for th in (None, 2):
                    op = sem.operator("matfree", use_fused=uf, threads=th)
                    if uf is False or not fused.available():
                        want = "numpy"
                    else:
                        want = "fused+openmp:2" if th == 2 and OMP else "fused"
                    assert op.tier == want, (type(sem).__name__, sem.dim, uf, th)

    def test_unfused_physics(self):
        # 1D has no fused tier regardless of availability.
        sem = SemND(uniform_interval(6), order=3)
        assert sem.operator("matfree", threads=2).tier == "numpy"
