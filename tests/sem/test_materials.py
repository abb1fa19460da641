"""Tests for the material-model subsystem (repro.sem.materials):
broadcasting, validation, Christoffel wave speeds, and the assemblers'
handling of the ``material=`` they are given."""

import warnings

import numpy as np
import pytest

from repro.mesh import uniform_grid
from repro.sem import ElasticSemND, SemND
from repro.sem.materials import (
    AnisotropicElastic,
    IsotropicAcoustic,
    IsotropicElastic,
    hexagonal_stiffness,
    isotropic_stiffness,
    rotate_voigt,
    rotation_about_y,
    tensor_to_voigt,
    unit_directions,
    voigt_to_tensor,
)
from repro.util.errors import SolverError


class TestBroadcasting:
    def test_scalars_expand_to_element_arrays(self):
        mat = IsotropicElastic(lam=2.0, mu=1.0, rho=1.5).expand(7)
        for a in (mat.lam, mat.mu, mat.rho):
            assert a.shape == (7,)
        assert mat.n_elements == 7
        assert IsotropicElastic().n_elements is None

    def test_per_element_arrays_pass_through(self):
        lam = np.arange(1.0, 6.0)
        mat = IsotropicElastic(lam=lam, mu=1.0).expand(5)
        assert np.array_equal(mat.lam, lam)
        assert mat.lam is not lam  # expanded materials own their arrays

    def test_wrong_length_rejected(self):
        with pytest.raises(SolverError):
            IsotropicElastic(lam=np.ones(4)).expand(5)

    def test_constant_voigt_expands(self):
        mat = AnisotropicElastic(isotropic_stiffness(2.0, 1.0, 3)).expand(6)
        assert mat.C.shape == (6, 6, 6)
        assert mat.rho.shape == (6,)


class TestValidation:
    def test_acoustic_requires_positive_speed_and_density(self):
        with pytest.raises(SolverError):
            IsotropicAcoustic(c=-1.0)
        with pytest.raises(SolverError):
            IsotropicAcoustic(c=1.0, rho=0.0)

    def test_elastic_fluid_limit_mu_zero_allowed(self):
        mat = IsotropicElastic(lam=2.0, mu=0.0)
        assert mat.s_velocity() == 0.0
        assert mat.max_velocity() == pytest.approx(np.sqrt(2.0))

    def test_elastic_rejects_negative_mu_and_bad_moduli(self):
        with pytest.raises(SolverError):
            IsotropicElastic(mu=-1.0)
        with pytest.raises(SolverError):
            IsotropicElastic(lam=-3.0, mu=1.0)  # lam + 2mu <= 0
        with pytest.raises(SolverError):
            IsotropicElastic(rho=0.0)

    def test_anisotropic_rejects_asymmetric_stiffness(self):
        C = isotropic_stiffness(2.0, 1.0, 2)
        C[0, 1] += 0.5
        with pytest.raises(SolverError):
            AnisotropicElastic(C)

    def test_anisotropic_rejects_indefinite_stiffness(self):
        C = isotropic_stiffness(2.0, 1.0, 2)
        C[2, 2] = -1.0
        with pytest.raises(SolverError):
            AnisotropicElastic(C)

    def test_anisotropic_rejects_bad_voigt_shape(self):
        with pytest.raises(SolverError):
            AnisotropicElastic(np.eye(4))


class TestVoigt:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_tensor_roundtrip(self, dim):
        rng = np.random.default_rng(dim)
        nv = 3 if dim == 2 else 6
        A = rng.standard_normal((nv, nv))
        C = A @ A.T + 3 * np.eye(nv)
        c4 = voigt_to_tensor(C, dim)
        # minor and major symmetries of the expanded tensor
        assert np.allclose(c4, c4.transpose(1, 0, 2, 3))
        assert np.allclose(c4, c4.transpose(0, 1, 3, 2))
        assert np.allclose(c4, c4.transpose(2, 3, 0, 1))
        assert np.allclose(tensor_to_voigt(c4, dim), C)

    def test_isotropic_stiffness_tensor_identity(self):
        lam, mu = 2.3, 1.1
        c4 = voigt_to_tensor(isotropic_stiffness(lam, mu, 3), 3)
        d = np.eye(3)
        expect = (
            lam * np.einsum("ij,kl->ijkl", d, d)
            + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
        )
        assert np.allclose(c4, expect)

    def test_rotation_leaves_isotropy_invariant(self):
        C = isotropic_stiffness(2.0, 1.0, 3)
        R = rotation_about_y(0.7)
        assert np.allclose(rotate_voigt(C, R), C)

    def test_rotation_rejects_improper_matrix(self):
        with pytest.raises(SolverError):
            rotate_voigt(isotropic_stiffness(2.0, 1.0, 3), -np.eye(3))


class TestChristoffel:
    def test_isotropic_speeds_are_p_and_s_in_every_direction(self):
        lam, mu, rho = 2.0, 1.0, 1.25
        iso = IsotropicElastic(lam, mu, rho)
        for dim in (2, 3):
            mat = iso.as_anisotropic(dim)
            v = mat.wave_speeds(unit_directions(dim, 40))
            assert np.allclose(v[..., -1], iso.p_velocity())
            assert np.allclose(v[..., 0], iso.s_velocity())
            assert np.allclose(mat.max_velocity(), iso.p_velocity())

    def test_hexagonal_axis_speeds(self):
        """qP along the symmetry axis (z) is sqrt(c33/rho), along the
        basal plane sqrt(c11/rho); qS along z is sqrt(c44/rho)."""
        c11, c33, c13, c44, c66, rho = 20.0, 13.0, 5.0, 4.0, 5.0, 2.0
        mat = AnisotropicElastic(hexagonal_stiffness(c11, c33, c13, c44, c66), rho=rho)
        v = mat.wave_speeds(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert v[0, -1] == pytest.approx(np.sqrt(c33 / rho))
        assert v[0, 0] == pytest.approx(np.sqrt(c44 / rho))
        assert v[1, -1] == pytest.approx(np.sqrt(c11 / rho))

    def test_max_velocity_is_rotation_invariant(self):
        mat = AnisotropicElastic(hexagonal_stiffness(20.0, 13.0, 5.0, 4.0, 5.0))
        tilted = mat.rotate(rotation_about_y(np.deg2rad(37.0)))
        assert tilted.max_velocity() == pytest.approx(mat.max_velocity(), rel=1e-3)

    def test_heterogeneous_max_velocity_per_element(self):
        C = np.stack(
            [isotropic_stiffness(2.0, 1.0, 2), isotropic_stiffness(8.0, 4.0, 2)]
        )
        mat = AnisotropicElastic(C, rho=1.0).expand(2)
        assert np.allclose(mat.max_velocity(), [2.0, 4.0])


class TestAssemblerMaterialPath:
    """What the assemblers do with the ``material=`` they are given."""

    def test_material_path_does_not_warn(self):
        """material= (and the bare default) must stay warning-free."""
        mesh = uniform_grid((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ElasticSemND(mesh, order=2, material=IsotropicElastic(lam=2.0, mu=1.0))
            ElasticSemND(mesh, order=2)
            SemND(mesh, order=2)
            SemND(mesh, order=2, material=IsotropicAcoustic(c=mesh.c, rho=1.3))

    def test_assembler_rejects_wrong_material_type(self):
        mesh = uniform_grid((2, 2))
        with pytest.raises(SolverError):
            SemND(mesh, material=IsotropicElastic())
        with pytest.raises(SolverError):
            ElasticSemND(mesh, material=IsotropicAcoustic(c=1.0))

    def test_fluid_elements_inside_elastic_mesh(self):
        """mu = 0 elements build, have zero S speed, and level
        assignment through the material's max (P) speed works."""
        from repro.core import assign_levels

        mesh = uniform_grid((4, 4))
        mu = np.full(mesh.n_elements, 1.0)
        mu[::3] = 0.0  # fluid stripes
        sem = ElasticSemND(mesh, order=2, material=IsotropicElastic(lam=2.0, mu=mu))
        assert np.all(sem.s_velocity()[::3] == 0.0)
        assert np.all(sem.max_velocity() > 0)
        levels = assign_levels(mesh, assembler=sem)
        assert levels.level.shape == (mesh.n_elements,)
        # the S speed is not a valid level driver on fluid elements
        with pytest.raises(SolverError):
            assign_levels(mesh, velocity=sem.s_velocity())
