"""Tests for source-time functions and point sources."""

import numpy as np
import pytest

from repro.sem import point_source, ricker
from repro.mesh import uniform_interval
from repro.sem import SemND
from repro.util.errors import SolverError


class TestRicker:
    def test_peak_at_t0(self):
        s = ricker(f0=2.0, t0=1.0, amplitude=3.0)
        assert s(1.0) == pytest.approx(3.0)

    def test_default_delay_suppresses_startup(self):
        s = ricker(f0=5.0)
        assert abs(s(0.0)) < 1e-2

    def test_zero_mean(self):
        s = ricker(f0=3.0, t0=1.0)
        t = np.linspace(0, 2, 4001)
        vals = np.array([s(x) for x in t])
        assert abs(np.trapezoid(vals, t)) < 1e-6

    def test_rejects_bad_frequency(self):
        with pytest.raises(SolverError):
            ricker(0.0)


class TestPointSource:
    def test_mass_scaling(self):
        sem = SemND(uniform_interval(4), order=3)
        d = 5
        f = point_source(sem.n_dof, d, sem.M, lambda t: 2.0)
        out = f(0.0)
        assert out[d] == pytest.approx(2.0 / sem.M[d])
        assert np.count_nonzero(out) == 1

    def test_rejects_bad_dof(self):
        with pytest.raises(SolverError):
            point_source(4, 9, np.ones(4), lambda t: 1.0)

    def test_time_dependence(self):
        f = point_source(3, 1, np.ones(3), lambda t: t)
        assert f(2.0)[1] == pytest.approx(2.0)
        assert f(0.0)[1] == pytest.approx(0.0)
