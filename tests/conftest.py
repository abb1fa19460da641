"""Shared fixtures: small meshes, assemblies, and level assignments.

Also puts ``tests/`` on the path, so every test file (a single one run
alone too) imports the oracles as ``from oracles.algorithm1 import
algorithm1``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import assign_levels
from repro.mesh import refined_interval, trench_mesh, uniform_grid

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def small_trench():
    """Small 3D trench mesh with 4 LTS levels (session-cached)."""
    return trench_mesh(nx=12, ny=12, nz=6)


@pytest.fixture(scope="session")
def small_trench_levels(small_trench):
    return assign_levels(small_trench)


@pytest.fixture(scope="session")
def refined_1d():
    """1D mesh with a 4x-refined centre block (the Fig. 1 setting)."""
    return refined_interval(n_coarse=12, n_fine=8, refinement=4, coarse_h=0.125)


@pytest.fixture(scope="session")
def grid2d():
    """Uniform 6x6 quad mesh with a high-velocity inclusion (2 levels+)."""
    mesh = uniform_grid((6, 6))
    mesh.c = mesh.c.copy()
    mesh.c[14:16] = 4.0  # fast block -> locally small stable step
    return mesh


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
