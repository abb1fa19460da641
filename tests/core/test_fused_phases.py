"""The C phases of the optimized LTS cycle are the NumPy phases, bitwise.

Where a rank state's level-1 product runs the fused C tier, each vector
phase of :class:`repro.core.lts_newmark._RankState` — ``begin``,
``update``, ``reconstruct``, ``finish`` — is one call into
:mod:`repro.sem.fused` (``lts_*``), compiled with floating-point
contraction off so every entry goes through the NumPy phases' IEEE
operations in their order.  The fused products are raw (``K u``): the
first thing ``begin`` and ``update`` do with an apply's output is
multiply it by the numbering's ``Minv``, then they add the forcing.  The
NumPy phases stay the reference: here both run on the same buffers, with
a random ``Minv`` that has zero (Dirichlet) rows, phase by phase and
over whole cycles, and must agree to the bit — and with the formula
itself, so a scale applied twice, or after the forcing, fails on either
side.  The C phases write ``u`` and ``v`` through raw pointers, so the
cycle refuses any other layout than C-contiguous float64 before it
touches anything.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from repro.core import assign_levels
from repro.core.lts_newmark import (
    LTSNewmarkSolver, NumberingPlan, _Depth, _RankState, dof_levels_from_elements,
)
from repro.core.operator import Restriction
from repro.mesh import uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld, build_rank_layout
from repro.sem import SemND, fused, point_source, ricker
from repro.util.errors import SolverError
from oracles import csr

needs_fused = pytest.mark.skipif(
    not fused.available(), reason="no C compiler: fused tier unavailable"
)

DT = 0.37
N = 100
T = 0.8
#: A product that is never applied (the phases alone are under test).
_IDLE = Restriction(np.empty(0, dtype=np.int64), 0, lambda u, out=None: out)

#: name -> (coarsest active set size, n_diff of every depth but the
#: finest): the child's set equal to its parent's, empty, or in between;
#: every depth empty; three depths in a row; and a single level.
CASES = {
    "split": (40, [15]),
    "n_diff_0": (40, [0]),
    "n_diff_full": (40, [40]),
    "all_empty": (0, [0]),
    "three_deep": (60, [20, 0, 25]),
    "one_level": (None, None),
}

#: The forces ``begin`` subtracts after the scale: none, a point source
#: on the prefix (DOF 0: every case's prefix is 40+ long) or on the last
#: DOF (the coarsest active set's tail where there is one), and a dense
#: vector.
SOURCES = ("none", "prefix", "tail", "dense")


def _force(source: str):
    if source == "none":
        return None
    if source == "dense":
        vec = np.random.default_rng(7).standard_normal(N)
        return lambda t: vec * np.cos(t)
    return SimpleNamespace(dof=0 if source == "prefix" else N - 1,
                           value=lambda t: 1.25 * np.cos(t))


def _minv(rng) -> np.ndarray:
    """A random positive row scale with a tenth of its rows 0."""
    minv = rng.uniform(0.5, 2.0, N)
    minv[rng.choice(N, N // 10, replace=False)] = 0.0
    return minv


def _pair(case: str, seed: int = 0, source: str = "none"):
    """A state on the C phases and one on the NumPy phases over the same
    random structure and ``Minv``, every buffer holding the same random
    values."""
    rng = np.random.default_rng(seed)
    na0, n_diffs = CASES[case]
    depths = []
    if na0 is not None:
        off = 0
        for i, nd in enumerate([*n_diffs, 0]):
            depths.append(_Depth(2 + i, _IDLE, na0 - off, nd))
            off += nd
    minv = _minv(rng)
    states = [NumberingPlan(N, 1, _IDLE, depths, tier, minv).bind(DT, _force(source))
              for tier in ("fused", "numpy")]
    for bufs in zip(*map(_buffers, states)):
        values = rng.standard_normal(len(bufs[0]))
        for b in bufs:
            b[:] = values
    return states


def _buffers(st: _RankState) -> list[np.ndarray]:
    """Every buffer the phases touch: each depth's forcing is a view of
    its parent's output (``z1``, or the parent depth's ``r``)."""
    out = [st.z1]
    for d in st.depths:
        out += [d.z, d.u, d.v, d.r]
    return out


def _fields(seed: int = 1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N), rng.standard_normal(N)


def _assert_same(pairs, what):
    for i, (a, b) in enumerate(pairs):
        assert a.tobytes() == b.tobytes(), (what, i)


@needs_fused
class TestPhases:
    """One phase at a time from identical states: whatever the NumPy
    phase leaves for a later phase to read, the C phase leaves too, and
    both scale an apply's output once, before the forcing."""

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_begin(self, case, source):
        c, ref = _pair(case, source=source)
        assert c._c_begin is not None and ref._c_begin is None
        uv = [_fields(), _fields()]
        z1, v0 = c.z1.copy(), uv[0][1].copy()
        for st, (u, v) in zip((c, ref), uv):
            st.begin(u, v, T)
        kept = lambda st: st.depths and [st.depths[0].F, st.depths[0].u]
        _assert_same(zip(uv[0], uv[1]), "u, v")
        _assert_same(zip(kept(c), kept(ref)), "the recursion's forcing and displacement")
        # The formula: F = Minv z1 - f(t), then v -= dt F.
        force, f = _force(source), np.zeros(N)
        if source == "dense":
            f = force(T)
        elif force is not None:
            f[force.dof] = force.value(T)
        F = c.Minv * z1 - f
        n0 = c.n0
        assert uv[0][1][:n0].tobytes() == (v0[:n0] - F[:n0] * DT).tobytes()
        if c.depths:
            assert c.depths[0].F.tobytes() == F[n0:].tobytes()

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("case", sorted(set(CASES) - {"one_level"}))
    def test_update(self, case, first):
        for i in range(len(CASES[case][1]) + 1):
            c, ref = _pair(case, seed=i)
            dc, dr = c.depths[i], ref.depths[i]
            r = c.Minv[N - dc.n:] * dc.z + dc.F  # the formula
            for st in (c, ref):
                st.update(i, first)
            if i + 1 < len(c.depths):  # the forcing handed down, r on the prefix
                kc, kr = c.depths[i + 1], ref.depths[i + 1]
                nd = dc.n_diff
                pairs = [(dc.r[:nd], dr.r[:nd]), (kc.F, kr.F), (kc.u, kr.u), (dc.r, r)]
            else:  # the finest depth's leap-frog step
                pairs = [(dc.u, dr.u), (dc.v, dr.v)]
                if first:
                    pairs.append((dc.v, r * -(0.5 * (DT / 2.0 ** (dc.level - 1)))))
            _assert_same(pairs, (case, i))

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("case", sorted(set(CASES) - {"one_level"}))
    def test_reconstruct(self, case, first):
        for i in range(len(CASES[case][1])):
            c, ref = _pair(case, seed=i)
            for st in (c, ref):
                st.reconstruct(i, first)
            dc, dr = c.depths[i], ref.depths[i]
            _assert_same([(dc.u, dr.u), (dc.v, dr.v)], (case, i))

    @pytest.mark.parametrize("case", sorted(set(CASES) - {"one_level"}))
    def test_finish(self, case):
        c, ref = _pair(case)
        uv = [_fields(), _fields()]
        for st, (u, v) in zip((c, ref), uv):
            st.finish(u, v)
        _assert_same(zip(uv[0], uv[1]), "u, v")

    def test_bind_refuses_buffers_the_loop_would_misread(self):
        z = np.zeros(8)
        fine = (z, np.ones(8), 4, DT, z[4:], 4)
        fused.bind_phase("lts_begin", *fine)
        for pos, bad in [(0, z.astype(np.float32)), (0, np.zeros(16)[::2]),
                         (1, np.ones(16)[::2]), (4, np.arange(4, dtype=np.int32)),
                         (5, np.zeros(4)), (2, np.array(8.0))]:
            args = list(fine)
            args[pos] = bad
            with pytest.raises(TypeError, match=f"lts_begin argument {pos} takes"):
                fused.bind_phase("lts_begin", *args)

    def test_without_a_scale_the_numpy_phases_run(self):
        """A fused numbering whose products carry their scale (no
        ``Minv``) runs the NumPy phases, which then add no multiply."""
        st_ = NumberingPlan(N, 1, _IDLE, [], "fused").bind(DT)
        assert st_._c_begin is None and st_.Minv is None

    @pytest.mark.parametrize("case", ["split", "one_level"])
    def test_states_hold_the_same_buffers(self, case):
        """Depth 0's step reuses ``z1`` as scratch on the NumPy phases, so
        they hold no more than the C phases."""
        c, ref = _pair(case)
        assert c.nbytes() == ref.nbytes()


class _NumpyPhases:
    """An operator (or rank-local stiffness) forwarding everything to
    the wrapped one but its tier: the solver then runs the same fused
    products with the NumPy phases."""

    tier = "numpy"

    def __init__(self, op):
        self._op = op

    def __getattr__(self, name):
        return getattr(self._op, name)


def _system(dim: int):
    shape, order = ((4, 3), 3) if dim == 2 else ((3, 2, 2), 2)
    mesh = uniform_grid(shape)
    return SemND(mesh, order=order), assign_levels(mesh, c_cfl=0.4, order=order).dt


N_CYCLES = 5


@needs_fused
class TestCycles:
    """Whole cycles, serial and on 1-4 ranks, over random level
    assignments and sources: the C phases and the NumPy phases give the
    same ``u`` and ``v``, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]),
           source=st.sampled_from(["none", "point", "dense"]))
    def test_c_phases_match_numpy_phases(self, data, dim, source):
        sem, dt = _system(dim)
        ne = sem.element_dofs.shape[0]
        fine = data.draw(st.sets(st.sampled_from([2, 3, 4])), label="fine levels")
        levels = np.array(data.draw(
            st.lists(st.sampled_from([1, *sorted(fine)]), min_size=ne, max_size=ne),
            label="element levels",
        ))
        levels[data.draw(st.integers(0, ne - 1), label="coarse element")] = 1
        n_ranks = data.draw(st.integers(1, 4), label="ranks")
        parts = np.array(data.draw(
            st.lists(st.integers(0, n_ranks - 1), min_size=ne, max_size=ne),
            label="element ranks",
        ))
        force = None
        if source != "none":
            dof = data.draw(st.integers(0, sem.n_dof - 1), label="source dof")
            point = point_source(sem.n_dof, dof, sem.M, ricker(f0=0.5, t0=2 * dt))
            force = point if source == "point" else (lambda t: point(t))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="field seed"))
        u0, v0 = rng.standard_normal(sem.n_dof), rng.standard_normal(sem.n_dof)
        dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)

        op = sem.operator("matfree", use_fused=True)
        serial = [LTSNewmarkSolver(A, dof_level, dt, force=force) for A in (op, _NumpyPhases(op))]
        layout = build_rank_layout(sem, parts, n_ranks, dof_level=dof_level,
                                   backend="matfree", use_fused=True)
        ranks = [
            DistributedLTSSolver(lay, dt, world=MailboxWorld(n_ranks), force=force)
            for lay in (layout, replace(layout, K_local=[_NumpyPhases(K) for K in layout.K_local]))
        ]
        # The NumPy tier, whose products carry their scale: the run both
        # phase kinds must reproduce, up to summation order.
        ref = LTSNewmarkSolver(sem.operator("matfree", use_fused=False), dof_level, dt,
                               force=force).run(u0, v0, N_CYCLES)
        for pair in (serial, ranks):
            # A rank that owns no element has no fused product: NumPy phases.
            assert any(s._c_begin is not None for s in pair[0]._states)
            assert all(s._c_begin is None for s in pair[1]._states)
            (uc, vc), (un, vn) = (s.run(u0, v0, N_CYCLES) for s in pair)
            assert uc.tobytes() == un.tobytes() and vc.tobytes() == vn.tobytes()
            for got, want in zip((uc, vc), ref):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _serial_and_distributed(tier: str):
    mesh = uniform_grid((4, 3))
    sem = SemND(mesh, order=3)
    a = assign_levels(mesh, c_cfl=0.4, order=3)
    levels = np.array([1, 1, 1, 3, 4, 1, 2, 4, 1, 1, 1, 1])
    dof_level = dof_levels_from_elements(sem.element_dofs, levels, sem.n_dof)
    op = csr.tier_operator(sem, tier)
    layout = csr.tier_layout(sem, np.arange(12) % 2, 2, tier, dof_level)
    return sem, LTSNewmarkSolver(op, dof_level, a.dt), DistributedLTSSolver(layout, a.dt), layout


def _bad_fields(n: int, kind: str) -> np.ndarray:
    x = np.random.default_rng(2).standard_normal(2 * n)
    return x[::2] if kind == "strided" else x[:n].astype(np.float32)


@pytest.mark.parametrize("kind", ["strided", "float32"])
@pytest.mark.parametrize("tier", [
    "assembled", "numpy", pytest.param("fused", marks=needs_fused),
])
def test_cycle_refuses_fields_it_cannot_write_in_place(tier, kind):
    """Strided views and float32 vectors are refused before any write,
    on every tier (the same inputs are accepted whichever tier runs)."""
    sem, serial, dist, layout = _serial_and_distributed(tier)
    u, v = _bad_fields(sem.n_dof, kind), _bad_fields(sem.n_dof, kind)
    before = u.copy(), v.copy()
    with pytest.raises(SolverError, match="C-contiguous float64"):
        serial.step(u, v)
    assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])
    assert serial.n_cycles_taken == 0

    us = [_bad_fields(len(g), kind) for g in layout.gdofs]
    vs = dist.plan.replicas.scatter(np.ones(sem.n_dof))
    before = [x.copy() for x in us], [x.copy() for x in vs]
    with pytest.raises(SolverError, match="C-contiguous float64"):
        dist.step(us, vs)
    assert all(np.array_equal(x, y) for x, y in zip(us + vs, before[0] + before[1]))
    assert dist.n_cycles_taken == 0
