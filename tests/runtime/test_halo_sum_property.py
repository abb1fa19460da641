"""The halo sum three ways, bitwise: the C passes, the NumPy passes and
the per-channel loop the exchange ran before its payloads shared one
buffer (kept here, :func:`per_channel_sum`, as the oracle).

All three add a receiver's messages in ascending peer order, so they
must agree to the bit on every layout.  Order matters where a DOF is
shared by three or more ranks: a corner where four ranks' quads meet
receives three messages, and ``(a + b) + c`` is not ``a + (b + c)`` in
floating point.  The fields are drawn over sixteen decades so that a
reordered sum shows, and :class:`TestOrderMatters` checks that it does.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import assign_levels
from repro.core.lts_newmark import dof_levels_from_elements
from repro.mesh import uniform_grid
from repro.runtime import DistributedLTSSolver, MailboxWorld
from repro.runtime.executor import _HaloSum
from repro.sem import SemND, fused
from oracles import csr

#: Exchange paths this machine can run: the NumPy passes, and the C
#: passes where the fused build loads.
PATHS = [False, True] if fused.available() else [False]


def per_channel_sum(plan, outputs, comms) -> None:
    """The exchange before one payload buffer: every channel packed into
    its own array and sent as a copy, then received, gathered, added and
    scattered back, receivers and peers ascending."""
    for r in range(plan.n_ranks):
        z = outputs[r]
        for peer, idx in zip(plan.peers[r], plan.indices[r]):
            comms[r].Send(z.take(idx), peer)
    for r in range(plan.n_ranks):
        z = outputs[r]
        for peer, idx in zip(plan.peers[r], plan.indices[r]):
            acc = z.take(idx)
            acc += comms[r].recv(peer)
            z[idx] = acc


def _system(dim: int):
    shape, order = ((4, 3), 3) if dim == 2 else ((3, 2, 2), 2)
    mesh = uniform_grid(shape)
    return SemND(mesh, order=order), assign_levels(mesh, c_cfl=0.4, order=order).dt


def _solver(sem, dt, levels, parts, n_ranks, tier):
    dof_level = dof_levels_from_elements(sem.element_dofs, np.asarray(levels), sem.n_dof)
    layout = csr.tier_layout(sem, np.asarray(parts), n_ranks, tier, dof_level)
    return DistributedLTSSolver(layout, dt, world=MailboxWorld(n_ranks))


def _sums_agree(solver, fields_of) -> None:
    """For every level, each exchange path and the oracle sum the same
    fields (``fields_of(level, outputs)``) to the same bits, each
    sending one message per channel and leaving none pending."""
    world = solver.world
    for k, plan in solver._plans.items():
        outs = solver._outputs[k]
        fields = fields_of(k, outs)
        runs = [_HaloSum(plan, outs, solver.comms, c) for c in PATHS]
        runs.append(lambda: per_channel_sum(plan, outs, solver.comms))
        results = []
        for run in runs:
            for z, f in zip(outs, fields):
                z[...] = f
            sent = world.sent_messages
            run()
            assert world.sent_messages - sent == plan.messages_per_exchange()
            assert world.pending() == 0
            results.append([z.tobytes() for z in outs])
        assert all(r == results[-1] for r in results), f"level {k}"


class TestRandomLayouts:
    """Random element levels times a uniformly random element -> rank
    map on 1-5 ranks (the strategy of
    ``test_distributed_lts_property.py``): on a dozen elements that
    shares corner DOFs among up to four ranks, leaves ranks empty and
    drops channels a level cannot write."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]),
           tier=st.sampled_from(["assembled", "numpy"]))
    def test_paths_and_oracle_agree_bitwise(self, data, dim, tier):
        sem, dt = _system(dim)
        ne = sem.element_dofs.shape[0]
        levels = data.draw(
            st.lists(st.sampled_from([1, 2, 3]), min_size=ne, max_size=ne),
            label="element levels",
        )
        n_ranks = data.draw(st.integers(1, 5), label="ranks")
        parts = data.draw(
            st.lists(st.integers(0, n_ranks - 1), min_size=ne, max_size=ne),
            label="element ranks",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        solver = _solver(sem, dt, levels, parts, n_ranks, tier)

        def fields_of(level, outs):
            return [
                rng.standard_normal(len(z)) * 10.0 ** rng.integers(-8, 8, len(z))
                for z in outs
            ]

        _sums_agree(solver, fields_of)


class TestOrderMatters:
    """A 2 x 2 block partition of a 4 x 4 grid: the centre vertex is
    shared by all four ranks.  Fields that cancel there make a
    reordered sum differ, and every path still agrees with the oracle."""

    @pytest.mark.parametrize("tier", ["assembled", "numpy"])
    def test_four_sharers(self, tier):
        mesh = uniform_grid((4, 4))
        sem = SemND(mesh, order=2)
        dt = assign_levels(mesh, c_cfl=0.4, order=2).dt
        ix, iy = np.divmod(np.arange(16), 4)
        parts = 2 * (ix >= 2) + (iy >= 2)
        solver = _solver(sem, dt, np.ones(16, dtype=np.int64), parts, 4, tier)
        centre = int(np.argmin(np.abs(sem.node_coords - sem.node_coords.mean(axis=0)).sum(axis=1)))
        layout = solver.layout
        local = [int(np.searchsorted(g, centre)) for g in layout.gdofs]
        assert all(layout.gdofs[r][i] == centre for r, i in enumerate(local))
        cancel = [1.0, 1e-16, 1e-16, -1.0]  # rank r's partial sum at the centre

        def fields_of(level, outs):
            fields = [np.ones(len(z)) for z in outs]
            for f, i, c in zip(fields, local, cancel):
                f[i] = c
            return fields

        _sums_agree(solver, fields_of)
        # Rank 0 receives 1e-16, 1e-16, -1 in that order: 1 absorbs both
        # tiny terms first.  Reversed, they survive.
        out0 = solver._outputs[min(solver._plans)][0]
        assert out0[local[0]] == ((1.0 + 1e-16) + 1e-16) - 1.0 == 0.0
        assert ((1.0 - 1.0) + 1e-16) + 1e-16 != 0.0


@pytest.mark.parametrize("compiled", PATHS)
def test_run_equals_per_channel_oracle(compiled):
    """Whole cycles: a solver on one exchange path steps the same bits
    as one whose every level sums through the oracle."""
    sem, dt = _system(2)
    levels = [1, 1, 1, 3, 2, 1, 2, 3, 1, 1, 1, 1]
    parts = [0, 0, 1, 1, 2, 1, 2, 2, 3, 3, 0, 3]
    u0 = np.random.default_rng(3).standard_normal(sem.n_dof)
    fields = []
    for oracle in (False, True):
        solver = _solver(sem, dt, levels, parts, 4, "matfree")
        for k, plan in solver._plans.items():
            if oracle:
                solver._sums[k] = (
                    lambda p=plan, o=solver._outputs[k], c=solver.comms: per_channel_sum(p, o, c)
                )
            else:
                solver._sums[k] = _HaloSum(plan, solver._outputs[k], solver.comms, compiled)
        u, v = solver.run(u0, np.zeros_like(u0), 4)
        fields.append((u.tobytes(), v.tobytes(), solver.world.sent_messages))
    assert fields[0] == fields[1]


@pytest.mark.skipif(not fused.available(), reason="no C compiler: fused tier unavailable")
def test_c_passes_refuse_arrays_they_would_misread():
    """The C passes read index arrays by address: one of another dtype
    is refused at bind time, not misread."""
    sem, dt = _system(2)
    solver = _solver(sem, dt, np.ones(12, dtype=np.int64), [0] * 6 + [1] * 6, 2, "assembled")
    k, plan = next(iter(solver._plans.items()))
    narrow = replace(plan, indices=[[ix.astype(np.int32) for ix in per] for per in plan.indices])
    with pytest.raises(TypeError, match="int64"):
        _HaloSum(narrow, solver._outputs[k], solver.comms, True)
