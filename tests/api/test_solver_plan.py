"""The solver plan and the rank layout as cached stages.

A plan (:class:`repro.core.lts_newmark.LTSPlan`, serial or over a rank
layout) is everything a solver derives from operator, levels and
partition; a run only binds it.
These tests pin the contract that makes caching it safe:

* reuse is invisible — jobs sharing one cached plan equal fresh,
  cache-free runs bitwise, whatever moves between them;
* binds are independent — solvers bound from one plan own their scratch,
  so they step concurrently, and a pre-empted apply is not disturbed;
* each plan and layout is built exactly once per sweep;
* a retry re-binds and rebuilds nothing;
* the cache's byte budget sees a plan's arrays.
"""

import sys
import threading

import numpy as np
import pytest
from oracles.algorithm1 import algorithm1

from repro.api import EnsembleSpec, Simulation, SimulationConfig, StageCache, run_ensemble
from repro.core.lts_newmark import LTSNewmarkSolver, LTSPlan
from repro.core.operator import AssembledOperator
from repro.core.workspace import reachable_buffers
from repro.runtime.comm import MailboxWorld
from repro.runtime.executor import DistributedLTSSolver
from repro.sem import fused
from repro.util.errors import SolverError
from oracles import csr

BACKENDS = {
    "numpy": {"stiffness": "matfree", "fused": False},
    "fused": {"stiffness": "matfree", "fused": True},
    # The OpenMP reduction: every product of this grid holds a VL block
    # per thread, so each runs (and records) ``fused+openmp:2``.
    "openmp": {"stiffness": "matfree", "fused": True, "threads": 2},
}
#: The kernel tier a run of each backend records.
RECORDED_TIER = {"numpy": "numpy", "fused": "fused", "openmp": "fused+openmp:2"}
#: Centre of fast element 27 of the 8x8 grid: a DOF no level-1 column
#: reaches, so a source there is the one entry of the level-1 output off
#: that product's row support.
FINE_INTERIOR = [3.5, 3.5]


def make_config(backend="numpy", ranks=1, source=(2.0, 4.0), time=None, **extra):
    if backend != "numpy" and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    return {
        "mesh": {"family": "uniform_grid", "params": {"shape": [8, 8]}},
        "material": {
            "model": "acoustic",
            "regions": [
                {"elements": [27, 28], "values": {"c": 4.0}},
                {"elements": [19, 20, 35, 36], "values": {"c": 2.0}},
            ],
        },
        "order": 3,
        "time": time or {"n_cycles": 6, "c_cfl": 0.35},
        "source": {"position": list(source), "f0": 0.8},
        "receivers": {"positions": [[6.0, 4.0], [3.4, 3.6]]},
        "partition": {"n_ranks": ranks},
        "backend": BACKENDS[backend],
        **extra,
    }


def same_result(a, b) -> bool:
    return all(
        np.array_equal(x, y) for x, y in ((a.u, b.u), (a.v, b.v), (a.traces, b.traces))
    )


# ----------------------------------------------------------------------
# (a) reuse is invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_jobs_through_one_cached_plan_equal_fresh_runs(backend, ranks):
    jobs = [
        make_config(backend, ranks),
        make_config(backend, ranks, source=FINE_INTERIOR),  # off level 1's support
        make_config(backend, ranks, source=(5.0, 2.5)),  # right after: does not
        make_config(backend, ranks, time={"n_cycles": 3, "c_cfl": 0.35}),
        make_config(backend, ranks, time={"t_end": 1.7, "c_cfl": 0.35}),  # moves dt
    ]
    if ranks > 1:  # a FaultyWorld between MailboxWorlds, crashing and recovering
        jobs.insert(2, make_config(backend, ranks, resilience={
            "max_restarts": 1,
            "faults": [{"kind": "crash", "rank": 1, "superstep": 3}],
        }))
    cache = StageCache()
    for job in jobs:
        assert same_result(Simulation(job, cache=cache).run(), Simulation(job).run())
    built = cache.stats.resolutions
    assert built["solver_plan"] == 1
    assert built.get("rank_layout", 0) == (ranks > 1)
    assert built["receiver_dofs"] == 1 and built["force"] == 3


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_source_off_level1_support_equals_the_reference(backend, ranks):
    """Every product overwrites its output, so a source entry off the
    level-1 product's row support enters each cycle once — nothing of it
    lingers into the next — exactly as in the Algorithm 1 oracle."""
    sim = Simulation(make_config(backend, ranks, source=FINE_INTERIOR,
                                 time={"n_cycles": 8, "c_cfl": 0.35}))
    sem, force = sim.assembler, sim.force
    assert not AssembledOperator(csr.A(sem)).reach(sim.dof_level == 1)[force.dof]
    got = sim.run()
    zeros = np.zeros(sem.n_dof)
    u, v = algorithm1(csr.A(sem), sim.dof_level, got.dt, zeros, zeros, got.n_cycles, force=force)
    assert got.n_cycles >= 6 and np.abs(u).max() > 0
    for a, b in ((got.u, u), (got.v, v)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_plan_keys_follow_backend_scheme_and_partition():
    def key(stage, tier=None, **kw):
        cfg = make_config(**kw)
        if tier is not None:  # another backend spec, named without building it
            cfg["backend"] = tier
        return Simulation(SimulationConfig.from_dict(cfg)).stage_key(stage)

    other = {"stiffness": "matfree", "fused": False, "threads": 1}
    assert key("solver_plan") == key("solver_plan", source=(5.0, 2.5))
    assert key("solver_plan") != key("solver_plan", tier=other)
    assert key("solver_plan") != key("solver_plan", ranks=2)
    assert key("solver_plan") != key(
        "solver_plan", time={"n_cycles": 6, "c_cfl": 0.35, "scheme": "newmark"}
    )
    # The layout carries no levels: both schemes share it.
    assert key("rank_layout", ranks=2) == key(
        "rank_layout", ranks=2, time={"n_cycles": 6, "c_cfl": 0.35, "scheme": "newmark"}
    )
    assert key("rank_layout", ranks=2) != key("rank_layout", ranks=2, tier=other)


# ----------------------------------------------------------------------
# (b) binds are independent
# ----------------------------------------------------------------------
def _bound(sim, source):
    """Bind a solver from ``sim``'s plan on zero fields; the returned
    ``run(n_cycles)`` steps it and hands back the flattened state."""
    force = sim.variant(source={"position": list(source), "f0": 0.8}).force
    plan, zeros = sim.solver_plan, np.zeros(sim.assembler.n_dof)
    world = None if sim.parts is None else MailboxWorld(sim.config.partition.n_ranks)
    solver = plan.bind(sim.dt, force=force, world=world)
    us, vs = plan.replicas.scatter(zeros), plan.replicas.scatter(zeros)

    def run(n_cycles):
        for _ in range(n_cycles):
            solver.cycle(us, vs)
        return np.concatenate(us + vs)

    return run


@pytest.mark.parametrize("ranks", [1, 4])
@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_two_threads_stepping_one_plan_equal_their_solo_runs(backend, ranks):
    sim = Simulation(make_config(backend, ranks))
    sources, n_cycles = [(2.0, 4.0), (5.0, 2.5)], 40
    solo = [_bound(sim, s)(n_cycles) for s in sources]
    together: list = [None, None]

    def work(i):
        together[i] = _bound(sim, sources[i])(n_cycles)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for alone, shared in zip(solo, together):
        assert np.isfinite(alone).all() and np.abs(alone).max() > 0
        assert np.array_equal(alone, shared)


def test_one_plan_class_binds_the_solver_its_channels_need():
    """Serial and partitioned configs resolve to one plan class: a plan
    without channels binds the serial solver (and refuses a world), a
    layout's plan the distributed one."""
    serial, ranks = (Simulation(make_config("numpy", r)) for r in (1, 2))
    plan = serial.solver_plan
    assert isinstance(plan, LTSPlan) and len(plan.numberings) == 1 and not plan.exchange
    assert type(plan.bind(serial.dt)) is LTSNewmarkSolver
    with pytest.raises(SolverError, match="world"):
        plan.bind(serial.dt, world=MailboxWorld(1))
    plan = ranks.solver_plan
    assert isinstance(plan, LTSPlan) and len(plan.numberings) == 2 and plan.exchange
    assert type(plan.bind(ranks.dt, world=MailboxWorld(2))) is DistributedLTSSolver


def test_the_serial_solver_refuses_a_plan_over_ranks():
    """A plan with exchange channels binds only through ``LTSPlan.bind``;
    the serial solver refuses it with a pointer there."""
    sim = Simulation(make_config("numpy", 2))
    plan = sim.solver_plan
    assert plan.exchange
    with pytest.raises(SolverError, match=r"LTSPlan\.bind"):
        LTSNewmarkSolver(plan, None, sim.dt)


@pytest.mark.parametrize("share_workspace", [False, True])
def test_a_preempted_apply_survives_only_with_private_scratch(share_workspace):
    """Pre-empt solver A between its gather and its contraction with a
    whole apply of solver B (bound from the same plan).  With forked
    scratch A is undisturbed; the mutation — both on one ``Workspace``
    — makes B's gather land in A's buffer."""
    sim = Simulation(make_config("numpy"))
    plan = sim.solver_plan
    a, b = plan.bind(sim.dt), plan.bind(sim.dt)
    ra, rb = a._states[0].restr0, b._states[0].restr0
    sub_a, sub_b = ra._apply.__self__, rb._apply.__self__
    assert sub_a is not sub_b and sub_a.element_dofs is sub_b.element_dofs
    if share_workspace:
        sub_b._ws = sub_a._ws
    rng = np.random.default_rng(0)
    ua, ub = rng.standard_normal((2, plan.n_dof))
    expected = ra.apply(ua, out=np.zeros(plan.n_dof)).copy()

    contract = sub_a.kernel.contract

    def preempted(Ue, out=None):
        rb.apply(ub, out=np.zeros(plan.n_dof))
        return contract(Ue, out=out)

    sub_a.kernel.contract = preempted
    got = ra.apply(ua, out=np.zeros(plan.n_dof))
    assert np.array_equal(got, expected) != share_workspace


def test_fork_of_an_openmp_operator_owns_its_per_thread_partials():
    if not (fused.available() and fused.omp_enabled()):
        pytest.skip("no OpenMP build of the fused kernels")
    sim = Simulation(make_config("fused"))
    K = sim.assembler.operator("matfree", use_fused=True, threads=2)
    twin = K.fork()
    assert K._plan._zt is not None and twin._plan._zt is not K._plan._zt
    assert twin._plan._ed is K._plan._ed and twin.element_dofs is K.element_dofs
    u = np.random.default_rng(1).standard_normal(K.n_dof)
    assert np.array_equal(K.apply(u), twin.apply(u))


def _dirichlet_assembler(physics, dim):
    from repro.mesh import uniform_grid
    from repro.sem import (AnisotropicElasticSemND, ElasticSemND,
                           IsotropicElastic, SemND, isotropic_stiffness)

    mesh = uniform_grid((3, 2) if dim == 2 else (2, 2, 1), (1.0, 1.3, 0.8)[:dim])
    if physics == "acoustic":
        return SemND(mesh, order=2, dirichlet=True)
    if physics == "elastic":
        return ElasticSemND(
            mesh, order=2, dirichlet=True, material=IsotropicElastic(lam=2.0, mu=1.0))
    C = isotropic_stiffness(np.full(mesh.n_elements, 2.0), 1.0, dim)
    return AnisotropicElasticSemND(mesh, order=2, dirichlet=True, C=C)


@pytest.mark.parametrize("tier", ["numpy", "fused"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("physics", ["acoustic", "elastic", "anisotropic_elastic"])
def test_each_product_holds_its_tables_once_in_the_width_its_tier_reads(physics, dim, tier):
    """A fused product's ``element_dofs`` and ``gmask`` are views of its
    plan's ``int32`` / ``uint8`` tables (no second copy); a NumPy-tier
    product holds ``int64`` / ``float64``, what ``take`` and
    ``csc_matvec`` read without a per-call conversion."""
    if tier == "fused" and not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    K = _dirichlet_assembler(physics, dim).operator(
        "matfree", use_fused=tier == "fused", threads=2)
    cols = np.zeros(K.n_dof, dtype=bool)
    cols[: K.n_dof // 2] = True
    sub = K.masked_subset(cols)
    rows = np.flatnonzero(sub.row_support())
    pos = np.full(K.n_dof, -1)
    pos[rows] = np.arange(len(rows))
    products = [K, sub, sub.renumber(rows, pos), K.fork(), sub.fork()]
    for P in products:
        assert P.gmask is not None and P.tier.startswith(tier)
        if tier == "fused":
            assert P._plan._ed.dtype == np.int32 and P._plan._gmask.dtype == np.uint8
            assert np.shares_memory(P.element_dofs, P._plan._ed)
            assert np.shares_memory(P.gmask, P._plan._gmask)
        else:
            assert P.element_dofs.dtype == np.int64 and P.gmask.dtype == np.float64


# ----------------------------------------------------------------------
# (c) exactly once per sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ranks", [1, 4])
def test_source_sweep_builds_plan_and_layout_once(ranks):
    positions = [[2.0, 4.0], [2.5, 4.0], [3.0, 4.0], [2.0, 3.0], [2.0, 5.0], [3.0, 5.0]]
    spec = EnsembleSpec.from_dict({
        "base": make_config("numpy", ranks),
        "mode": "zip",
        "sweeps": [{"path": "source.position", "values": positions}],
    })
    res = run_ensemble(spec, jobs=3)
    built = res.cache.stats.resolutions
    assert built["solver_plan"] == 1 and built["force"] == 6
    assert built.get("rank_layout", 0) == (ranks > 1)
    solo = Simulation(spec.expand()[0]).run()
    assert same_result(res.members[0], solo)


# ----------------------------------------------------------------------
# Retries re-bind; the byte budget sees plans
# ----------------------------------------------------------------------
def test_retry_after_rank_crash_rebinds_the_resolved_plan():
    cache = StageCache()
    crashing = make_config("numpy", 3, resilience={
        "max_restarts": 1,
        "faults": [{"kind": "crash", "rank": 1, "superstep": 3}],
    })
    result = Simulation(crashing, cache=cache).run()
    assert result.metadata["resilience"]["attempts"] == 2
    assert cache.stats.resolutions["solver_plan"] == 1
    assert cache.stats.resolutions["rank_layout"] == 1
    assert same_result(result, Simulation(make_config("numpy", 3)).run())


def test_build_seconds_cover_the_plan_and_run_seconds_the_bind():
    cache = StageCache()
    cold = Simulation(make_config(), cache=cache).run().metadata
    warm = Simulation(make_config(source=(5.0, 2.5)), cache=cache).run().metadata
    assert cache.stats.resolutions["solver_plan"] == 1
    assert warm["build_seconds"] < cold["build_seconds"]


def test_cache_keeps_the_latest_plan_and_every_upstream_stage():
    """A plan per model, scheme and backend ever seen would make an
    unbounded cache grow by its largest artifact; the plan is also the
    cheapest to rebuild.  So two schemes alternating through one cache
    rebuild the plan per job (the cost before plans were cached) and
    share everything upstream, the layout included."""
    cache = StageCache()
    lts, nm = make_config(ranks=2), make_config(
        ranks=2, time={"n_cycles": 6, "c_cfl": 0.35, "scheme": "newmark"}
    )
    for cfg in (lts, nm, lts):
        assert same_result(Simulation(cfg, cache=cache).run(), Simulation(cfg).run())
    built = cache.stats.resolutions
    assert built["solver_plan"] == 3 and built["rank_layout"] == 1
    assert built["assembler"] == 1 and built["parts"] == 1
    assert sum(k.startswith("solver_plan:") for k in cache._entries) == 1
    assert Simulation(lts, cache=cache).stage_key("solver_plan") in cache


def test_latest_only_stage_lets_go_of_the_old_entry_before_building_the_new():
    """So that a cache alternating between two models never holds (or
    peaks at) two plans; other stages are untouched."""
    cache, during = StageCache(), []
    cache.get_or_create("solver_plan:a", lambda: np.zeros(8), stage="solver_plan")
    cache.get_or_create("mesh:m", lambda: np.zeros(8), stage="mesh")

    def build():
        during.append("solver_plan:a" in cache)
        return np.zeros(8)

    cache.get_or_create("solver_plan:b", build, stage="solver_plan")
    assert during == [False] and cache.stats.evictions == 1
    assert "solver_plan:b" in cache and "mesh:m" in cache and cache.nbytes == 128


@pytest.mark.parametrize("ranks", [1, 2])
def test_each_buffer_is_charged_to_one_entry(ranks):
    """A plan reaches its operator's tables, the assembler's and the
    layout's: the cache charges every buffer once, so its total is the
    distinct bytes it holds and a byte budget does not over-evict."""
    cache = StageCache()
    sim = Simulation(make_config(ranks=ranks), cache=cache)
    plan = sim.solver_plan
    held = sum(reachable_buffers([e[0] for e in cache._entries.values()]).values())
    # (an artifact may grow a lazily computed table after it was stored)
    assert 0.95 * held <= cache.nbytes <= held
    charged = cache._entries[sim.stage_key("solver_plan")][1]
    assert 0 < charged < sum(reachable_buffers(plan).values())
    cache.clear()
    assert cache.nbytes == 0 and not cache._charged


@pytest.mark.parametrize("ranks", [1, 2])
def test_byte_budget_sees_plans_and_evicts_them_lru_first(ranks):
    plans = {k: Simulation(make_config(ranks=ranks)).solver_plan for k in "abc"}
    probe = StageCache()
    probe.get_or_create("solver_plan:a", lambda: plans["a"])
    size = probe.nbytes
    # A plan's arrays sit behind closures and bound methods; its index
    # maps alone outweigh the level vector it was built from.
    assert size > 4 * 8 * int(Simulation(make_config()).assembler.n_dof)

    cache = StageCache(max_bytes=int(2.5 * size))
    for k in "ab":
        cache.get_or_create(f"solver_plan:{k}", lambda: plans[k])
    cache.get_or_create("solver_plan:a", lambda: plans["a"])  # a is now most recent
    cache.get_or_create("solver_plan:c", lambda: plans["c"])
    assert cache.stats.evictions == 1 and "solver_plan:b" not in cache
    assert "solver_plan:a" in cache and "solver_plan:c" in cache
    tiny = StageCache(max_bytes=size // 2)
    tiny.get_or_create("mesh:m", lambda: np.zeros(4))
    tiny.get_or_create("solver_plan:a", lambda: plans["a"])
    assert "solver_plan:a" in tiny and "mesh:m" not in tiny  # the newest survives


# ----------------------------------------------------------------------
# (d) the recorded kernel tier is the one that ran
# ----------------------------------------------------------------------
def _tiny_config(**backend):
    return {
        "mesh": {"family": "uniform_grid", "params": {"shape": [2, 2]}},
        "material": {"model": "acoustic", "c": 1.0},
        "order": 3,
        "time": {"n_cycles": 2},
        "backend": {"stiffness": "matfree", **backend},
    }


def test_recorded_tier_is_serial_below_one_block_per_thread():
    """Four elements are one ``VL`` block: a ``threads=2`` config runs,
    and records, the serial fused tier."""
    if not fused.available():
        pytest.skip("no C compiler: fused tier unavailable")
    sim = Simulation(_tiny_config(fused=True, threads=2))
    assert sim.run().metadata["kernel_tier"] == "fused"
    assert sim.solver_plan.numberings[0].tier == "fused"


def test_recorded_tier_is_numpy_past_the_dof_limit(monkeypatch):
    """A product with more DOFs than the fused tables index runs NumPy
    under ``fused=None``, and the run records that."""
    monkeypatch.setattr(fused, "MAX_DOF", 10)
    sim = Simulation(_tiny_config())
    assert sim.assembler.n_dof > fused.MAX_DOF
    assert sim.run().metadata["kernel_tier"] == "numpy"


@pytest.mark.parametrize("ranks", [1, 3])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_recorded_tier_is_every_numberings_level1_tier(backend, ranks):
    sim = Simulation(make_config(backend, ranks))
    ran = sim.run().metadata["kernel_tier"]
    assert ran == RECORDED_TIER[backend]
    assert all(nb.tier == ran for nb in sim.solver_plan.numberings)
    if ranks > 1:  # numberings that disagree record each tier they ran
        sim.solver_plan.numberings[1].tier = "numpy" if ran != "numpy" else "fused"
        assert sim.kernel_tier() == f"{ran},{sim.solver_plan.numberings[1].tier}"
