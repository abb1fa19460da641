"""Cluster wall-clock simulation of LTS cycles (Figs. 9-13).

Plays the LTS stage schedule (:mod:`repro.core.schedule`) over a
partition on a machine model: at every stage each rank computes its
active levels' work, pays the halo exchange, and cannot start the next
stage before the neighbours it receives from have finished the current
one (neighbour synchronization; a global-barrier mode is also available).
Per-level load imbalance therefore turns directly into stall time —
the mechanism of Fig. 1 — while the cache model and launch overheads
reproduce the CPU/GPU scaling shapes.

Performance is reported the way the paper measures it (Sec. IV-C):
simulated seconds per wall-clock second, normalized by the caller to the
non-LTS CPU reference at the smallest node count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import LevelAssignment
from repro.core.schedule import build_schedule
from repro.mesh.mesh import Mesh
from repro.partition.metrics import per_level_halo_nodes
from repro.runtime.perfmodel import MachineModel
from repro.util.errors import ReproError
from repro.util.validation import require


@dataclass(frozen=True)
class CycleCost:
    """Wall-clock decomposition of one LTS cycle on one configuration."""

    cycle_time: float  # seconds of wall clock per coarse dt
    compute_time: float  # max-rank total compute
    comm_time: float  # max-rank total communication
    stall_time: float  # max-rank total waiting on neighbours
    performance: float  # simulated seconds per wall second


class ClusterSimulator:
    """Simulate LTS and non-LTS execution of a partitioned mesh."""

    def __init__(
        self,
        mesh: Mesh,
        assignment: LevelAssignment,
        parts: np.ndarray,
        n_ranks: int,
        machine: MachineModel,
        sync: str = "neighbor",
    ):
        require(sync in ("neighbor", "barrier"), f"unknown sync {sync!r}", ReproError)
        self.mesh = mesh
        self.assignment = assignment
        self.machine = machine
        self.sync = sync
        self.n_ranks = int(n_ranks)
        parts = np.asarray(parts, dtype=np.int64)
        require(parts.shape == (mesh.n_elements,), "parts shape mismatch", ReproError)
        self.parts = parts

        n_levels = assignment.n_levels
        self.schedule = build_schedule(n_levels)
        # Per-rank, per-level element counts.
        self.elems = np.zeros((self.n_ranks, n_levels), dtype=np.int64)
        np.add.at(self.elems, (parts, assignment.level - 1), 1)
        # Per-rank, per-level halo volumes (per substep of that level).
        self.halo = per_level_halo_nodes(mesh, assignment, parts, self.n_ranks)
        # Neighbour sets (ranks sharing any mesh node).
        inc = mesh.node_incidence()
        nbr: list[set[int]] = [set() for _ in range(self.n_ranks)]
        for n in range(inc.n_nodes):
            es = inc.elems[inc.xadj[n] : inc.xadj[n + 1]]
            rs = np.unique(parts[es])
            if len(rs) > 1:
                for a in rs:
                    for b in rs:
                        if a != b:
                            nbr[a].add(int(b))
        self.neighbors = [sorted(s) for s in nbr]
        # Messages per substep of level lv: neighbours with shared nodes of
        # that level (approximate by all neighbours when halo volume > 0).
        self.msgs = (self.halo > 0).astype(np.int64) * np.array(
            [[max(len(self.neighbors[r]), 1)] * n_levels for r in range(self.n_ranks)]
        )

    # ------------------------------------------------------------------
    def _stage_time(self, r: int, levels: tuple[int, ...]) -> float:
        """Work + comm of one schedule stage on rank ``r``."""
        m = self.machine
        t = 0.0
        for lv in levels:
            ne = int(self.elems[r, lv - 1])
            if ne > 0:
                t += m.compute_time(ne, working_set_elems=ne)
            vol = float(self.halo[r, lv - 1])
            if vol > 0:
                t += m.comm_time(int(self.msgs[r, lv - 1]), vol)
        return t

    def replay(self):
        """Play one LTS cycle stage by stage: yields ``(stage, levels,
        rank, start, ready, work)`` for every rank of every stage, in
        order — ``ready`` the rank's own previous stage end, ``start``
        after waiting on its neighbours (or on every rank, under
        ``sync="barrier"``), ``work`` the stage's compute plus exchange;
        the rank's stage ends at ``start + work``."""
        t_end = np.zeros(self.n_ranks)
        for s, levels in enumerate(self.schedule.stages):
            if self.sync == "barrier":
                start = np.full(self.n_ranks, t_end.max())
            else:
                start = t_end.copy()
                for r in range(self.n_ranks):
                    for nb in self.neighbors[r]:
                        if t_end[nb] > start[r]:
                            start[r] = t_end[nb]
            for r in range(self.n_ranks):
                work = self._stage_time(r, levels)
                yield s, levels, r, float(start[r]), float(t_end[r]), work
                t_end[r] = start[r] + work

    def lts_cycle(self) -> CycleCost:
        """Wall-clock of one LTS cycle under the stage schedule."""
        t_end = np.zeros(self.n_ranks)
        comp = np.zeros(self.n_ranks)
        stall = np.zeros(self.n_ranks)
        for _, _, r, start, ready, work in self.replay():
            stall[r] += start - ready
            comp[r] += work
            t_end[r] = start + work
        cycle = float(t_end.max())
        # Communication share (for reporting): recompute per rank.
        comm = np.zeros(self.n_ranks)
        for levels in self.schedule.stages:
            for r in range(self.n_ranks):
                for lv in levels:
                    vol = float(self.halo[r, lv - 1])
                    if vol > 0:
                        comm[r] += self.machine.comm_time(
                            int(self.msgs[r, lv - 1]), vol
                        )
        worst = int(np.argmax(t_end))
        return CycleCost(
            cycle_time=cycle,
            compute_time=float(comp[worst]),
            comm_time=float(comm[worst]),
            # The critical-path rank never waits; stalls show up on the
            # ranks it keeps waiting, so report the worst sufferer.
            stall_time=float(stall.max()),
            performance=self.assignment.dt / cycle if cycle > 0 else float("inf"),
        )

    def non_lts_cycle(self) -> CycleCost:
        """Wall-clock of ``p_max`` global steps of ``dt_min`` (the non-LTS
        scheme over the same simulated span ``dt``)."""
        m = self.machine
        total_elems = self.elems.sum(axis=1)
        total_halo = self.halo.sum(axis=1)
        step = np.zeros(self.n_ranks)
        for r in range(self.n_ranks):
            t = m.compute_time(int(total_elems[r]), working_set_elems=float(total_elems[r]))
            t += m.comm_time(len(self.neighbors[r]), float(total_halo[r]))
            step[r] = t
        p_max = self.assignment.p_max
        # Uniform steps: under either sync the slowest rank paces every
        # step (neighbour sync converges to the slowest neighbourhood
        # chain; with identical per-step times the max rank dominates).
        cycle = p_max * float(step.max())
        worst = int(np.argmax(step))
        return CycleCost(
            cycle_time=cycle,
            compute_time=p_max * float(step[worst]),
            comm_time=p_max * float(
                m.comm_time(len(self.neighbors[worst]), float(total_halo[worst]))
            ),
            stall_time=0.0,
            performance=self.assignment.dt / cycle if cycle > 0 else float("inf"),
        )


@dataclass(frozen=True)
class ScalingResult:
    """One point of a Fig. 9/10/11/13-style scaling series."""

    n_ranks: int
    n_nodes: int
    lts_performance: float
    non_lts_performance: float

    @property
    def lts_speedup(self) -> float:
        return self.lts_performance / self.non_lts_performance


def simulate_scaling(
    mesh: Mesh,
    assignment: LevelAssignment,
    partition_fn,
    rank_counts: list[int],
    machine: MachineModel,
    seed: int = 0,
) -> list[ScalingResult]:
    """Partition and simulate at each rank count (one scaling curve).

    ``partition_fn(mesh, assignment, k, seed)`` is any registry strategy.
    """
    out = []
    for k in rank_counts:
        parts = partition_fn(mesh, assignment, k, seed=seed)
        sim = ClusterSimulator(mesh, assignment, parts, k, machine)
        out.append(
            ScalingResult(
                n_ranks=k,
                n_nodes=max(1, k // machine.ranks_per_node),
                lts_performance=sim.lts_cycle().performance,
                non_lts_performance=sim.non_lts_cycle().performance,
            )
        )
    return out
