"""Per-rank timeline traces of an LTS cycle (paper Fig. 1).

Fig. 1 shows two naive partitions of a 1D mesh stalling each other at
every fine substep.  :func:`trace_cycle` records the cluster
simulator's stage-by-stage replay (start, work-end, sync-end) per rank,
and :func:`render_timeline` draws the result as a proportional ASCII Gantt
chart — the quickstart's visual proof of why per-level balance matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.simulate import ClusterSimulator
from repro.util.errors import ReproError
from repro.util.validation import require


@dataclass(frozen=True)
class StageEvent:
    rank: int
    stage: int
    levels: tuple[int, ...]
    start: float  # after waiting on neighbours
    ready: float  # own previous stage end (start - ready = stall)
    end: float


@dataclass(frozen=True)
class CycleTrace:
    n_ranks: int
    events: tuple[StageEvent, ...]
    cycle_time: float

    def stall_fraction(self, rank: int) -> float:
        """Fraction of the cycle this rank spends waiting on neighbours."""
        stall = sum(e.start - e.ready for e in self.events if e.rank == rank)
        return stall / self.cycle_time if self.cycle_time > 0 else 0.0


def trace_cycle(sim: ClusterSimulator) -> CycleTrace:
    """Replay one LTS cycle (:meth:`ClusterSimulator.replay`) collecting
    per-rank stage events."""
    events = tuple(
        StageEvent(rank=r, stage=s, levels=levels, start=start, ready=ready,
                   end=start + work)
        for s, levels, r, start, ready, work in sim.replay()
    )
    return CycleTrace(
        n_ranks=sim.n_ranks, events=events, cycle_time=max(e.end for e in events)
    )


def render_timeline(trace: CycleTrace, width: int = 72) -> str:
    """ASCII Gantt chart: '#' working, '.' stalled, one row per rank.

    Mirrors the lower panel of the paper's Fig. 1: with a naive partition
    the row owning fewer fine elements shows long '.' runs at every fine
    substep.
    """
    require(width >= 16, "width must be >= 16", ReproError)
    scale = (width - 8) / trace.cycle_time if trace.cycle_time > 0 else 0.0
    lines = []
    for r in range(trace.n_ranks):
        row = [" "] * (width - 8)
        for e in trace.events:
            if e.rank != r:
                continue
            a = int(e.ready * scale)
            b = int(e.start * scale)
            c = max(int(e.end * scale), b + 1 if e.end > e.start else b)
            for i in range(a, min(b, len(row))):
                row[i] = "."
            for i in range(b, min(c, len(row))):
                row[i] = "#"
        lines.append(f"rank {r:2d} |" + "".join(row))
    lines.append(
        f"        ('#' compute, '.' stall; cycle = {trace.cycle_time:.3e} s)"
    )
    return "\n".join(lines)
