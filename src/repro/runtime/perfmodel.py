"""Machine performance model: CPU cores, GPUs, cache, network.

Calibrated against the paper's Piz Daint setup (Sec. IV-C): one 8-core
Intel E5-2670 plus one NVIDIA K20X per node, CPU runs 1 MPI rank/core,
GPU runs 1 rank/GPU.  Three effects carry the figures' shapes:

* **alpha-beta network** — per-message latency plus per-volume cost at
  every substep synchronization;
* **working-set cache model** — per-core element throughput improves as
  the local working set shrinks into L1+L2; this produces the paper's
  super-linear non-LTS CPU scaling (102-123%) and Fig. 12's rising hit
  metric, and gives LTS an extra boost because small fine levels stay
  resident across their p substeps;
* **GPU kernel-launch overhead** — a fixed cost per launched kernel per
  level per substep, negligible for big uniform steps but dominant when
  fine p-levels hold a handful of elements per rank: the paper's LTS-GPU
  strong-scaling limit (45% at 128 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ReproError
from repro.util.validation import require


@dataclass(frozen=True)
class MachineModel:
    """Per-node hardware model (see module docstring for calibration).

    Attributes
    ----------
    ranks_per_node:
        MPI ranks per node (8 on CPU, 1 on GPU).
    elem_step_cost:
        Seconds per element per substep per rank at zero cache benefit.
    alpha, beta:
        Network latency per message and cost per unit halo volume
        (volume counted in shared corner nodes; the constant absorbs the
        GLL-node multiplicity).
    kernel_launch_overhead:
        Seconds per kernel launch (0 for CPU).
    kernels_per_apply:
        Kernels launched per level per substep (stiffness + updates).
    cache_capacity:
        Working-set size (elements) at which half the cache benefit is
        realized.
    cache_max_gain:
        Maximal throughput gain from a fully resident working set
        (time factor approaches ``1 / (1 + gain)``).
    """

    name: str
    ranks_per_node: int
    elem_step_cost: float
    alpha: float
    beta: float
    kernel_launch_overhead: float = 0.0
    kernels_per_apply: int = 3
    cache_capacity: float = 600.0
    cache_max_gain: float = 0.35
    is_gpu: bool = False

    def cache_hit_fraction(self, working_set_elems: float) -> float:
        """Fraction of the maximal cache benefit realized at this size."""
        w = max(float(working_set_elems), 0.0)
        return self.cache_capacity / (self.cache_capacity + w)

    def time_per_element(self, working_set_elems: float) -> float:
        """Per-element substep time including the cache speedup."""
        if self.is_gpu:
            return self.elem_step_cost  # GPUs get no working-set bonus (Fig. 12)
        gain = self.cache_max_gain * self.cache_hit_fraction(working_set_elems)
        return self.elem_step_cost / (1.0 + gain)

    def compute_time(self, n_elems: int, working_set_elems: float | None = None) -> float:
        """Time for one substep over ``n_elems`` elements on one rank."""
        require(n_elems >= 0, "n_elems must be >= 0", ReproError)
        if n_elems == 0:
            return 0.0
        w = n_elems if working_set_elems is None else working_set_elems
        t = n_elems * self.time_per_element(w)
        if self.kernel_launch_overhead > 0.0:
            t += self.kernel_launch_overhead * self.kernels_per_apply
        return t

    def comm_time(self, n_messages: int, volume: float) -> float:
        """alpha-beta cost of one substep's halo exchange."""
        if n_messages <= 0:
            return 0.0
        return self.alpha * n_messages + self.beta * volume


def cache_hit_metric(
    machine: MachineModel,
    elems_per_rank_by_level: np.ndarray,
    steps_by_level: np.ndarray,
    h_min: float = 15.0,
    h_max: float = 130.0,
) -> float:
    """Fig.-12-style D1+D2 hit metric for one rank.

    A work-weighted average of the per-level hit fractions, mapped onto
    the paper's craypat-like scale ``[h_min, h_max]``.  Non-LTS callers
    pass a single level holding all elements; LTS passes the per-level
    populations, whose small fine levels raise the average — the paper's
    explanation for LTS's higher cache utilization.
    """
    elems = np.asarray(elems_per_rank_by_level, dtype=np.float64)
    steps = np.asarray(steps_by_level, dtype=np.float64)
    require(elems.shape == steps.shape, "shape mismatch", ReproError)
    work = elems * steps
    if work.sum() <= 0:
        return h_min
    hits = np.array([machine.cache_hit_fraction(w) for w in elems])
    frac = float((hits * work).sum() / work.sum())
    return h_min + (h_max - h_min) * frac


#: Piz-Daint-like CPU node: 8 ranks/node, ~1 us per element substep per
#: core (order-4 SEM element ~= 125 GLL nodes), gigabit-class alpha-beta.
CPU_NODE = MachineModel(
    name="cpu-xc30",
    ranks_per_node=8,
    elem_step_cost=1.0e-6,
    alpha=2.0e-6,
    beta=4.0e-9,
    kernel_launch_overhead=0.0,
    cache_capacity=600.0,
    cache_max_gain=0.35,
    is_gpu=False,
)

#: K20X-like GPU node: 1 rank/node, ~6.9x the 8-core node throughput
#: (paper Fig. 9: non-LTS GPU vs non-LTS CPU at 16 nodes), 7 us kernel
#: launches, no cache-residency bonus.  6.9 * 8 ~ 55 cores' worth; the
#: CPU's ~5% cache gain at 16-node working sets brings the factor to ~52.
GPU_NODE = MachineModel(
    name="gpu-k20x",
    ranks_per_node=1,
    elem_step_cost=1.0e-6 / 52.0,
    alpha=3.0e-6,
    beta=4.0e-9,
    kernel_launch_overhead=7.0e-6,
    kernels_per_apply=4,
    is_gpu=True,
)


def scaled(machine: MachineModel, factor: float) -> MachineModel:
    """Machine model for a mesh ``factor`` times smaller than paper scale.

    One scaled element stands for ``factor`` real elements, so per-element
    compute cost multiplies by ``factor``; halo surfaces scale with the
    2/3 power of volume, so the per-unit-volume network cost multiplies by
    ``factor**(2/3) / factor**(... )`` — equivalently ``factor**(1/3)``
    once volumes are counted in scaled nodes; cache capacity divides by
    ``factor`` because residency is decided by *real* bytes.  Latency
    ``alpha`` and kernel-launch overhead are genuinely per-event and stay.

    This is the scale mapping the benchmarks use (``benchmarks/common.py``):
    it keeps the compute/communication/overhead ratios of the paper's
    2.5M-26M-element runs while partitioning meshes ~65x smaller.
    """
    require(factor > 0, "factor must be > 0", ReproError)
    from dataclasses import replace

    return replace(
        machine,
        name=f"{machine.name}-x{factor:g}",
        elem_step_cost=machine.elem_step_cost * factor,
        beta=machine.beta * factor ** (1.0 / 3.0),
        cache_capacity=max(machine.cache_capacity / factor, 1.0),
    )
