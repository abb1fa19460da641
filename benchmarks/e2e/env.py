"""Where the benchmark reads and writes, and the thread pins.

Everything the benchmark leaves behind stays inside the checkout:
scratch (fused-kernel build cache, temp files, service data dirs) under
``.bench_build/e2e/`` at the repo root, result / config / span files
under ``results/`` next to this file.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "e2e"
RESULTS = Path(__file__).resolve().parent / "results"

#: One thread per BLAS / OpenMP runtime: the workloads say ``threads: 1``
#: and the second core belongs to the other service worker or client.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: glibc malloc, pinned to serve every array from a heap it never trims.
#: By default the mmap threshold adapts to the sizes a process happens
#: to free, so whether the solvers' megabyte temporaries are page-faulted
#: in afresh on every allocation depends on the allocation history:
#: ``trench_ranks4`` ran its LTS cycle at 33 ms or 48 ms (480k or 725k
#: minor faults in 4 s) depending on the seed and on what was measured
#: before.  Pinned, it is 37-39 ms (52k faults) every time.
ALLOCATOR_PINS = {
    "MALLOC_MMAP_THRESHOLD_": 32 << 20,  # glibc's maximum
    "MALLOC_TRIM_THRESHOLD_": 1 << 30,
    "MALLOC_TOP_PAD_": 64 << 20,
}
_MALLOPT = {"MALLOC_TRIM_THRESHOLD_": -1, "MALLOC_TOP_PAD_": -2, "MALLOC_MMAP_THRESHOLD_": -3}


def _pin_allocator() -> None:
    """``mallopt`` for this process, the environment for its children
    (the service subprocess).  Not glibc: nothing to pin."""
    os.environ.update({k: str(v) for k, v in ALLOCATOR_PINS.items()})
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for name, value in ALLOCATOR_PINS.items():
        mallopt(_MALLOPT[name], value)


def prepare() -> None:
    """Pin threads and the allocator, and redirect caches and temp files
    into the checkout.  Must run before numpy or repro is imported."""
    os.environ.update(THREAD_PINS)
    _pin_allocator()
    for name, sub in (("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        path = WORK / sub
        path.mkdir(parents=True, exist_ok=True)
        os.environ[name] = str(path)
    RESULTS.mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
