"""The provenance block every result file carries."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from time import perf_counter

from .env import ALLOCATOR_PINS, ROOT, THREAD_PINS


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _compiler() -> tuple[str | None, str | None]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            try:
                v = subprocess.run([cand, "--version"], capture_output=True,
                                   text=True, timeout=10).stdout.splitlines()
            except (OSError, subprocess.TimeoutExpired):
                v = []
            return cand, (v[0] if v else None)
    return None, None


def collect(seed: int) -> dict:
    """Machine, toolchain and kernel-tier facts of this process.  Loads
    the fused kernels (compiling them on a fresh checkout), so the
    compile never lands inside a timed region; its cost is recorded."""
    import numpy
    import scipy

    from repro.sem import fused
    from repro.util.sysinfo import ENV_KNOBS, usable_cores

    t0 = perf_counter()
    available = fused.available()
    load_s = perf_counter() - t0
    cc, cc_version = _compiler()
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiler": cc,
        "compiler_version": cc_version,
        "accepted_cflags": list(fused.accepted_cflags(cc)) if cc else [],
        "fused_available": bool(available),
        "openmp": bool(fused.omp_enabled()),
        "fused_load_seconds": load_s,
        "thread_pins": dict(THREAD_PINS),
        "allocator_pins": dict(ALLOCATOR_PINS),
        "repro_env": {k: os.environ[k] for k in ENV_KNOBS if k in os.environ},
    }
