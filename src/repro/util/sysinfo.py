"""Runtime environment introspection: what will this box actually run?

The fleet-debugging one-liner behind ``python -m repro info`` and the
service's ``GET /healthz``: which kernel tiers are available here
(fused C kernels compile?  OpenMP honored?), how many cores the
scheduler actually grants (containers routinely pin fewer than
``cpu_count`` reports), and which ``REPRO_*`` environment knobs are
overriding defaults — the three questions every "why is this node
slow / why do results differ by a ULP" investigation starts with.
"""

from __future__ import annotations

import os
import sys


def usable_cores() -> int:
    """Cores the scheduler grants *this* process (affinity-aware).

    ``os.cpu_count()`` reports the machine; a cgroup/affinity-pinned
    container may be allowed far fewer — the number that matters for
    thread-pool sizing and for honest benchmark provenance."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def package_version() -> str:
    """The installed distribution version, falling back to the source
    tree's ``repro.__version__`` for ``PYTHONPATH=src`` checkouts."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-lts-sem")
    except Exception:
        import repro

        return repro.__version__


#: The environment knobs the kernel tiers honor.
ENV_KNOBS = ("REPRO_FUSED",)


def runtime_info() -> dict:
    """One JSON-ready dict describing this process's execution tiers.

    Keys: package/python/numpy/scipy versions, ``fused_available`` /
    ``fused_omp`` (whether the C kernels compiled and whether they
    honor ``n_threads > 1``), ``fused_failure`` (why they did not
    load, else ``None``), ``usable_cores`` vs ``cpu_count``, and
    the set ``REPRO_*`` env overrides.  Calling this triggers the
    (cached) one-time fused-kernel compile probe — that is the point:
    the answer reflects what a run would actually get."""
    import numpy
    import scipy

    from repro.sem import fused

    return {
        "version": package_version(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fused_available": bool(fused.available()),
        "fused_failure": fused.failure_reason(),
        "fused_omp": bool(fused.omp_enabled()),
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "env": {k: os.environ[k] for k in ENV_KNOBS if k in os.environ},
    }
