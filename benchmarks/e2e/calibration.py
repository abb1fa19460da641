"""Machine-state probe: how fast is the box right now?

The sandbox is two vCPUs of a shared host, and the host's mood shows:
a fixed piece of NumPy work (this probe) takes anywhere between 5.6 and
11.6 ms within one minute, and stays at one speed for seconds at a
time.  Everything else slows and speeds with it — over a minute of
interleaved samples the probe and one ``trench_fused`` LTS cycle
correlate at 0.95 (6-second window means), and the window medians of
the cycle time swing by 31 % raw but by 4.7 % once each sample is
divided by the probe reading taken next to it.

So every *gated* timing is taken with a probe reading beside it and
reported at reference speed:

    reported = measured x REFERENCE_MS / probe_ms

``REFERENCE_MS`` is what the probe reads in this sandbox's fast state,
so a reported time is the wall time the operation takes when the host
is quiet; the raw readings and the probe's own median are kept in the
result file.  The probe is plain NumPy on private arrays (a small
matrix product, a streaming add, a random gather): nothing of ``repro``
is in it, so no change to the repo can move it.  Per-layer metrics are
not corrected — they are read against the cycle time of their own
traced pass — and ``peak_rss_mb`` is not a time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The probe's reading in the sandbox's fast state (10th percentile of
#: 60 s of back-to-back samples on the 2.1 GHz Xeon the baselines were
#: recorded on).
REFERENCE_MS = 5.9


class Probe:
    """A few milliseconds of fixed NumPy work, timed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((192, 192))
        self._c = np.empty_like(self._a)
        self._x = np.zeros(1 << 19)
        self._y = np.ones(1 << 19)
        self._index = rng.integers(0, 1 << 19, 1 << 17)
        self._g = np.empty(1 << 17)
        self.readings: list[float] = []
        self.sample()

    def _work(self) -> None:
        for _ in range(6):
            np.matmul(self._a, self._a, out=self._c)
        for _ in range(4):
            np.add(self._x, self._y, out=self._x)
        for _ in range(6):
            self._x.take(self._index, out=self._g)
        self._x[:] = 0.0

    def sample(self) -> float:
        """The fastest of three runs of the probe, in ms."""
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            self._work()
            best = min(best, perf_counter() - t0)
        self.readings.append(best * 1e3)
        return best * 1e3


def at_reference_speed(measured: float, probe_ms: list[float]) -> float:
    """``measured`` scaled to reference speed by the median of the probe
    readings taken around it."""
    return measured * REFERENCE_MS / statistics.median(probe_ms)
