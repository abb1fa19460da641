"""Estimators for timings taken on a shared, bursty machine.

The sandbox runs in two speed states a few seconds long (one LTS cycle
of ``trench_fused`` takes about 17 ms in the fast state and 20 ms in
the slow one) with short additive spikes on top.  Over 28 ten-second
runs of one commit the quartile spread, as a share of the median, was

====================================  ==========
estimator                             spread
====================================  ==========
best block mean                       7-14 %
minimum single cycle                  4-12 %
median of all cycles                  4-10 %
**median of block minima**            **2-4 %**
====================================  ==========

The fastest sample of a block discards the spikes (interference only
ever slows a deterministic kernel); the median over blocks then picks
the speed state the machine was in for most of the run instead of
whichever state the single luckiest block saw.  That estimator is the
gated value; best block mean, plain median and the highest percentile
with at least ten samples beyond it are reported beside it.
"""

from __future__ import annotations

import statistics


def block_minima(samples: list[float], block: int) -> list[float]:
    """The fastest sample of each consecutive ``block``-sized group (a
    trailing partial group is dropped; fewer samples than one block are
    one group)."""
    n = len(samples) // block * block
    if n == 0:
        return [min(samples)]
    return [min(samples[i : i + block]) for i in range(0, n, block)]


def block_minima_median(samples: list[float], block: int,
                        scale: list[float] | None = None) -> float:
    """Median over blocks of each block's fastest sample, each first
    multiplied by its block's ``scale`` (the machine-state correction of
    :mod:`.calibration`) when one is given."""
    minima = block_minima(samples, block)
    if scale is not None:
        minima = [m * f for m, f in zip(minima, scale)]
    return statistics.median(minima)


def paired_ratio(num: list[float], num_block: int,
                 den: list[float], den_block: int) -> float:
    """Median over block pairs of (fastest ``num`` sample of the block)
    / (fastest ``den`` sample of the block run next to it).  The two
    kinds of block alternate, so each pair saw one machine state and the
    state cancels."""
    return statistics.median(
        n / d
        for n, d in zip(block_minima(num, num_block), block_minima(den, den_block))
    )


def best_block_mean(samples: list[float], block: int) -> float:
    n = len(samples) // block * block
    if n == 0:
        return statistics.fmean(samples)
    return min(
        statistics.fmean(samples[i : i + block]) for i in range(0, n, block)
    )


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    s = sorted(samples)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def highest_supported_quantile(n: int) -> float | None:
    """The highest quantile that still has at least ten samples beyond
    it, or ``None`` below twenty samples."""
    if n < 20:
        return None
    return 1.0 - 10.0 / n


def summarize(samples: list[float], block: int,
              scale: list[float] | None = None) -> dict:
    """Everything printed beside a gated timing."""
    out = {
        "n": len(samples),
        "block": block,
        "gated": block_minima_median(samples, block, scale),
        "best_block_mean": best_block_mean(samples, block),
        "median": statistics.median(samples),
        "min": min(samples),
    }
    if scale is not None:
        out["gated_uncorrected"] = block_minima_median(samples, block)
    q = highest_supported_quantile(len(samples))
    if q is not None:
        out["tail_quantile"] = q
        out["tail"] = percentile(samples, q)
    return out
