"""Row deduplication by one lexicographic sort."""

from __future__ import annotations

import numpy as np


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` of ``rows`` on ``axis=0`` with first indices and inverse,
    by one stable sort (``np.argsort`` of a single column, else
    ``np.lexsort``, column 0 first; signed: ``-1`` padding sorts first) and
    its run boundaries; no packed key, so no overflow."""
    cols = rows.T
    order = np.argsort(cols[0], kind="stable") if len(cols) == 1 else np.lexsort(cols[::-1])
    new = np.zeros(len(rows), dtype=bool)  # a sorted row unlike its predecessor
    for col in cols:
        srt = col[order]
        new[1:] |= srt[1:] != srt[:-1]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new, dtype=np.intp)
    new[:1] = True
    first = order[new]
    return rows.take(first, axis=0), first, inverse
