"""Row deduplication by one lexicographic sort."""

from __future__ import annotations

import numpy as np


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` of ``rows`` on ``axis=0`` with first indices and inverse,
    by one stable ``np.lexsort`` (column 0 first, signed: ``-1`` padding
    sorts first) and its run boundaries; no packed key, so no overflow."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.logical_or.reduce([col[1:] != col[:-1] for col in srt.T])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return srt[new], order[new], inverse
