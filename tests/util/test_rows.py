"""``unique_rows`` is ``np.unique`` along ``axis=0`` with first indices and inverse."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.util.rows import unique_rows


@st.composite
def int_rows(draw):
    """Random int rows with many duplicates; some rows are padded with -1
    the way hypergraph contraction pads its shorter nets."""
    n = draw(st.integers(0, 300))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hi = draw(st.sampled_from([2, 6, 1000, 2**40]))
    rows = rng.integers(0, hi, size=(n, k), dtype=np.int64)
    if n and draw(st.booleans()):  # repeat existing rows verbatim
        rows = rows[rng.integers(0, n, size=n)]
    if k > 1 and draw(st.booleans()):  # -1 padding after each row's length
        length = rng.integers(1, k + 1, size=n)
        rows[np.arange(k)[None, :] >= length[:, None]] = -1
    return rows


@given(int_rows())
@settings(max_examples=200, deadline=None)
def test_unique_rows_equals_np_unique(rows):
    expected = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    got = unique_rows(rows)
    for e, g in zip(expected, got):
        assert g.dtype == e.dtype
        assert g.shape == e.shape
        assert np.array_equal(g, e)


def test_first_occurrence_and_padding_order():
    rows = np.array([[3, -1], [1, 2], [3, -1], [1, -1], [1, 2]])
    keys, first, inv = unique_rows(rows)
    assert keys.tolist() == [[1, -1], [1, 2], [3, -1]]
    assert first.tolist() == [3, 1, 0]
    assert inv.tolist() == [2, 1, 2, 0, 1]
