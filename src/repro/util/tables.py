"""Plain-text table rendering for benchmark reports.

The benchmark harness reproduces the paper's tables (Figs 5, 7, 8) and the
series behind its scaling figures (Figs 9-13); each bench prints its rows
through :class:`Table`, and records the same rows in
``benchmarks/results/<name>.json`` so runs can be diffed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_si(value: float, digits: int = 2) -> str:
    """Format ``value`` with an SI-style mantissa/exponent, like ``1.4e+06``.

    Matches the paper's presentation of graph-cut and MPI-volume magnitudes.
    """
    if value == 0:
        return "0"
    return f"{value:.{digits}e}"


class Table:
    """Minimal column-aligned text table.

    >>> t = Table(["mesh", "# elements"])
    >>> t.add_row(["Trench", 2_500_000])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[object]) -> None:
        cells = [str(c) for c in row]
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render() + "\n")
