"""Operation and oracle accounting for the contract's result line."""

from __future__ import annotations


class Checks:
    """Counts operations attempted and failed.

    An *operation* is a stepped cycle, a run, a job or an oracle
    comparison; ``failed / attempted`` is the ISSUE's ``failed_frac``.
    A failed oracle also fails the exit code, so a wrong answer or a
    silent fall to another kernel tier cannot flatter a timing.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def done(self, n: int = 1) -> None:
        """``n`` operations that cannot fail short of raising."""
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)
