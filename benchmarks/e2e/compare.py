"""``compare A.json B.json``: two result files, metric by metric.

For every workload x end-to-end metric: both values (the median of each
side's untraced repeats), the ratio B/A with A as its base, the bound,
and a verdict —

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — a side's own repeats spread wider than the bound, so
  the files cannot tell a regression from noise (reported as such, not
  as "ok");
* ``ok``         — otherwise.

Exits non-zero when anything regressed.  ``failed_frac`` has an absolute
bound of zero: any failed operation on the B side is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics

from .metrics import END_TO_END


def _spread(values: list[float]) -> float:
    """Full range of a side's repeats as a share of their median."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def verdict(a: float, b: float, better: str, bound: float,
            a_repeats: list[float], b_repeats: list[float]) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is the share of A by which B
    is worse (negative when B is better)."""
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if max(_spread(a_repeats), _spread(b_repeats)) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict, b: dict) -> tuple[list[tuple], int]:
    """Rows ``(workload, metric, a, b, ratio, bound, verdict)`` and the
    number of regressions."""
    rows, regressed = [], 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for m in END_TO_END:
            va, vb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            v, _ = verdict(
                va, vb, m.better, m.bound,
                wa.get("repeats", {}).get(m.name, []),
                wb.get("repeats", {}).get(m.name, []),
            )
            regressed += v == "regressed"
            rows.append((name, m.name, va, vb, vb / va, m.bound, v))
        fa = wa["failed"] / max(wa["attempted"], 1)
        fb = wb["failed"] / max(wb["attempted"], 1)
        v = "regressed" if wb["failed"] > 0 else "ok"
        regressed += v == "regressed"
        rows.append((name, "failed_frac", fa, fb, float("nan"), 0.0, v))
    return rows, regressed


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="benchmarks.e2e compare", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("a", help="base result file")
    p.add_argument("b", help="result file compared against the base")
    args = p.parse_args(argv)
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    rows, regressed = compare(a, b)
    print(f"base A = {args.a} (commit {a['provenance'].get('git_commit')}, seed {a['seed']})")
    print(f"     B = {args.b} (commit {b['provenance'].get('git_commit')}, seed {b['seed']})")
    print(f"{'workload':<14} {'metric':<17} {'A':>11} {'B':>11} {'B/A':>7} {'bound':>6}  verdict")
    for name, metric, va, vb, ratio, bound, v in rows:
        print(f"{name:<14} {metric:<17} {va:>11.5g} {vb:>11.5g} {ratio:>7.3f} "
              f"{bound:>6.2f}  {v}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0
