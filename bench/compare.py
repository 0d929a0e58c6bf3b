"""Compare two benchmark result files, workload by workload.

Usage: ``python bench/compare.py A.json B.json`` where both files come
from ``python bench/run.py --json``; A is the parent, B the change.

Every (workload, end-to-end metric) pair gets its own row with both
medians and quartiles and one verdict, judged against the metric's
bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median moved by more than the bound;
* ``within bound`` — it moved by no more than the bound;
* ``unresolved`` — either side's spread (IQR over median) is wider than
  the bound, so the medians cannot tell — unless every run of one side
  beats every run of the other, which settles it anyway.

There is no combined score.  The exit status is 1 when any pair is
worse, unresolved or missing from one file, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from summary import spread

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """The verdict for one metric's summaries ``a`` (parent), ``b`` (change).

    Each summary has ``median``, ``q1``, ``q3`` and the raw ``values``.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        a_best = min(v * sign for v in a["values"])
        b_best = min(v * sign for v in b["values"])
        if max(v * sign for v in b["values"]) < a_best:
            return "better"
        if max(v * sign for v in a["values"]) < b_best:
            return "worse"
        return "unresolved"
    change = sign * (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """``(workload, metric, unit, a_stats, b_stats, verdict)`` rows."""
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        a_metrics = a["workloads"].get(workload, {}).get("metrics", {})
        b_metrics = b["workloads"].get(workload, {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_stats, b_stats = a_metrics.get(name), b_metrics.get(name)
            if a_stats is None or b_stats is None:
                result = "missing"
            else:
                result = verdict(a_stats, b_stats, metric["bound"],
                                 metric["better"])
            rows.append((workload, name, metric["unit"], a_stats, b_stats,
                         result))
    return rows


def _cell(stats: dict | None) -> str:
    if stats is None:
        return f"{'-':>30}"
    return (f"{stats['median']:>10.4f} [{stats['q1']:.4f}, "
            f"{stats['q3']:.4f}]").rjust(30)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':<15}{'metric':<13}{'unit':<5}"
          f"{'A median [q1, q3]':>30}{'B median [q1, q3]':>30}  verdict")
    for workload, name, unit, a_stats, b_stats, result in rows:
        print(f"{workload:<15}{name:<13}{unit:<5}{_cell(a_stats)}"
              f"{_cell(b_stats)}  {result}")
    bad = [row for row in rows if row[-1] not in ("within bound", "better")]
    print(f"{len(rows)} pairs, {len(bad)} worse, unresolved or missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
