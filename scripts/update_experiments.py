#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the paper-claims registry.

Builds the default-scale study through the benchmarks' artifact cache
(``benchmarks/conftest.py``), computes every claim of
``benchmarks/claims.py`` and writes their rendering.  Leaves the file
alone when a check fails.  Run from the repository root:

    PYTHONPATH=src python scripts/update_experiments.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from claims import CLAIMS, EXPERIMENTS, render  # noqa: E402
from conftest import open_bench_cache  # noqa: E402

from repro import study_for  # noqa: E402


def main() -> int:
    study = study_for("default", cache_dir=open_bench_cache())
    outcomes = {name: run(study) for name, run in CLAIMS.items()}
    failed = [f"{name}: {c.render()}" for name, outcome in outcomes.items()
              for c in outcome.checks if not c.holds]
    if failed:
        sys.stderr.write("\n".join(failed)
                         + f"\nchecks failed; {EXPERIMENTS.name} "
                           "not updated\n")
        return 1
    EXPERIMENTS.write_text(render(outcomes), encoding="utf-8")
    print(f"{EXPERIMENTS.name} updated: {len(outcomes)} claims")
    return 0


if __name__ == "__main__":
    sys.exit(main())
