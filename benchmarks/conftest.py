"""Shared state for the figure/table benchmarks.

Each benchmark module regenerates one table or figure of the paper from
the shared full-scale study, prints the measured values next to the
paper's, and times the analysis step with pytest-benchmark.  Expensive
inputs (platforms, traces, campaigns) are session-scoped so the suite
builds them once — and persist across *invocations* through the
artifact cache: the ``study`` fixture reads/writes the cache rooted at
``$REPRO_BENCH_CACHE_DIR`` (set it to the empty string to force cold
rebuilds).  Unset, the root is the benchmarks' own ``benchmarks/``
subdirectory of the library cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``).  Every source edit changes the code version and
so every key, so each session first removes the entries there that
another code version wrote; an explicit root is never pruned, and
neither is the library cache itself.

The six ablation modules no longer compute anything locally: a single
session-scoped sweep (``sweeps/ablations.toml``) regenerates the whole
ablation campaign through ``repro.sweep``, sharing the same artifact
cache, and each module renders its cell's stored result.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro import cache, study_for
from repro.sweep import load_sweep_spec, run_sweep
from repro.sweep.runner import CELLS_DIR, RESULT_NAME

#: Environment override for the benchmarks' artifact-cache root.
#: Unset -> ``CACHE_SUBDIR`` of the library cache root, pruned to the
#: current code version; empty string -> caching disabled.
CACHE_ENV = "REPRO_BENCH_CACHE_DIR"

#: The benchmarks' own subdirectory of the library cache root.
CACHE_SUBDIR = "benchmarks"

#: Sweep configs shipped with the benchmarks.
SWEEPS_DIR = Path(__file__).parent / "sweeps"


def bench_cache_dir() -> str | None:
    """The artifact-cache root benchmarks share (None = disabled)."""
    root = os.environ.get(CACHE_ENV)
    if root is not None:
        return root or None
    return str(cache.default_cache_dir() / CACHE_SUBDIR)


def prune_other_versions(root: Path) -> int:
    """Remove the entries under ``root`` that another code version wrote.

    An entry whose ``meta.json`` does not parse goes too: a warm load
    would evict it anyway.  Returns the number of entries removed.
    """
    current = cache.code_version()
    removed = 0
    for meta_path in root.glob("??/*/meta.json"):
        try:
            version = json.loads(meta_path.read_text()).get("code_version")
        except (OSError, ValueError, AttributeError):
            version = None
        if version != current:
            shutil.rmtree(meta_path.parent, ignore_errors=True)
            removed += 1
    return removed


def open_bench_cache() -> str | None:
    """This session's cache root, with the default root pruned first."""
    root = bench_cache_dir()
    if os.environ.get(CACHE_ENV) is None:
        prune_other_versions(Path(root))
    return root


@pytest.fixture(scope="session")
def bench_cache() -> str | None:
    """The artifact-cache root every session fixture shares."""
    return open_bench_cache()


@pytest.fixture(scope="session")
def study(bench_cache):
    """The shared full-scale study used by every figure benchmark."""
    return study_for("default", cache_dir=bench_cache)


@pytest.fixture(scope="session")
def per_user(study):
    return study.per_user


@pytest.fixture(scope="session")
def nep_dataset(study):
    return study.nep.dataset


@pytest.fixture(scope="session")
def azure_dataset(study):
    return study.azure.dataset


class AblationSweep:
    """Accessor over the session ablation sweep's output directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def outcome(self, cell: str) -> dict:
        """The stored ``AnalysisResult`` dict of one ablation cell."""
        result = json.loads(
            (self.out_dir / CELLS_DIR / cell / RESULT_NAME).read_text(
                encoding="utf-8"))
        assert result["status"] == "ok", \
            f"ablation cell {cell} failed: {result['error']}"
        [analysis] = result["analyses"]
        return analysis


@pytest.fixture(scope="session")
def ablation_sweep(tmp_path_factory, bench_cache) -> AblationSweep:
    """Run the whole ablation campaign once, through the orchestrator."""
    spec = load_sweep_spec(SWEEPS_DIR / "ablations.toml")
    out_dir = tmp_path_factory.mktemp("ablation-sweep")
    result = run_sweep(spec, out_dir, cache_dir=bench_cache)
    assert result.ok, f"ablation sweep failed: {', '.join(result.failed)}"
    return AblationSweep(out_dir)


def emit(text: str) -> None:
    """Print a figure's report block under pytest's -s / captured output."""
    print()
    print(text)
