"""Shared state for the paper-claims test (``test_claims.py``).

Every claim in ``claims.py`` runs on one full-scale study, built once
per session and persisted across *invocations* through the artifact
cache: the ``study`` fixture reads/writes the cache rooted at
``$REPRO_BENCH_CACHE_DIR`` (set it to the empty string to force cold
rebuilds).  Unset, the root is the benchmarks' own ``benchmarks/``
subdirectory of the library cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``).  Every source edit changes the code version and
so every key, so each session first removes the entries there that
another code version wrote; an explicit root is never pruned, and
neither is the library cache itself.  ``scripts/update_experiments.py``
opens the same cache through :func:`open_bench_cache`.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro import cache, study_for

#: Environment override for the benchmarks' artifact-cache root.
#: Unset -> ``CACHE_SUBDIR`` of the library cache root, pruned to the
#: current code version; empty string -> caching disabled.
CACHE_ENV = "REPRO_BENCH_CACHE_DIR"

#: The benchmarks' own subdirectory of the library cache root.
CACHE_SUBDIR = "benchmarks"


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
def study():
    """The shared full-scale study every claim runs on."""
    return study_for("default", cache_dir=open_bench_cache())
