"""The paper-claims benchmarks keep their artifact cache to one code
version, in a root of their own (``benchmarks/conftest.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.cache import ArtifactCache
from repro.config import Scenario

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
SCENARIO = Scenario.smoke_scale()


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_conftest"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def library(monkeypatch, tmp_path) -> ArtifactCache:
    """The library cache root, with no benchmark override set."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "library"))
    monkeypatch.delenv("REPRO_BENCH_CACHE_DIR", raising=False)
    return ArtifactCache(tmp_path / "library")


def _session(bench_conftest, monkeypatch, library, version) -> ArtifactCache:
    """One benchmark session at ``version``: open the cache, store entries
    there, and one in the library cache beside it."""
    monkeypatch.setattr("repro.cache.code_version", lambda: version)
    bench = ArtifactCache(bench_conftest.open_bench_cache())
    for artifact in ("campaign_latency", "campaign_throughput"):
        bench.put_object(artifact, SCENARIO, version)
    library.put_object("campaign_latency", SCENARIO, version)
    return bench


def _versions(cache: ArtifactCache) -> list[str]:
    return sorted(json.loads((entry.path / "meta.json").read_text())
                  ["code_version"] for entry in cache.entries())


def test_default_root_is_a_subdirectory_of_the_library_cache(
        bench_conftest, library):
    root = Path(bench_conftest.bench_cache_dir())
    assert root.parent == library.root and root != library.root


def test_second_session_keeps_one_set_of_entries(
        bench_conftest, monkeypatch, library):
    _session(bench_conftest, monkeypatch, library, "a" * 16)
    bench = _session(bench_conftest, monkeypatch, library, "b" * 16)
    assert _versions(bench) == ["b" * 16] * 2
    assert _versions(library) == ["a" * 16, "b" * 16]


def test_explicit_root_is_never_pruned(bench_conftest, monkeypatch, library,
                                       tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "mine"))
    _session(bench_conftest, monkeypatch, library, "a" * 16)
    bench = _session(bench_conftest, monkeypatch, library, "b" * 16)
    assert bench.root == tmp_path / "mine"
    assert _versions(bench) == ["a" * 16] * 2 + ["b" * 16] * 2


def test_empty_override_disables_the_cache(bench_conftest, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", "")
    assert bench_conftest.open_bench_cache() is None
