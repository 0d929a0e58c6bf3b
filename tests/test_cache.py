"""Tests for the persistent artifact cache (repro.cache)."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.cache import ArtifactCache, code_version, default_cache_dir
from repro.config import Scenario
from repro.errors import ConfigurationError
from repro.workload.generator import GeneratedWorkload
from repro.workload.series import SeriesBlock
from repro.workload.streaming import WorkloadSink, write_block

SCENARIO = Scenario.smoke_scale()


def store_workload(cache: ArtifactCache, artifact: str,
                   workload: GeneratedWorkload,
                   scenario: Scenario = SCENARIO) -> GeneratedWorkload:
    """Replay ``workload``'s rows through a cache sink, one VM per block.

    Each block is written in place at its row, then consumed, as a
    series farm task and its parent do.  The sink is the only way a
    workload reaches the cache; the returned workload serves its series
    from wherever the sink left them.
    """
    ds = workload.dataset
    sink = WorkloadSink.for_cache(cache, artifact, scenario)
    copy = dataclasses.replace(ds)
    try:
        sink.begin(ds.cpu_points, ds.bw_points,
                   private=bool(ds.bw_private_series))
        for row, vm_id in enumerate(ds.vms):
            private = ds.bw_private_series.get(vm_id)
            block = SeriesBlock(
                app_id=vm_id, mean_bws=None,
                cpu_rows=np.asarray(ds.cpu_series[vm_id])[None],
                bw_rows=np.asarray(ds.bw_series[vm_id])[None],
                private_rows=(None if private is None
                              else np.asarray(private)[None]))
            write_block(sink.targets, row, block)
            sink.consume([vm_id], block)
        sink.finalize(workload.platform, copy)
    except BaseException:
        sink.abort()
        raise
    return GeneratedWorkload(platform=workload.platform, dataset=copy)


@pytest.fixture()
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


class TestKeys:
    def test_stable_for_equal_scenarios(self, cache):
        assert (cache.key("x", Scenario.smoke_scale())
                == cache.key("x", Scenario.smoke_scale()))

    def test_sensitive_to_seed(self, cache):
        assert (cache.key("x", SCENARIO)
                != cache.key("x", SCENARIO.with_overrides(seed=1)))

    def test_sensitive_to_any_scenario_knob(self, cache):
        assert (cache.key("x", SCENARIO)
                != cache.key("x", SCENARIO.with_overrides(trace_days=9)))
        assert (cache.key("x", SCENARIO)
                != cache.key("x", SCENARIO.with_overrides(
                    fault_profile="paper")))

    def test_sensitive_to_artifact_name(self, cache):
        assert cache.key("x", SCENARIO) != cache.key("y", SCENARIO)

    def test_sensitive_to_code_version(self, cache, monkeypatch):
        before = cache.key("x", SCENARIO)
        monkeypatch.setattr("repro.cache.code_version", lambda: "0" * 16)
        assert cache.key("x", SCENARIO) != before

    def test_empty_artifact_rejected(self, cache):
        with pytest.raises(ConfigurationError):
            cache.key("", SCENARIO)


class TestObjectRoundTrip:
    def test_miss_returns_none(self, cache):
        assert cache.get_object("campaign_latency", SCENARIO) is None

    def test_round_trip(self, cache):
        value = {"latency": [1.5, 2.5], "n": 3}
        cache.put_object("campaign_latency", SCENARIO, value)
        assert cache.get_object("campaign_latency", SCENARIO) == value

    def test_put_is_idempotent(self, cache):
        cache.put_object("a", SCENARIO, 1)
        cache.put_object("a", SCENARIO, 2)  # already present: kept
        assert cache.get_object("a", SCENARIO) == 1
        assert len(cache.entries()) == 1

    def test_corrupt_payload_is_a_miss_and_removed(self, cache):
        cache.put_object("a", SCENARIO, [1, 2, 3])
        entry = cache._entry_dir(cache.key("a", SCENARIO))
        (entry / "object.pkl").write_bytes(b"\x80garbage")
        assert cache.get_object("a", SCENARIO) is None
        assert not entry.exists()
        assert cache.get_object("a", SCENARIO) is None


class TestWorkloadRoundTrip:
    def test_round_trip_byte_identical(self, cache, nep_workload):
        store_workload(cache, "workload_nep", nep_workload)
        loaded = cache.get_workload("workload_nep", SCENARIO)
        assert loaded is not None
        src, dst = nep_workload.dataset, loaded.dataset
        assert list(src.vms) == list(dst.vms)
        for vm_id in src.vms:
            assert np.array_equal(src.cpu_series[vm_id],
                                  np.asarray(dst.cpu_series[vm_id]))
            assert np.array_equal(src.bw_series[vm_id],
                                  np.asarray(dst.bw_series[vm_id]))
        assert set(src.bw_private_series) == set(dst.bw_private_series)
        for vm_id in src.bw_private_series:
            assert np.array_equal(src.bw_private_series[vm_id],
                                  np.asarray(dst.bw_private_series[vm_id]))
        assert repr(src.vms) == repr(dst.vms)
        assert repr(nep_workload.platform.sites) == repr(loaded.platform.sites)

    def test_loaded_series_are_memory_mapped(self, cache, nep_workload):
        store_workload(cache, "workload_nep", nep_workload)
        loaded = cache.get_workload("workload_nep", SCENARIO)
        first = next(iter(loaded.dataset.cpu_series.values()))
        assert isinstance(np.asarray(first).base, np.memmap) or isinstance(
            first, np.memmap) or first.base is not None

    def test_truncated_series_is_a_miss(self, cache, nep_workload):
        store_workload(cache, "workload_nep", nep_workload)
        entry = cache._entry_dir(cache.key("workload_nep", SCENARIO))
        shard = entry / "cpu" / "shard-00000.npy"
        shard.write_bytes(shard.read_bytes()[:shard.stat().st_size // 2])
        assert cache.get_workload("workload_nep", SCENARIO) is None
        assert not entry.exists()

    def test_one_kind_everywhere_and_no_second_store(self, tmp_path):
        from repro.obs import RunJournal
        from repro.study import EdgeStudy

        journal = RunJournal(None)
        cache = ArtifactCache(tmp_path, journal=journal)
        # A study renders (and stores) only on a miss: the second study
        # loads the entry the first one's sink committed.
        EdgeStudy(SCENARIO, cache=cache).nep
        EdgeStudy(SCENARIO, cache=cache).nep
        assert not list(cache.root.glob(".tmp-*"))
        stores = [e for e in journal.events if e["type"] == "cache_store"]
        hits = [e for e in journal.events if e["type"] == "cache_hit"]
        assert len(stores) == 1 and len(hits) == 1
        entry = cache.entries()[0]
        meta = json.loads((entry.path / "meta.json").read_text())
        assert (meta["kind"] == stores[0]["kind"] == hits[0]["kind"]
                == entry.kind == "workload")


class _Bomb:
    """Pickles by SIGKILLing its own process: simulates a crash mid-write."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)
        return (list, ())  # pragma: no cover - never reached


def _put_bomb(root: str) -> None:
    cache = ArtifactCache(root)
    # A large head so the partial payload actually reaches the disk
    # before the kill fires.
    cache.put_object("bombed", SCENARIO, [b"x" * 1_000_000, _Bomb()])


class TestWriteAtomicity:
    def test_kill_during_write_leaves_no_loadable_entry(self, cache):
        proc = multiprocessing.get_context("fork").Process(
            target=_put_bomb, args=(str(cache.root),))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        # The interrupted write is invisible: a miss, zero complete
        # entries, at most an ignored staging directory.
        assert cache.get_object("bombed", SCENARIO) is None
        assert cache.entries() == []
        staging = list(cache.root.glob(".tmp-*"))
        assert staging, "expected the partial write to leave a staging dir"
        cache.clear()
        assert not list(cache.root.glob(".tmp-*"))

    def test_failed_writer_cleans_staging(self, cache):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.put_object("bad", SCENARIO, Unpicklable())
        assert not list(cache.root.glob(".tmp-*"))
        assert cache.get_object("bad", SCENARIO) is None

    def test_concurrent_writers_keep_one_entry(self, cache):
        cache.put_object("a", SCENARIO, 41)
        # Simulate losing the materialisation race: the final entry
        # appears between the existence check and the rename.
        key = cache.key("b", SCENARIO)

        real_rename = os.rename
        raced = []

        def racing_rename(src, dst):
            if not raced:
                raced.append(True)
                cache.put_object("b", SCENARIO, 42)
            real_rename(src, dst)

        try:
            os.rename = racing_rename
            cache.put_object("b", SCENARIO, 43)
        finally:
            os.rename = real_rename
        assert cache.get_object("b", SCENARIO) in (42, 43)
        assert len([e for e in cache.entries() if e.key == key]) == 1


class TestMaintenance:
    def test_entries_and_info(self, cache, nep_workload):
        cache.put_object("campaign_latency", SCENARIO, [1, 2])
        store_workload(cache, "workload_nep", nep_workload)
        entries = cache.entries()
        assert {e.artifact for e in entries} == {"campaign_latency",
                                                "workload_nep"}
        assert {e.kind for e in entries} == {"object", "workload"}
        assert all(e.bytes > 0 for e in entries)
        info = cache.info()
        assert info["entries"] == 2
        assert info["bytes"] == sum(e.bytes for e in entries)
        assert info["code_version"] == code_version()

    def test_clear_removes_everything(self, cache):
        cache.put_object("a", SCENARIO, 1)
        cache.put_object("b", SCENARIO, 2)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.clear() == 0

    def test_unreadable_meta_skipped(self, cache):
        cache.put_object("a", SCENARIO, 1)
        entry = cache.entries()[0]
        (entry.path / "meta.json").write_text("{not json")
        assert cache.entries() == []

    def test_full_clear_removes_entry_with_damaged_meta(self, cache):
        cache.put_object("a", SCENARIO, 1)
        entry = cache.entries()[0]
        (entry.path / "meta.json").write_text("{not json")
        cache.clear()
        assert not entry.path.exists()
        cache.put_object("a", SCENARIO, 2)
        assert cache.get_object("a", SCENARIO) == 2

    def test_meta_records_scenario_and_version(self, cache):
        cache.put_object("a", SCENARIO, 1)
        meta = json.loads((cache.entries()[0].path / "meta.json").read_text())
        assert meta["artifact"] == "a"
        assert meta["code_version"] == code_version()
        assert meta["scenario"]["seed"] == SCENARIO.seed


class TestDefaultDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


def _age_entry(cache, artifact, days):
    """Backdate an entry's created_at by ``days`` (meta.json rewrite)."""
    import time
    entry = next(e for e in cache.entries() if e.artifact == artifact)
    meta_path = entry.path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["created_at"] = time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() - days * 86_400))
    meta_path.write_text(json.dumps(meta))


class TestPruning:
    def test_stale_entries_respect_cutoff(self, cache):
        cache.put_object("old", SCENARIO, 1)
        cache.put_object("new", SCENARIO, 2)
        _age_entry(cache, "old", days=10)
        assert {e.artifact for e in cache.stale_entries(5)} == {"old"}
        assert len(cache.stale_entries(None)) == 2
        assert cache.stale_entries(30) == []

    def test_clear_older_than_keeps_recent(self, cache):
        cache.put_object("old", SCENARIO, 1)
        cache.put_object("new", SCENARIO, 2)
        _age_entry(cache, "old", days=10)
        assert cache.clear(older_than_days=5) == 1
        assert {e.artifact for e in cache.entries()} == {"new"}
        assert cache.get_object("new", SCENARIO) == 2

    def test_dry_run_counts_without_removing(self, cache):
        cache.put_object("a", SCENARIO, 1)
        cache.put_object("b", SCENARIO, 2)
        assert cache.clear(dry_run=True) == 2
        assert len(cache.entries()) == 2
        _age_entry(cache, "a", days=10)
        assert cache.clear(older_than_days=5, dry_run=True) == 1
        assert len(cache.entries()) == 2

    def test_damaged_created_at_counts_as_stale(self, cache):
        cache.put_object("a", SCENARIO, 1)
        entry = cache.entries()[0]
        meta_path = entry.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["created_at"] = "yesterday-ish"
        meta_path.write_text(json.dumps(meta))
        assert len(cache.stale_entries(9999)) == 1

    def test_cutoff_clear_spares_fresh_staging(self, cache):
        cache.put_object("a", SCENARIO, 1)
        _age_entry(cache, "a", days=10)
        staging = cache.root / ".tmp-live-writer"
        staging.mkdir()
        assert cache.clear(older_than_days=5) == 1
        assert staging.exists()        # a live writer may own it
        cache.put_object("b", SCENARIO, 2)
        assert cache.clear() == 1      # full clear sweeps staging too
        assert not staging.exists()
