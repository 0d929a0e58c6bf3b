"""Self-healing artifact store behaviour (repro.cache under chaos).

Covers the resilience satellites: the concurrent-eviction race, the
simulated-ENOSPC cleanup guarantee, commit retry/degrade under injected
faults, read-path self-healing, and ``cache verify --repair``.
"""

from __future__ import annotations

import errno
import gc
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

import repro.cache as cache_mod
from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.obs import RunJournal
from repro.resilience import install, reset
from repro.shards import ShardWriter, shard_path
from repro.workload.streaming import WorkloadSink, write_block

SCENARIO = Scenario.smoke_scale()


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


def _journaled_cache(root) -> tuple[ArtifactCache, RunJournal]:
    journal = RunJournal(None)
    return ArtifactCache(root, journal=journal), journal


def _events(journal: RunJournal, etype: str) -> list[dict]:
    return [e for e in journal.events if e["type"] == etype]


class TestCommitRetry:
    def test_transient_commit_fault_retried_and_stored(self, tmp_path):
        cache, journal = _journaled_cache(tmp_path)
        install("cache.commit:nth=1")
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        retries = _events(journal, "cache_retry")
        assert len(retries) == 1
        assert retries[0]["artifact"] == "campaign_latency"
        assert "InjectedFault" in retries[0]["error"]
        assert _events(journal, "cache_store")
        assert cache.get_object("campaign_latency", SCENARIO) == {"x": 1}
        assert not list(cache.root.glob(".tmp-*"))

    def test_persistent_commit_failure_degrades_to_uncached(self, tmp_path):
        cache, journal = _journaled_cache(tmp_path)
        install("cache.commit:nth=1,times=99")  # every attempt fails
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})  # no raise
        assert _events(journal, "cache_write_error")
        assert not _events(journal, "cache_store")
        assert cache.entries() == []
        # The store stays readable and writable once the fault clears.
        assert not list(cache.root.glob(".tmp-*"))
        reset()
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        assert cache.get_object("campaign_latency", SCENARIO) == {"x": 1}

    def test_persistent_workload_commit_failure_degrades_to_uncached(
            self, tmp_path):
        from repro.study import EdgeStudy

        from .workload.test_parallel_equivalence import (
            GOLDEN,
            workload_digest,
        )

        cache, journal = _journaled_cache(tmp_path)
        install("cache.commit:nth=1,times=99")  # every attempt fails
        study = EdgeStudy(SCENARIO, cache=cache, journal=journal)
        # No raise: this run serves the shards it staged, byte-exact.
        assert workload_digest(study.nep) == GOLDEN[("smoke", "nep")]
        errors = _events(journal, "cache_write_error")
        assert [e["artifact"] for e in errors] == ["workload_nep"]
        assert not _events(journal, "cache_store")
        assert cache.entries() == []
        assert not list(cache.root.glob(".tmp-*"))
        spills = list(cache.root.glob("repro-spill-*"))
        assert len(spills) == 1
        # The detached shards go with the series that read them.
        del study
        gc.collect()
        assert not spills[0].exists()
        # The store stays writable once the fault clears.
        reset()
        assert workload_digest(EdgeStudy(SCENARIO, cache=cache).nep) \
            == GOLDEN[("smoke", "nep")]
        assert [e.artifact for e in cache.entries()] == ["workload_nep"]


class TestReadSelfHealing:
    def test_injected_read_fault_evicts_and_misses(self, tmp_path):
        cache, journal = _journaled_cache(tmp_path)
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        install("cache.read:nth=1")
        assert cache.get_object("campaign_latency", SCENARIO) is None
        evictions = _events(journal, "cache_evict")
        assert evictions and evictions[0]["reason"] == "corrupt entry"
        # Self-healed: the entry is gone, a re-store round-trips again.
        cache.put_object("campaign_latency", SCENARIO, {"x": 2})
        assert cache.get_object("campaign_latency", SCENARIO) == {"x": 2}


class TestSimulatedEnospc:
    """OSError mid-write must clean staging and leave the store readable."""

    def test_object_store_enospc_cleans_staging(self, tmp_path,
                                                monkeypatch):
        cache, journal = _journaled_cache(tmp_path)
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})

        def no_space(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cache_mod.pickle, "dump", no_space)
        monkeypatch.setattr(
            cache_mod, "COMMIT_RETRY",
            cache_mod.COMMIT_RETRY.__class__(max_attempts=2,
                                             backoff_s=0.0))
        cache.put_object("campaign_throughput", SCENARIO, {"y": 2})
        errors = _events(journal, "cache_write_error")
        assert errors and "ENOSPC" in errors[0]["error"] \
            or "No space" in errors[0]["error"]
        assert not list(cache.root.glob(".tmp-*"))
        # The pre-existing entry is untouched and readable.
        monkeypatch.undo()
        assert cache.get_object("campaign_latency", SCENARIO) == {"x": 1}

    def test_shard_write_enospc_propagates_unreported(self, tmp_path,
                                                      monkeypatch):
        def no_space(fd, data, offset):
            # A full disk can take part of a write before it fails.
            os.write(fd, b"torn")
            raise OSError(errno.ENOSPC, "No space left on device")

        import repro.shards as shards_mod

        monkeypatch.setattr(shards_mod.os, "pwrite", no_space)
        writer = ShardWriter(tmp_path, "cpu", 8, shard_rows=2)
        with pytest.raises(OSError):
            writer.append(np.zeros((4, 8), dtype=np.float32))
        # The failed rows were never reported, so nothing was sealed.
        assert writer.finalize().rows == 0

    def test_streamed_entry_abort_after_enospc_cleans_up(self, tmp_path,
                                                         monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO,
                                      shard_rows=2)
        sink.begin(cpu_points=8, bw_points=8, private=False)

        import repro.shards as shards_mod

        def no_space(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shards_mod.os, "pwrite", no_space)
        block = type("B", (), {})()
        block.app_id = "doomed"
        block.cpu_rows = np.full((4, 8), 0.5, dtype=np.float32)
        block.bw_rows = np.ones((4, 8), dtype=np.float32)
        block.private_rows = None
        with pytest.raises(OSError):
            write_block(sink.targets, 0, block)
        sink.abort()
        assert not list(cache.root.glob(".tmp-*"))
        assert cache.get_workload("workload_nep", SCENARIO) is None
        assert cache.entries() == []


def _hammer_reader(root: str, barrier, stop_at: float) -> None:
    """Child process: read the cache continuously while the parent
    evicts and re-stores.  Any uncaught exception -> nonzero exit."""
    cache = ArtifactCache(root)
    barrier.wait()
    while time.time() < stop_at:
        cache.get_object("campaign_latency", SCENARIO)
        cache.entries()
        cache.info()


class TestConcurrentEvictionRace:
    def test_reader_survives_concurrent_eviction(self, tmp_path):
        """Regression: a reader walking an entry that another process is
        evicting saw FileNotFoundError from stat() mid-walk."""
        cache = ArtifactCache(tmp_path)
        payload = {"rows": list(range(2000))}
        cache.put_object("campaign_latency", SCENARIO, payload)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        stop_at = time.time() + 2.0
        reader = ctx.Process(target=_hammer_reader,
                             args=(str(tmp_path), barrier, stop_at))
        reader.start()
        barrier.wait()
        while time.time() < stop_at:
            cache.clear()
            cache.put_object("campaign_latency", SCENARIO, payload)
        reader.join(timeout=30)
        assert reader.exitcode == 0


class TestVerifyRepair:
    def _sharded_entry(self, root):
        from repro.workload.generator import generate_nep_workload

        cache = ArtifactCache(root)
        sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO,
                                      shard_rows=8)
        generate_nep_workload(SCENARIO, sink=sink)
        return cache

    def test_healthy_store_verifies_clean(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        report = cache.verify()
        assert report["checked"] == 1 and report["ok"] == 1
        assert report["problems"] == [] and report["repaired"] == 0

    def test_bit_flip_in_shard_payload_detected_deep_only(self, tmp_path):
        cache = self._sharded_entry(tmp_path)
        entry = cache.entries()[0]
        victim = next(iter(entry.path.rglob("shard-00000.npy")))
        payload = bytearray(victim.read_bytes())
        payload[-1] ^= 0xFF  # same size, same header: checksum-only damage
        victim.write_bytes(bytes(payload))
        shallow = cache.verify(deep=False)
        assert shallow["problems"] == []
        deep = cache.verify(deep=True)
        assert len(deep["problems"]) == 1
        assert any("checksum" in issue
                   for issue in deep["problems"][0]["issues"])

    def test_truncated_manifest_file_detected_shallow(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        victim = cache.entries()[0].path / "object.pkl"
        victim.write_bytes(victim.read_bytes()[:-3])
        report = cache.verify(deep=False)
        assert report["problems"]
        assert any("size mismatch" in issue
                   for issue in report["problems"][0]["issues"])

    def test_repair_evicts_damaged_and_sweeps_stale_staging(self, tmp_path):
        cache, journal = _journaled_cache(tmp_path)
        cache.put_object("campaign_latency", SCENARIO, {"x": 1})
        (cache.entries()[0].path / "object.pkl").unlink()
        stale = cache.root / ".tmp-12345-deadbeef"
        stale.mkdir()
        old = time.time() - 7200
        os.utime(stale, (old, old))
        report = cache.verify(repair=True)
        assert report["repaired"] == 2  # one entry + one staging dir
        assert cache.entries() == []
        assert not stale.exists()
        evictions = _events(journal, "cache_evict")
        assert evictions and evictions[0]["reason"].startswith("verify:")

    def test_missing_shard_detected(self, tmp_path):
        cache = self._sharded_entry(tmp_path)
        entry = cache.entries()[0]
        next(iter(entry.path.rglob("shard-00001.npy"))).unlink()
        report = cache.verify(deep=False)
        assert report["problems"]


class TestShardChecksums:
    def test_checksums_round_trip_and_deep_verify(self, tmp_path):
        from repro.shards import (ShardedSeriesMap, read_shard_index,
                                  write_shard_index)

        rng = np.random.default_rng(3)
        data = rng.random((6, 8)).astype(np.float32)
        writer = ShardWriter(tmp_path, "cpu", 8, shard_rows=2)
        writer.append(data)
        layout = writer.finalize()
        write_shard_index(tmp_path, [layout])
        assert len(layout.checksums) == 3
        order = [f"vm{i}" for i in range(6)]
        reloaded = read_shard_index(tmp_path)["cpu"]
        assert reloaded.checksums == layout.checksums
        series = ShardedSeriesMap(tmp_path, reloaded, order, verify=False)
        series.verify(deep=True)  # pristine store: no error

    def test_deep_verify_catches_silent_corruption(self, tmp_path):
        from repro.errors import TraceError
        from repro.shards import (ShardedSeriesMap, read_shard_index,
                                  write_shard_index)

        writer = ShardWriter(tmp_path, "cpu", 8, shard_rows=2)
        writer.append(np.ones((4, 8), dtype=np.float32))
        layout = writer.finalize()
        write_shard_index(tmp_path, [layout])
        victim = shard_path(tmp_path, "cpu", 1)
        payload = bytearray(victim.read_bytes())
        payload[-2] ^= 0x01
        victim.write_bytes(bytes(payload))
        order = [f"vm{i}" for i in range(4)]
        series = ShardedSeriesMap(tmp_path, read_shard_index(tmp_path)["cpu"],
                                  order, verify=False)
        series.verify(deep=False)  # header/size cannot see the flip
        with pytest.raises(TraceError, match="checksum"):
            series.verify(deep=True)
