"""Streamed generation equivalence and sink-protocol tests.

Every generated workload streams through a sink, and where its shards
live is an execution detail like ``--jobs``: the tests here pin that a
workload — spill- or cache-backed, serial or pooled — reproduces the
exact golden bytes, that a spill lives exactly as long as its series,
and that the sink protocol rejects misuse.
"""

from __future__ import annotations

import gc
import multiprocessing
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.errors import QuarantineError, TraceError
from repro.obs import RunJournal, canonical_events
from repro.resilience import RetryPolicy, install, reset
from repro.shards import read_shard_index, shard_path
from repro.study import EdgeStudy, scenario_for
from repro.workload.azure import generate_azure_workload
from repro.workload.generator import generate_nep_workload
from repro.workload.streaming import WorkloadSink, write_block

from .test_parallel_equivalence import GOLDEN, workload_digest

SCENARIO = Scenario.smoke_scale()


def _block(n=2, points=8):
    """A stand-in rendered block of ``n`` in-range rows."""
    block = type("B", (), {})()
    block.app_id = "app"
    block.cpu_rows = np.full((n, points), 0.25, dtype=np.float32)
    block.bw_rows = np.ones((n, points), dtype=np.float32)
    block.private_rows = None
    return block


class TestStreamedGoldenDigests:
    """Streamed output is bit-identical to the in-core golden bytes."""

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_spill_sink_matches_golden(self, scale, tmp_path):
        scenario = scenario_for(scale)
        nep = generate_nep_workload(
            scenario, sink=WorkloadSink.spill(tmp_path / "nep"))
        azure = generate_azure_workload(
            scenario, sink=WorkloadSink.spill(tmp_path / "azure"))
        assert workload_digest(nep) == GOLDEN[(scale, "nep")]
        assert workload_digest(azure) == GOLDEN[(scale, "azure")]

    def test_pooled_streamed_matches_golden(self, tmp_path):
        scenario = scenario_for("smoke")
        nep = generate_nep_workload(
            scenario, jobs=2, sink=WorkloadSink.spill(tmp_path / "nep"))
        assert workload_digest(nep) == GOLDEN[("smoke", "nep")]

    def test_cache_sink_matches_golden_and_rereads(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO)
        streamed = generate_nep_workload(SCENARIO, sink=sink)
        assert workload_digest(streamed) == GOLDEN[("smoke", "nep")]
        # The streamed run populated the cache; a cold load serves the
        # same bytes back from the sharded entry.
        reloaded = cache.get_workload("workload_nep", SCENARIO)
        assert reloaded is not None
        assert workload_digest(reloaded) == GOLDEN[("smoke", "nep")]

    def test_streamed_rows_are_read_from_the_spill(self, tmp_path):
        """Rows come from the spilled shard bytes, a new array per read."""
        workload = generate_nep_workload(
            SCENARIO, sink=WorkloadSink.spill(tmp_path / "nep"))
        series = workload.dataset.cpu_series
        vm_id = next(iter(series))
        first, again = series[vm_id], series[vm_id]
        stored = np.load(shard_path(series.root, "cpu", 0))[0]
        assert first.tobytes() == stored.tobytes()
        assert not np.shares_memory(first, again)


class TestStudyStreaming:
    def test_streamed_study_statistics_match_in_core(self, tmp_path):
        """A spilled (uncached) study and a cache-backed one agree."""
        from repro.core.workload_analysis import cpu_utilization_summary
        from repro.study import EdgeStudy

        spilled = EdgeStudy(SCENARIO)
        cached = EdgeStudy(SCENARIO, cache=ArtifactCache(tmp_path))
        assert (workload_digest(spilled.nep)
                == workload_digest(cached.nep)
                == GOLDEN[("smoke", "nep")])
        assert (repr(cpu_utilization_summary(spilled.nep.dataset))
                == repr(cpu_utilization_summary(cached.nep.dataset)))

    def test_streaming_keyword_is_ignored(self):
        from repro.study import EdgeStudy

        for mode in ("off", "on", "auto"):
            study = EdgeStudy(SCENARIO, streaming=mode)
            assert workload_digest(study.nep) == GOLDEN[("smoke", "nep")]


class TestOneEntryFormat:
    def test_in_memory_and_streamed_stores_commit_equal_shards(self,
                                                                tmp_path):
        """A spill directory holds the shards a cache entry commits."""
        from repro.shards import read_shard_index, shard_path
        from repro.study import EdgeStudy

        cache = ArtifactCache(tmp_path)
        committed = EdgeStudy(SCENARIO, cache=cache).nep.dataset
        spilled = EdgeStudy(SCENARIO).nep.dataset
        entry = next(iter(cache.entries()))
        assert entry.kind == "workload"
        # Equal layouts include equal per-shard payload checksums.
        assert (read_shard_index(spilled.cpu_series.root)
                == read_shard_index(committed.cpu_series.root)
                == read_shard_index(entry.path))


class TestJobsAndChaos:
    """Whoever writes the rows, and however often, the store is the same."""

    @staticmethod
    def _cache_nep(root, jobs):
        journal = RunJournal(None)
        study = EdgeStudy(SCENARIO, jobs=jobs, cache=ArtifactCache(root),
                          journal=journal)
        study.nep
        entry = next(iter(study.cache.entries()))
        return read_shard_index(entry.path), journal.events

    def test_jobs_and_chaos_store_equal_shards_and_journals(self, tmp_path):
        inline, inline_events = self._cache_nep(tmp_path / "inline", 1)
        pooled, pooled_events = self._cache_nep(tmp_path / "pooled", 2)
        install("shard.write:nth=2,times=1;pool.kill_worker:nth=2,times=1")
        try:
            chaos, chaos_events = self._cache_nep(tmp_path / "chaos", 2)
        finally:
            reset()
        # Equal layouts include equal per-shard payload checksums.
        assert inline == pooled == chaos
        assert (canonical_events(inline_events)
                == canonical_events(pooled_events)
                == canonical_events(chaos_events))
        # Both faults fired: a killed worker and a failed in-task write.
        assert any(e["type"] == "worker_restart" for e in chaos_events)
        assert any(e["type"] == "job_retry" and "shard.write" in e["error"]
                   for e in chaos_events)

    @pytest.mark.parametrize("generate", [generate_nep_workload,
                                          generate_azure_workload])
    def test_farm_closed_before_finalize(self, generate, tmp_path,
                                         monkeypatch):
        """The last block ends the series farm: no worker outlives it."""
        alive = []
        finalize = WorkloadSink.finalize

        def counting(sink, *args):
            alive.append(len(multiprocessing.active_children()))
            return finalize(sink, *args)

        monkeypatch.setattr(WorkloadSink, "finalize", counting)
        generate(SCENARIO, jobs=2, sink=WorkloadSink.spill(tmp_path))
        assert alive == [0]

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("generate", [generate_nep_workload,
                                          generate_azure_workload])
    def test_mid_stream_failure_stops_farm_before_abort(
            self, generate, cached, tmp_path, monkeypatch):
        """A failing consumer closes the farm before the sink is
        removed, so no task writes into a directory being deleted."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        consume, abort = WorkloadSink.consume, WorkloadSink.abort
        consumed, alive = [], []

        def failing(sink, *args):
            consumed.append(1)
            if len(consumed) == 2:
                raise TraceError("consumer failed")
            return consume(sink, *args)

        def counting(sink):
            alive.append(len(multiprocessing.active_children()))
            return abort(sink)

        monkeypatch.setattr(WorkloadSink, "consume", failing)
        monkeypatch.setattr(WorkloadSink, "abort", counting)
        cache = ArtifactCache(tmp_path / "cache") if cached else None
        sink = (WorkloadSink.for_cache(cache, "workload", SCENARIO)
                if cached else WorkloadSink.spill())
        with pytest.raises(TraceError, match="consumer failed"):
            generate(SCENARIO, jobs=2, sink=sink)
        assert alive == [0]
        assert not list(tmp_path.glob("repro-spill-*"))
        if cached:
            assert not list(cache.root.glob(".tmp-*"))

    @pytest.mark.parametrize("cached", [True, False])
    def test_persistent_shard_write_failure_leaves_nothing(
            self, cached, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(RetryPolicy, "delay", lambda *_args: 0.0)
        cache = ArtifactCache(tmp_path / "cache") if cached else None
        install("shard.write:p=1")
        try:
            with pytest.raises(QuarantineError):
                EdgeStudy(SCENARIO, jobs=2, cache=cache).nep
        finally:
            reset()
        assert not list(tmp_path.glob("repro-spill-*"))
        if cached:
            assert not list(cache.root.glob(".tmp-*"))
            assert cache.entries() == []


class TestSpillLifetime:
    """A spill directory lives exactly as long as the series read from it."""

    def test_released_series_remove_the_spill(self):
        workload = generate_nep_workload(SCENARIO)
        root = workload.dataset.cpu_series.root
        bw = workload.dataset.bw_series
        del workload
        gc.collect()
        assert root.exists()  # one map still reads from it
        assert np.asarray(bw[next(iter(bw))]).size
        del bw
        gc.collect()
        assert not root.exists()

    def test_unfinalized_spill_removed_with_its_sink(self):
        sink = WorkloadSink.spill()
        root = sink.root
        assert root.exists()
        del sink
        gc.collect()
        assert not root.exists()


class TestSinkProtocol:

    def test_begin_twice_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        with pytest.raises(TraceError):
            sink.begin(8, 8, private=False)

    def test_consume_before_begin_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        with pytest.raises(TraceError):
            sink.consume(["a", "b"], _block())

    def test_duplicate_vm_ids_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], _block())
        with pytest.raises(TraceError, match="duplicate"):
            sink.consume(["b", "c"], _block())

    def test_row_count_mismatch_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        with pytest.raises(TraceError, match="rows"):
            sink.consume(["a", "b", "c"], _block(n=2))

    def test_out_of_range_values_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        bad = _block()
        bad.cpu_rows = np.full((2, 8), 1.5, dtype=np.float32)
        with pytest.raises(TraceError, match="CPU"):
            write_block(sink.targets, 0, bad)
        worse = _block()
        worse.bw_rows = np.full((2, 8), -1.0, dtype=np.float32)
        with pytest.raises(TraceError, match="negative"):
            write_block(sink.targets, 0, worse)

    def test_abort_discards_spill(self, tmp_path):
        root = tmp_path / "spill"
        sink = WorkloadSink.spill(root)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], _block())
        sink.abort()
        assert not root.exists()
        with pytest.raises(TraceError):
            sink.consume(["c"], _block(n=1))

    def test_abort_is_idempotent(self, tmp_path):
        # The generator aborts on a mid-stream failure and the study
        # aborts again when the exception surfaces — the second call
        # must not trip over the already-removed directory.
        root = tmp_path / "spill"
        sink = WorkloadSink.spill(root)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], _block())
        sink.abort()
        sink.abort()
        assert not root.exists()

    def test_study_aborts_sink_on_generation_failure(self, tmp_path):
        # A mid-generation failure must surface the original error —
        # the study-level abort (plus the idempotence guard above) may
        # not mask it with a second-cleanup crash — and the spill
        # directory is gone before the exception reaches the caller.
        from repro.errors import QuarantineError
        from repro.resilience import install, reset
        from repro.study import EdgeStudy
        from repro.workload import streaming as streaming_mod

        spills: list[Path] = []
        original = streaming_mod.WorkloadSink.spill.__func__

        def tracking_spill(cls, directory=None, **kwargs):
            sink = original(cls, directory, **kwargs)
            spills.append(sink.root)
            return sink

        scenario = Scenario.smoke_scale().with_overrides(seed=811)
        install("series.render:nth=1,times=99")
        try:
            streaming_mod.WorkloadSink.spill = classmethod(tracking_spill)
            study = EdgeStudy(scenario)
            with pytest.raises(QuarantineError):
                study.nep
        finally:
            streaming_mod.WorkloadSink.spill = classmethod(original)
            reset()
        assert spills and all(not root.exists() for root in spills)
