"""Streamed generation equivalence and sink-protocol tests.

Every generated workload streams through a sink, and where its shards
live is an execution detail like ``--jobs``: the tests here pin that a
workload — spill- or cache-backed, serial or pooled — reproduces the
exact golden bytes, that a spill lives exactly as long as its series,
and that the sink protocol rejects misuse.
"""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.errors import TraceError
from repro.study import scenario_for
from repro.trace.dataset import TraceDataset
from repro.workload.azure import generate_azure_workload
from repro.workload.generator import generate_nep_workload
from repro.workload.streaming import WorkloadSink

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

    def test_streamed_rows_are_disk_backed(self, tmp_path):
        workload = generate_nep_workload(
            SCENARIO, sink=WorkloadSink.spill(tmp_path / "nep"))
        first = next(iter(workload.dataset.cpu_series.values()))
        assert isinstance(first.base, np.memmap) or isinstance(
            first, np.memmap)


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
        from repro.shards import read_shard_index
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


class TestShardBuffers:
    """Finalize and abort free the writers' shard-sized buffers at once."""

    def _sink(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path / "spill")
        sink.begin(8, 8, private=True)
        block = _block()
        block.private_rows = block.bw_rows
        sink.consume(["a", "b"], block)
        buffers = [weakref.ref(writer._buffer)
                   for writer in sink._writers.values()]
        return sink, buffers

    def test_finalize_releases_buffers(self, tmp_path):
        gc.disable()
        try:
            sink, buffers = self._sink(tmp_path)
            dataset = TraceDataset(platform_name="p", trace_days=1,
                                   cpu_interval_minutes=180,
                                   bw_interval_minutes=180,
                                   vms=dict.fromkeys(["a", "b"]))
            sink.finalize(None, dataset)
            assert all(ref() is None for ref in buffers)
        finally:
            gc.enable()

    def test_abort_releases_buffers(self, tmp_path):
        gc.disable()
        try:
            sink, buffers = self._sink(tmp_path)
            sink.abort()
            assert all(ref() is None for ref in buffers)
        finally:
            gc.enable()


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
            sink.consume(["a", "b"], bad)
        worse = _block()
        worse.bw_rows = np.full((2, 8), -1.0, dtype=np.float32)
        with pytest.raises(TraceError, match="negative"):
            sink.consume(["c", "d"], worse)

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
