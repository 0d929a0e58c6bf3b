"""Streamed generation equivalence and sink-protocol tests.

Streaming (``--streaming``) is an execution knob like ``--jobs``: the
tests here pin that a streamed workload — spill- or cache-backed,
serial or pooled — reproduces the exact golden bytes of the in-core
path, and that the sink protocol rejects misuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.errors import ConfigurationError, TraceError
from repro.study import scenario_for
from repro.workload.azure import generate_azure_workload
from repro.workload.generator import generate_nep_workload
from repro.workload.streaming import (
    STREAMING_THRESHOLD_VMS,
    WorkloadSink,
    resolve_streaming,
)

from .test_parallel_equivalence import GOLDEN, workload_digest

SCENARIO = Scenario.smoke_scale()


class TestResolveStreaming:
    def test_forced_modes(self):
        assert resolve_streaming("on", SCENARIO) is True
        assert resolve_streaming("off", SCENARIO) is False

    def test_auto_follows_vm_threshold(self):
        assert resolve_streaming("auto", SCENARIO) is False
        big = SCENARIO.with_overrides(
            azure_vm_count=STREAMING_THRESHOLD_VMS)
        assert resolve_streaming("auto", big) is True

    def test_city_tier_streams_by_default(self):
        assert resolve_streaming("auto", Scenario.city_scale()) is True

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_streaming("maybe", SCENARIO)


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
    def test_streamed_study_statistics_match_in_core(self):
        from repro.core.workload_analysis import cpu_utilization_summary
        from repro.study import EdgeStudy

        in_core = EdgeStudy(SCENARIO)
        streamed = EdgeStudy(SCENARIO, streaming="on")
        assert streamed.streaming and not in_core.streaming
        assert (workload_digest(streamed.nep)
                == workload_digest(in_core.nep)
                == GOLDEN[("smoke", "nep")])
        assert (repr(cpu_utilization_summary(streamed.nep.dataset))
                == repr(cpu_utilization_summary(in_core.nep.dataset)))


class TestOneEntryFormat:
    def test_in_memory_and_streamed_stores_commit_equal_shards(self,
                                                                tmp_path):
        from repro.shards import read_shard_index
        from repro.study import EdgeStudy

        committed = {}
        for mode in ("off", "on"):
            cache = ArtifactCache(tmp_path / mode)
            study = EdgeStudy(SCENARIO, cache=cache, streaming=mode)
            study.nep, study.azure
            committed[mode] = {
                entry.artifact: (entry.kind, read_shard_index(entry.path))
                for entry in cache.entries()}
        assert set(committed["off"]) == {"workload_nep", "workload_azure"}
        # Equal layouts include equal per-shard payload checksums.
        assert committed["off"] == committed["on"]


class TestSinkProtocol:
    def _block(self, n=2, points=8):
        block = type("B", (), {})()
        block.app_id = "app"
        block.cpu_rows = np.full((n, points), 0.25, dtype=np.float32)
        block.bw_rows = np.ones((n, points), dtype=np.float32)
        block.private_rows = None
        return block

    def test_begin_twice_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        with pytest.raises(TraceError):
            sink.begin(8, 8, private=False)

    def test_consume_before_begin_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        with pytest.raises(TraceError):
            sink.consume(["a", "b"], self._block())

    def test_duplicate_vm_ids_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], self._block())
        with pytest.raises(TraceError, match="duplicate"):
            sink.consume(["b", "c"], self._block())

    def test_row_count_mismatch_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        with pytest.raises(TraceError, match="rows"):
            sink.consume(["a", "b", "c"], self._block(n=2))

    def test_out_of_range_values_rejected(self, tmp_path):
        sink = WorkloadSink.spill(tmp_path)
        sink.begin(8, 8, private=False)
        bad = self._block()
        bad.cpu_rows = np.full((2, 8), 1.5, dtype=np.float32)
        with pytest.raises(TraceError, match="CPU"):
            sink.consume(["a", "b"], bad)
        worse = self._block()
        worse.bw_rows = np.full((2, 8), -1.0, dtype=np.float32)
        with pytest.raises(TraceError, match="negative"):
            sink.consume(["c", "d"], worse)

    def test_abort_discards_spill(self, tmp_path):
        root = tmp_path / "spill"
        sink = WorkloadSink.spill(root)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], self._block())
        sink.abort()
        assert not root.exists()
        with pytest.raises(TraceError):
            sink.consume(["c"], self._block(n=1))

    def test_abort_is_idempotent(self, tmp_path):
        # The generator aborts on a mid-stream failure and the study
        # aborts again when the exception surfaces — the second call
        # must not trip over the already-removed directory.
        root = tmp_path / "spill"
        sink = WorkloadSink.spill(root)
        sink.begin(8, 8, private=False)
        sink.consume(["a", "b"], self._block())
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
            study = EdgeStudy(scenario, streaming="on")
            with pytest.raises(QuarantineError):
                study.nep
        finally:
            streaming_mod.WorkloadSink.spill = classmethod(original)
            reset()
        assert spills and all(not root.exists() for root in spills)
