"""Tests for the vectorized ABR session engine (repro.qoe.sessions).

The heart of the file is the golden-digest contract: the vectorized
tick loop, the scalar reference, every chunking, and every worker
count must all hash to the same pinned SHA-256 per (abr, arm) — any
drift in the buffer dynamics is a test failure, not a silent QoE
shift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParallelError, QuarantineError
from repro.obs import RunJournal, canonical_events
from repro.obs.journal import VOLATILE_EVENT_TYPES
from repro.qoe import (
    ARMS,
    METRICS,
    SessionDigest,
    SessionWorkload,
    build_session_workload,
    counter_uniform,
    run_qoe_sessions,
    run_sessions,
    simulate_chunk,
    simulate_reference,
)
from repro.resilience import install, reset

#: Pinned digests for :func:`_workload` — regenerate only when the
#: session dynamics change *on purpose* (and say so in the changelog).
GOLDEN_DIGESTS = {
    ("throughput", "edge"):
        "a902b51f975db3f320a323616d41c3c4d7b2e06e592a683189dc096b44a46cab",
    ("throughput", "cloud"):
        "4b02318271af6e43e2d073c1295d4a53f341e06d57f52347be000e251013e948",
    ("buffer", "edge"):
        "554cb5cee809e58852dea36a38290917836de209640600ceadf1c1cc30630d02",
    ("buffer", "cloud"):
        "9b7009ee2f77bae79076c6e2227df68bc728d14905385cb5e39078db1d6ff78b",
}


def _workload(abr="throughput", n_sessions=256, n_ticks=48):
    return SessionWorkload(
        seed=1234, n_sessions=n_sessions, n_ticks=n_ticks, abr=abr,
        site_hit_ratios=np.array([0.2, 0.45, 0.7]),
        hit_rtt_ms=17.0, miss_rtt_ms=43.0, cloud_rtt_ms=44.0,
        downlink_mean_mbps=6.0)


def _reference_digest(workload, arm):
    digest = SessionDigest()
    digest.update(simulate_reference(workload, arm))
    return digest.hexdigest()


class TestCounterRng:
    def test_uniform_range_and_determinism(self):
        idx = np.arange(10_000, dtype=np.uint64)
        u = counter_uniform(7, 1, idx)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(u, counter_uniform(7, 1, idx))
        assert abs(float(u.mean()) - 0.5) < 0.02

    def test_streams_and_ticks_decorrelate(self):
        idx = np.arange(256, dtype=np.uint64)
        base = counter_uniform(7, 1, idx)
        assert not np.array_equal(base, counter_uniform(7, 2, idx))
        assert not np.array_equal(base, counter_uniform(7, 1, idx, tick=1))
        assert not np.array_equal(base, counter_uniform(8, 1, idx))

    def test_absolute_indexing_is_chunk_free(self):
        """Draw 100 sessions at once or in two halves: same numbers."""
        whole = counter_uniform(5, 3, np.arange(100, dtype=np.uint64))
        left = counter_uniform(5, 3, np.arange(50, dtype=np.uint64))
        right = counter_uniform(5, 3, np.arange(50, 100, dtype=np.uint64))
        assert np.array_equal(whole, np.concatenate([left, right]))


class TestGoldenDigests:
    @pytest.mark.parametrize("abr,arm", sorted(GOLDEN_DIGESTS))
    def test_vectorized_matches_pinned_digest(self, abr, arm):
        result = run_sessions(_workload(abr), arm, chunk_sessions=64)
        assert result.digest == GOLDEN_DIGESTS[(abr, arm)]

    @pytest.mark.parametrize("abr,arm", sorted(GOLDEN_DIGESTS))
    def test_reference_matches_pinned_digest(self, abr, arm):
        """The scalar engine independently reproduces the same bytes."""
        assert (_reference_digest(_workload(abr), arm)
                == GOLDEN_DIGESTS[(abr, arm)])

    def test_chunk_size_never_changes_the_digest(self):
        workload = _workload()
        digests = {run_sessions(workload, "edge", chunk_sessions=c).digest
                   for c in (17, 64, 97, 256, 10_000)}
        assert digests == {GOLDEN_DIGESTS[("throughput", "edge")]}

    def test_worker_count_never_changes_the_digest(self):
        workload = _workload()
        serial = run_sessions(workload, "edge", chunk_sessions=32, jobs=1)
        pooled = run_sessions(workload, "edge", chunk_sessions=32, jobs=2)
        assert serial.digest == pooled.digest
        assert serial.means == pooled.means

    def test_chunk_slice_equals_reference_slice(self):
        """simulate_chunk on [start, start+count) == the same slice
        of a scalar run, element for element."""
        workload = _workload(n_sessions=96)
        chunk = simulate_chunk(workload, 32, 40, "cloud")
        ref = simulate_reference(workload, "cloud", start=32, count=40)
        for metric in METRICS:
            assert np.array_equal(chunk[metric], ref[metric])


class TestRunSessions:
    def test_means_and_quantiles_are_coherent(self):
        result = run_sessions(_workload(), "edge")
        assert result.sessions == 256
        assert set(result.means) == set(METRICS)
        for metric in METRICS:
            assert result.quantile(metric, 0.9) \
                >= result.quantile(metric, 0.5)

    def test_pooled_run_leaves_no_worker_processes(self):
        import multiprocessing

        run_sessions(_workload(), "edge", chunk_sessions=32, jobs=2)
        assert multiprocessing.active_children() == []

    def test_unknown_arm_rejected(self):
        with pytest.raises(ParallelError):
            run_sessions(_workload(), "fog")
        with pytest.raises(ParallelError):
            simulate_reference(_workload(), "fog")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ParallelError):
            run_sessions(_workload(), "edge", chunk_sessions=0)

    def test_session_chunks_journaled_as_volatile(self, tmp_path):
        assert "session_chunk" in VOLATILE_EVENT_TYPES
        with RunJournal(tmp_path / "run.jsonl") as journal:
            run_sessions(_workload(), "edge", chunk_sessions=64,
                         journal=journal)
            events = list(journal.events)
        chunks = [e for e in events if e.get("type") == "session_chunk"]
        assert len(chunks) == 4  # 256 sessions / 64
        assert sum(e["sessions"] for e in chunks) == 256
        # Chunking is an execution detail: canonicalization drops it,
        # so chaos reruns with different retry patterns still compare.
        assert not [e for e in canonical_events(events)
                    if e.get("type") == "session_chunk"]


class TestFailpointRecovery:
    def setup_method(self):
        reset()

    def teardown_method(self):
        reset()

    def test_injected_chunk_fault_retries_to_identical_output(self):
        clean = run_sessions(_workload(), "edge", chunk_sessions=64)
        install("qoe.chunk:nth=1")
        faulty = run_sessions(_workload(), "edge", chunk_sessions=64)
        assert faulty.digest == clean.digest
        assert faulty.means == clean.means

    def test_chunk_failing_every_attempt_is_quarantined(self):
        install("qoe.chunk:p=1")
        with pytest.raises(QuarantineError, match="qoe:edge:0"):
            run_sessions(_workload(), "edge", chunk_sessions=64)


class TestScenarioIntegration:
    def test_edge_arm_beats_cloud_arm(self, scenario):
        result = run_qoe_sessions(scenario)
        assert set(result.arms) == set(ARMS)
        edge, cloud = result.arms["edge"], result.arms["cloud"]
        assert edge.sessions == scenario.qoe_session_count
        # The whole point of the experiment: closer cache, better QoE.
        assert (edge.means["mean_bitrate_mbps"]
                > cloud.means["mean_bitrate_mbps"])
        assert result.hit_rtt_ms < result.miss_rtt_ms

    def test_metrics_surface(self, scenario):
        metrics = run_qoe_sessions(scenario).metrics()
        assert set(metrics) >= {"qoe_hit_ratio",
                                "qoe_edge_bitrate_mbps",
                                "qoe_cloud_bitrate_mbps"}
        assert all(isinstance(v, float) for v in metrics.values())

    def test_report_renders(self, scenario):
        text = run_qoe_sessions(scenario).format()
        assert "edge" in text and "cloud" in text
        for metric in METRICS:
            assert metric in text

    def test_workload_tracks_scenario_knobs(self, scenario):
        workload = build_session_workload(scenario)
        assert workload.n_sessions == scenario.qoe_session_count
        assert workload.abr == scenario.qoe_abr
        assert workload.site_hit_ratios.shape \
            == (scenario.nep_site_count,)


class TestStudyPhase:
    def test_phase_is_cached_and_journaled(self, tmp_path):
        from repro import ArtifactCache, Scenario
        from repro.study import EdgeStudy

        cache = ArtifactCache(tmp_path)
        scenario = Scenario.smoke_scale().with_overrides(seed=707)
        cold = EdgeStudy(scenario, cache=cache)
        first = cold.qoe_sessions
        assert "cache_hit:qoe_sessions" not in cold.perf.counters
        warm = EdgeStudy(scenario, cache=cache)
        second = warm.qoe_sessions
        assert warm.perf.counters["cache_hit:qoe_sessions"] == 1
        assert second.arms["edge"].digest == first.arms["edge"].digest

    def test_phase_in_ledger(self, study):
        study.qoe_sessions
        assert study.perf.spans["qoe_sessions"].error is None

    def test_knobs_change_the_answer(self, study):
        from repro.study import EdgeStudy

        tweaked = EdgeStudy(study.scenario.with_overrides(
            qoe_cache_mb=64))
        assert (tweaked.qoe_sessions.arms["edge"].digest
                != study.qoe_sessions.arms["edge"].digest)
        assert (tweaked.qoe_sessions.hit_ratio_mean
                < study.qoe_sessions.hit_ratio_mean)
