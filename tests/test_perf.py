"""Tests for the perf telemetry registry."""

import pickle
import time

import pytest

from repro.obs import RunJournal
from repro.perf import PerfRegistry, SpanStats


class TestSpans:
    def test_span_records_time_and_calls(self):
        perf = PerfRegistry()
        with perf.span("work"):
            time.sleep(0.01)
        stats = perf.spans["work"]
        assert stats.calls == 1
        assert stats.wall_s >= 0.01
        assert stats.cpu_s >= 0.0

    def test_spans_accumulate(self):
        perf = PerfRegistry()
        for _ in range(3):
            with perf.span("phase"):
                pass
        assert perf.spans["phase"].calls == 3

    def test_span_survives_exceptions(self):
        perf = PerfRegistry()
        try:
            with perf.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert perf.spans["boom"].calls == 1

    def test_wall_s_of_unknown_span_is_zero(self):
        assert PerfRegistry().wall_s("never-ran") == 0.0


class TestPhases:
    def test_ok_phase_has_no_error(self):
        perf = PerfRegistry()
        with perf.phase("build"):
            pass
        stats = perf.spans["build"]
        assert (stats.calls, stats.error) == (1, None)
        assert "error" not in stats.as_dict()

    def test_failed_phase_records_error_and_reraises(self):
        perf = PerfRegistry()
        with pytest.raises(ValueError):
            with perf.phase("build"):
                raise ValueError("no capacity")
        assert perf.spans["build"].error == "ValueError: no capacity"
        assert perf.spans["build"].as_dict()["error"] == \
            "ValueError: no capacity"
        assert "FAILED ValueError: no capacity" in perf.report()

    def test_rerun_replaces_the_outcome(self):
        perf = PerfRegistry()
        with pytest.raises(KeyError):
            with perf.phase("build"):
                raise KeyError("x")
        with perf.phase("build"):
            pass
        assert perf.spans["build"].error is None
        assert perf.spans["build"].calls == 2

    def test_journal_events_nest_phase_inside_span(self):
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        with perf.phase("ok"):
            pass
        with pytest.raises(RuntimeError):
            with perf.phase("bad"):
                raise RuntimeError("boom")
        assert [(e["type"], e.get("status")) for e in journal.events] == [
            ("span_begin", None), ("phase_begin", None),
            ("phase_end", "ok"), ("span_end", None),
            ("span_begin", None), ("phase_begin", None),
            ("phase_end", "failed"), ("span_end", None),
        ]
        failed = journal.events[6]
        assert failed["error"] == "RuntimeError: boom"
        assert list(failed)[3:7] == ["phase", "status", "error", "wall_s"]
        assert failed["rss_mb"] > 0  # the journal samples phase ends

    def test_interrupt_closes_span_without_outcome(self):
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        with pytest.raises(KeyboardInterrupt):
            with perf.phase("build"):
                raise KeyboardInterrupt
        assert [e["type"] for e in journal.events] == [
            "span_begin", "phase_begin", "span_end"]
        assert perf.spans["build"].error is None


class TestCountersAndViews:
    def test_counters_accumulate(self):
        perf = PerfRegistry()
        perf.count("vms", 5)
        perf.count("vms", 2)
        assert perf.counters == {"vms": 7}

    def test_as_dict_round_trips(self):
        perf = PerfRegistry()
        with perf.span("a"):
            pass
        perf.count("n", 1)
        data = perf.as_dict()
        assert set(data) == {"spans", "counters"}
        assert data["spans"]["a"]["calls"] == 1
        assert data["counters"] == {"n": 1}

    def test_report_lists_phases(self):
        perf = PerfRegistry()
        with perf.span("alpha"):
            pass
        perf.count("widgets", 3)
        report = perf.report()
        assert "alpha" in report
        assert "widgets" in report

    def test_empty_report(self):
        assert "no spans" in PerfRegistry().report()


class TestMerge:
    def test_span_stats_merge_sums(self):
        a = SpanStats(wall_s=1.0, cpu_s=0.5, calls=2)
        a.merge(SpanStats(wall_s=0.25, cpu_s=0.25, calls=1))
        assert (a.wall_s, a.cpu_s, a.calls) == (1.25, 0.75, 3)

    def test_registry_merge_sums_spans_and_counters(self):
        parent, worker = PerfRegistry(), PerfRegistry()
        with parent.span("shared"):
            pass
        with worker.span("shared"):
            pass
        with worker.span("worker-only"):
            pass
        parent.count("vms", 3)
        worker.count("vms", 4)
        worker.count("chunks", 1)
        parent.merge(worker)
        assert parent.spans["shared"].calls == 2
        assert parent.spans["worker-only"].calls == 1
        assert parent.counters == {"vms": 7, "chunks": 1}

    def test_merge_empty_is_noop(self):
        parent = PerfRegistry()
        with parent.span("a"):
            pass
        before = parent.as_dict()
        parent.merge(PerfRegistry())
        assert parent.as_dict() == before

    def test_registry_survives_pickle_round_trip(self):
        # Worker processes ship their registries back through pickle.
        worker = PerfRegistry()
        with worker.span("series_render"):
            pass
        worker.count("series_vms", 256)
        clone = pickle.loads(pickle.dumps(worker))
        assert clone.spans["series_render"].calls == 1
        assert clone.counters == {"series_vms": 256}
        parent = PerfRegistry()
        parent.merge(clone)
        assert parent.counters["series_vms"] == 256


class TestStudyIntegration:
    def test_study_phases_recorded(self, study, latency_results):
        # The session study has at least built NEP and run the campaign.
        assert study.perf.wall_s("workload_nep") > 0
        assert study.perf.wall_s("campaign_latency") > 0
        assert study.perf.counters["latency_observations"] == len(
            latency_results.latency)
