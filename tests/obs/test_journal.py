"""Tests for the run journal core (repro.obs.journal)."""

from __future__ import annotations

import json

import pytest

from repro.config import Scenario
from repro.errors import ConfigurationError
from repro.obs import RunJournal, VOLATILE_FIELDS, canonical_events

SCENARIO = Scenario.smoke_scale()


class TestEnvelope:
    def test_seq_is_dense_and_ordered(self):
        journal = RunJournal(None)
        for _ in range(5):
            journal.emit("x")
        assert [e["seq"] for e in journal.events] == list(range(5))

    def test_envelope_fields_present(self):
        journal = RunJournal(None)
        event = journal.emit("cache_hit", artifact="a", key="k")
        assert event["type"] == "cache_hit"
        assert isinstance(event["t"], float)
        assert event["artifact"] == "a"

    def test_memory_sample_attached_to_phase_end(self):
        journal = RunJournal(None)
        event = journal.emit("phase_end", phase="p", status="ok")
        assert event["rss_mb"] > 0
        assert event["peak_rss_mb"] > 0
        plain = journal.emit("phase_begin", phase="p")
        assert "rss_mb" not in plain


class TestInMemory:
    def test_none_path_accumulates_without_file(self):
        journal = RunJournal(None)
        journal.emit("x")
        journal.close()
        assert journal.path is None
        assert [e["type"] for e in journal.events] == ["x", "run_end"]


class TestFileLifecycle:
    def test_staging_then_atomic_rename(self, tmp_path):
        target = tmp_path / "run.jsonl"
        journal = RunJournal(target)
        journal.emit("x")
        assert (tmp_path / "run.jsonl.part").exists()
        assert not target.exists()
        journal.close()
        assert target.exists()
        assert not (tmp_path / "run.jsonl.part").exists()

    def test_file_contents_round_trip(self, tmp_path):
        target = tmp_path / "run.jsonl"
        journal = RunJournal(target)
        journal.emit("x", value=1)
        journal.close(counters={"b": 2, "a": 1})
        lines = [json.loads(line)
                 for line in target.read_text().splitlines()]
        assert lines == journal.events
        assert lines[-1]["type"] == "run_end"
        assert lines[-1]["counters"] == {"a": 1, "b": 2}

    def test_directory_path_gets_default_name(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.close()
        assert journal.path == tmp_path / "journal.jsonl"
        assert journal.path.exists()

    def test_parent_directories_created(self, tmp_path):
        target = tmp_path / "deep" / "er" / "run.jsonl"
        RunJournal(target).close()
        assert target.exists()


class TestClose:
    def test_close_is_idempotent(self):
        journal = RunJournal(None)
        journal.close()
        before = len(journal.events)
        journal.close("failed", error="nope")
        assert len(journal.events) == before
        assert journal.events[-1]["status"] == "ok"

    def test_emit_after_close_raises(self):
        journal = RunJournal(None)
        journal.close()
        with pytest.raises(ConfigurationError):
            journal.emit("x")

    def test_run_end_counts_events(self):
        journal = RunJournal(None)
        journal.emit("x")
        journal.emit("y")
        journal.close()
        assert journal.events[-1]["events"] == 3

    def test_context_manager_success(self):
        with RunJournal(None) as journal:
            journal.emit("x")
        assert journal.events[-1]["status"] == "ok"

    def test_context_manager_failure_records_error(self):
        with pytest.raises(ValueError):
            with RunJournal(None) as journal:
                raise ValueError("boom")
        end = journal.events[-1]
        assert end["status"] == "failed"
        assert "ValueError" in end["error"]
        assert "boom" in end["error"]


class TestRunStart:
    def test_records_scenario_and_provenance(self):
        journal = RunJournal(None)
        event = journal.run_start(SCENARIO, jobs=2)
        assert event["seed"] == SCENARIO.seed
        assert event["fault_profile"] == SCENARIO.fault_profile
        assert event["jobs"] == 2
        assert isinstance(event["scenario"], dict)
        assert len(event["code_version"]) == 16

    def test_idempotent(self):
        journal = RunJournal(None)
        first = journal.run_start(SCENARIO)
        again = journal.run_start(SCENARIO)
        assert first is again
        assert len(journal.events) == 1


class TestMisc:
    def test_warn_emits_warning_event(self):
        journal = RunJournal(None)
        event = journal.warn("careful", phase="p")
        assert event["type"] == "warning"
        assert event["message"] == "careful"
        assert event["phase"] == "p"

    def test_echo_sees_every_event(self):
        seen = []
        journal = RunJournal(None, echo=seen.append)
        journal.emit("x")
        journal.close()
        assert [e["type"] for e in seen] == ["x", "run_end"]

    def test_canonical_events_strips_volatile_fields(self):
        journal = RunJournal(None)
        journal.emit("phase_end", phase="p", status="ok", wall_s=1.0)
        journal.close()
        for event in canonical_events(journal.events):
            assert not VOLATILE_FIELDS & set(event)
        # and keeps everything else
        assert canonical_events(journal.events)[0]["phase"] == "p"

    def test_canonical_events_drops_volatile_event_types(self):
        from repro.obs import VOLATILE_EVENT_TYPES

        assert {"chunk_spill", "live_tick"} <= VOLATILE_EVENT_TYPES
        journal = RunJournal(None)
        journal.emit("phase_begin", phase="p")
        journal.emit("chunk_spill", kind="cpu", shard=0, rows=64,
                     bytes=1024)
        journal.emit("live_tick", tick=0, active=3, down=0, admitted=1,
                     rejected=0)
        journal.emit("phase_end", phase="p", status="ok", wall_s=0.1)
        canonical = canonical_events(journal.events)
        assert [e["type"] for e in canonical] == ["phase_begin", "phase_end"]
        # seq is renumbered densely so streamed and in-core runs of the
        # same scenario canonicalise byte-identically.
        assert [e["seq"] for e in canonical] == [0, 1]

    def test_canonical_equality_across_streaming(self):
        """A run whose sink journals its shard spills and one whose
        default spill sink journals nothing canonicalise identically."""
        from repro.workload.generator import generate_nep_workload
        from repro.workload.streaming import WorkloadSink

        def run(streamed: bool) -> list[dict]:
            from repro.perf import PerfRegistry

            journal = RunJournal(None)
            perf = PerfRegistry(journal=journal)
            sink = WorkloadSink.spill(journal=journal) if streamed else None
            generate_nep_workload(SCENARIO, perf=perf, sink=sink)
            return canonical_events(journal.events)

        assert run(streamed=False) == run(streamed=True)
