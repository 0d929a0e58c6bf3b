"""End-to-end tests for `--log-json` and the `repro trace` subcommand."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import read_journal


@pytest.fixture()
def journal_path(tmp_path):
    """A journal produced by a real smoke-scale CLI run."""
    path = tmp_path / "run.jsonl"
    code = main(["run", "fig2a", "table3", "--log-json", str(path),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    return path


class TestParser:
    def test_log_json_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig3", "--log-json", "out.jsonl"])
        assert str(args.log_json) == "out.jsonl"

    def test_verbose_quiet_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "-v", "-q"])

    def test_trace_subcommand(self):
        args = build_parser().parse_args(["trace", "summary", "a.jsonl"])
        assert args.action == "summary"


class TestLogJson(object):
    def test_journal_accounts_for_the_run(self, journal_path):
        events, warnings = read_journal(journal_path)
        assert warnings == []
        types = [e["type"] for e in events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        assert events[-1]["status"] == "ok"
        assert "counters" in events[-1]
        # every phase opened is closed
        begun = [e["phase"] for e in events if e["type"] == "phase_begin"]
        ended = [e["phase"] for e in events if e["type"] == "phase_end"]
        assert begun and begun == ended
        # every cache miss at smoke scale is followed by a store
        missed = {e["artifact"] for e in events if e["type"] == "cache_miss"}
        stored = {e["artifact"] for e in events if e["type"] == "cache_store"}
        assert missed == stored
        # every dispatched pool job completes
        dispatched = [e["app_id"] for e in events
                      if e["type"] == "job_dispatch"]
        completed = [e["app_id"] for e in events
                     if e["type"] == "job_complete"]
        assert sorted(dispatched) == sorted(completed)

    def test_failed_experiment_marks_run_failed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        # fig14 needs a 28-day trace; smoke has 7 -> the experiment fails
        # but the journal must still close cleanly with status=failed.
        code = main(["run", "fig14", "--log-json", str(path),
                     "--no-cache"])
        assert code == 1
        events, _ = read_journal(path)
        end = events[-1]
        assert end["type"] == "run_end"
        assert end["status"] == "failed"
        assert "fig14" in end["error"]
        assert any(e["type"] == "warning" for e in events)


class TestTrace:
    def test_summary_renders_all_phases(self, journal_path, capsys):
        assert main(["trace", "summary", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        for phase in ("workload_nep", "platform_alicloud",
                      "campaign_latency"):
            assert phase in out
        assert "cache:" in out
        assert "pool:" in out

    def test_show_respects_limit(self, journal_path, capsys):
        assert main(["trace", "show", str(journal_path),
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6  # elision marker + 5 events
        assert "run_end" in out[-1]

    def test_diff_of_cold_and_warm(self, journal_path, tmp_path, capsys):
        warm = tmp_path / "warm.jsonl"
        assert main(["run", "fig2a", "table3", "--log-json", str(warm),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert main(["trace", "diff", str(journal_path), str(warm)]) == 0
        out = capsys.readouterr().out
        assert "generated -> hit" in out

    def test_diff_reports_phase_timings(self, tmp_path, capsys):
        # Same scenario at two --jobs settings: canonical journals agree,
        # but every phase still gets a numeric wall-time delta.
        runs = []
        for jobs in ("1", "2"):
            runs.append(str(tmp_path / f"jobs{jobs}.jsonl"))
            assert main(["run", "fig2a", "--no-cache", "--jobs", jobs,
                         "--log-json", runs[-1], "-q"]) == 0
        assert main(["trace", "diff", *runs]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("result: no behavioural differences")
        for phase in ("workload_nep", "campaign_latency"):
            line = next(line for line in out.splitlines()
                        if line.strip().startswith(phase))
            assert re.search(r"[+-]\d+\.\d{3}s", line), line

    def test_diff_requires_two_journals(self, journal_path, capsys):
        assert main(["trace", "diff", str(journal_path)]) == 2
        assert "exactly 2" in capsys.readouterr().err

    def test_summary_requires_one_journal(self, journal_path, capsys):
        assert main(["trace", "summary", str(journal_path),
                     str(journal_path)]) == 2

    def test_missing_journal_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_truncated_journal_tolerated(self, journal_path, capsys):
        text = journal_path.read_text()
        journal_path.write_text(text[:-40])  # kill the run_end mid-line
        assert main(["trace", "summary", str(journal_path)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "status=unknown" in captured.out

    def test_corrupt_line_tolerated(self, journal_path, capsys):
        lines = journal_path.read_text().splitlines()
        lines[3] = '{"broken":'
        journal_path.write_text("\n".join(lines) + "\n")
        assert main(["trace", "show", str(journal_path)]) == 0
        assert "corrupt" in capsys.readouterr().err


class TestVerboseEcho:
    def test_verbose_streams_events_to_stderr(self, tmp_path, capsys):
        assert main(["info", "--no-cache", "-v"]) == 0
        err = capsys.readouterr().err
        assert "run_start" in err
        assert "run_end" in err
