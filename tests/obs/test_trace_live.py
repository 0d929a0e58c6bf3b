"""`repro trace diff` on live-engine journals (the replay/diff story).

Pins the contract from docs/live.md: two live runs that differ only in
volatile events (here a retried cache commit) diff clean, while a
fault-interleaved run diverges from a clean one at exactly the first
fault tick.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.obs import read_journal
from repro.resilience import install, reset

TICKS = 200


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Three real live runs, each on its own cold cache: clean, with the
    live entry's first cache commit failing (and retried), and with
    faults.

    Module-scoped (the engine steps 200 ticks each); the failpoint is
    reset manually because monkeypatch is function-scoped.
    """
    root = tmp_path_factory.mktemp("trace-live")
    paths = {"clean": root / "clean.jsonl", "chaos": root / "chaos.jsonl",
             "faulted": root / "faulted.jsonl"}

    def live(name, *extra):
        assert main(["run", "live", "--scale", "smoke",
                     "--ticks", str(TICKS),
                     "--cache-dir", str(root / f"{name}-cache"),
                     "--log-json", str(paths[name]), *extra]) == 0

    live("clean")
    install("cache.commit:nth=1")
    try:
        live("chaos")
    finally:
        reset()
    live("faulted", "--faults", "paper")
    return paths


class TestVolatileOnlyDrift:
    def test_chaos_run_actually_retried(self, runs):
        # the pair differs in volatile events — the diff below is not
        # vacuously empty
        events, warnings = read_journal(runs["chaos"])
        assert warnings == []
        assert any(e["type"] == "cache_retry" for e in events)

    def test_canonical_diff_is_clean(self, runs, capsys):
        assert main(["trace", "diff", str(runs["clean"]),
                     str(runs["chaos"])]) == 0
        out = capsys.readouterr().out
        assert "result: no behavioural differences" in out
        assert "cache_retry" not in out

    def test_raw_diff_keeps_the_chaos_story(self, runs, capsys):
        assert main(["trace", "diff", "--raw", str(runs["clean"]),
                     str(runs["chaos"])]) == 0
        out = capsys.readouterr().out
        assert "cache_retry" in out

    def test_raw_flag_parses(self):
        args = build_parser().parse_args(
            ["trace", "diff", "--raw", "a.jsonl", "b.jsonl"])
        assert args.raw is True


class TestFaultDivergence:
    def test_diff_localizes_first_fault_tick(self, runs, capsys):
        events, _ = read_journal(runs["faulted"])
        fault_ticks = [e["tick"] for e in events
                       if e["type"] == "live_fault"]
        assert fault_ticks  # paper weather produced faults in 200 ticks
        assert main(["trace", "diff", str(runs["clean"]),
                     str(runs["faulted"])]) == 0
        out = capsys.readouterr().out
        assert "result: behavioural differences found" in out
        assert (f"live: fault timeline diverges at tick "
                f"{min(fault_ticks)}") in out

    def test_diff_reports_digest_change(self, runs, capsys):
        assert main(["trace", "diff", str(runs["clean"]),
                     str(runs["faulted"])]) == 0
        assert "live: series digest" in capsys.readouterr().out

    def test_summary_renders_live_rollup(self, runs, capsys):
        assert main(["trace", "summary", str(runs["faulted"])]) == 0
        out = capsys.readouterr().out
        assert "live:" in out
        assert f"{TICKS} ticks" in out
