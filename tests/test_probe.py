"""The CI gates in ``scripts/probe.py`` fail when their contract breaks,
including when the measurement they read is missing."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["probe"] = module
    spec.loader.exec_module(module)
    return module


def warm_events(phases, stored=()) -> list[dict]:
    """A warm journal: each phase served by a cache hit."""
    events = []
    for phase in phases:
        events.append({"type": "cache_hit", "artifact": phase})
        if phase in stored:
            events.append({"type": "cache_store", "artifact": phase})
        events.append({"type": "phase_begin", "phase": phase})
        events.append({"type": "phase_end", "phase": phase, "status": "ok",
                       "wall_s": 0.01})
    return events


class TestCampaign:
    def test_gate_fails_over_budget(self, probe, monkeypatch, capsys):
        monkeypatch.setattr(probe, "CAMPAIGN_REFERENCE_S", 1e-9)
        monkeypatch.setattr(probe, "CAMPAIGN_REPEATS", 1)
        assert probe.main(["campaign"]) == 1
        assert "probe: FAILED, campaign_latency regressed" \
            in capsys.readouterr().out

    def test_scenario_takes_no_options(self, probe):
        with pytest.raises(SystemExit):
            probe.main(["campaign", "--repeat", "1"])


class TestWarmCache:
    def test_all_phases_cached_passes(self, probe):
        probe.check_warm(warm_events(probe.PHASES))

    def test_missing_phase_fails(self, probe):
        phases = [p for p in probe.PHASES if p != "qoe_sessions"]
        with pytest.raises(probe.ProbeFailure, match="lacks.*qoe_sessions"):
            probe.check_warm(warm_events(phases))

    def test_stored_phase_fails(self, probe):
        events = warm_events(probe.PHASES, stored=("workload_azure",))
        with pytest.raises(probe.ProbeFailure,
                           match="regenerated: workload_azure"):
            probe.check_warm(events)

    def test_warm_reports_differing_from_cold_fail(self, probe, monkeypatch,
                                                   tmp_path):
        def run_journaled(argv, root, name, chaos=None):
            journal = root / f"{name}.jsonl"
            journal.write_text("".join(
                json.dumps(event) + "\n"
                for event in warm_events(probe.PHASES)
                + [{"type": "run_end"}]))
            return f"report of the {name} run\n".encode(), journal

        monkeypatch.setattr(probe, "run_journaled", run_journaled)
        with pytest.raises(probe.ProbeFailure, match="other reports"):
            probe.probe_warm_cache(None, tmp_path)


class TestEngines:
    def test_speedup_floor_fails(self, probe, monkeypatch, capsys):
        monkeypatch.setattr(probe, "QOE_SESSIONS", 500)
        monkeypatch.setattr(probe, "QOE_MIN_SPEEDUP", float("inf"))
        assert probe.main(["engines"]) == 1
        out = capsys.readouterr().out
        assert "digest equal to the scalar reference" in out
        assert "probe: FAILED, qoe speedup" in out

    def test_missing_rss_sample_fails(self, probe):
        with pytest.raises(probe.ProbeFailure, match="no peak_rss_mb.*live"):
            probe.within_rss_budget("live phase", {"live": {"wall_s": 1.0}},
                                    ("live",))
