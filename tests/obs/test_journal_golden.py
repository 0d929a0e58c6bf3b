"""Golden canonical journals: the event stream of a smoke study, pinned.

Each case drives the same phases through :meth:`EdgeStudy.try_phase`
and hashes the canonical journal.  ``code_version`` and the cache
``key`` (which embeds it) change with every source edit, so they are
popped before hashing; everything else — event order, phase outcomes,
error strings, cache hits and stores, counters — is pinned.  A digest
change means a run now tells a different story, whatever the cause.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cache import ArtifactCache
from repro.obs import RunJournal, canonical_events
from repro.study import EdgeStudy, scenario_for

#: Phases driven in order; with faults off, failover and availability fail.
PHASES = ("nep", "azure", "alicloud", "faults", "failover", "availability",
          "qoe_sessions", "live")

GOLDEN = {
    "paper": "2d201c29215fd63220e7408589370ef6dce48f018335dbf217133b1a0746e855",
    "off": "e3f2cee0c1576a41ab9f2d217ac748c736664318dc24939cc28666fe2b188673",
    "cold": "9bc3c081ca092c7eb75e76a0c1579c6a74ccc543c2a32a0141608f25129dd7df",
    "warm": "839fbfd0abeaf1a55cc08357e068bdf47da89dbda423b296519df52549681229",
}


def journal_digest(faults: str, jobs: int,
                   cache: ArtifactCache | None = None) -> str:
    """sha256 of the canonical journal of one driven smoke study."""
    journal = RunJournal(None)
    study = EdgeStudy(scenario_for("smoke", faults=faults), jobs=jobs,
                      cache=cache, journal=journal)
    for phase in PHASES:
        study.try_phase(phase)
    journal.close(counters=study.perf.counters or None)
    events = canonical_events(journal.events)
    for event in events:
        event.pop("code_version", None)
        event.pop("key", None)
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
class TestGoldenJournal:
    def test_faults_paper_no_cache(self, jobs):
        assert journal_digest("paper", jobs) == GOLDEN["paper"]

    def test_faults_off_no_cache(self, jobs):
        assert journal_digest("off", jobs) == GOLDEN["off"]

    def test_cold_then_warm_cache(self, jobs, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert journal_digest("paper", jobs, cache) == GOLDEN["cold"]
        assert journal_digest("paper", jobs, cache) == GOLDEN["warm"]
