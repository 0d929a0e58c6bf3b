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
    "paper": "fe9cf3299e016ce22209ee6577a20664ec1f6abf492eea20ad295a26a9bced59",
    "off": "5656370bf7d7c2016cec11f4eb48d22e6b089311ad70911adaae4483762bfb5a",
    "cold": "c7977af104270fbf9f219e36b538c71ab0d485c166fa207d66397f3d57203b7a",
    "warm": "5fb6fc7bafba59cf436e29518bbe2a260aff4be1b5b780e35ec36588f1144bf7",
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
