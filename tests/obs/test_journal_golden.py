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
    "paper": "b8be3e1e31500524b624270e70b37932e55a90e4da6264dd6c054f99a08c4979",
    "off": "86572faf45cb7b5ae613a62c9d7f6133d0cc410e816a25f8824aa85459304f16",
    "cold": "bdbb6e2c101841ef6f46b16b24ebac2b10143424c250cc221ad096fa97318e07",
    "warm": "8152b04e48976625ca22806a86bfe66c6e48c86e2beac6ecc4110f7851efe54c",
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
