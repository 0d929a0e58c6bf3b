"""The cache-key table checked against the fields each phase reads.

Each cached phase runs on a fresh, cache-less smoke study while every
read of a :class:`~repro.config.Scenario` field is recorded.  A read
outside the artifact's :data:`~repro.cache.ARTIFACT_FIELDS` entry means
two scenarios with one key could produce different results (the key is
incomplete); an entry field that no variant reads means reruns miss for
nothing (the key is not minimal).  The studies run without a journal or
a cache, which serialise every field, and at ``jobs=1``, because forked
workers would read out of sight.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import ARTIFACT_FIELDS
from repro.config import Scenario
from repro.study import EdgeStudy, scenario_for

#: Cached artifact -> the :class:`EdgeStudy` attribute whose phase
#: produces it.
PHASES = {"workload_nep": "nep", "workload_azure": "azure",
          "campaign_latency": "latency_results",
          "campaign_throughput": "throughput_results",
          "qoe_sessions": "qoe_sessions", "live": "live"}

#: Overrides that steer the phases down each of their branches.
VARIANTS = ({}, {"fault_profile": "paper"}, {"fault_profile": "harsh"},
            {"qoe_cache_eviction": "ttl"}, {"qoe_abr": "buffer"},
            {"live_autoscale": "off"})

FIELDS = frozenset(spec.name for spec in dataclasses.fields(Scenario))


def fields_read(artifact: str, overrides: dict) -> set[str]:
    """The scenario fields a cold run of ``artifact``'s phase reads."""
    study = EdgeStudy(scenario_for("smoke", overrides=overrides), jobs=1)
    reads: set[str] = set()

    def recording(self, name):
        if name in FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scenario, "__getattribute__", recording)
        getattr(study, PHASES[artifact])
    return reads


def test_every_cached_phase_is_listed():
    assert set(ARTIFACT_FIELDS) == set(PHASES)


@pytest.mark.parametrize("artifact", sorted(PHASES))
def test_key_covers_exactly_the_fields_read(artifact):
    entry = set(ARTIFACT_FIELDS[artifact])
    union: set[str] = set()
    for overrides in VARIANTS:
        reads = fields_read(artifact, overrides)
        assert reads <= entry, (
            f"{artifact} under {overrides} reads {sorted(reads - entry)}, "
            "which its key does not cover")
        union |= reads
    assert union == entry, (
        f"{artifact}'s key covers {sorted(entry - union)}, "
        "which no run reads")
