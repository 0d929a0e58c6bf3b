"""Stateful model test of the artifact cache (repro.cache).

A hypothesis state machine interleaves stores, loads, clears, torn
files, ``verify --repair`` and armed failpoints against a plain-dict
model of what was committed.  The invariants:

* a get returns ``None`` or exactly the committed value (series bytes
  equal) and never raises;
* a workload store whose shard writes fail raises (the generating run
  cannot serve series it never wrote); one whose commit fails serves
  its series uncached and raises nothing;
* no ``.tmp-*`` staging directory, and no detached spill once its
  series are released, outlives a store, failed or not;
* ``verify`` reports problems only for entries a rule damaged.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.core.chunks import iter_series_chunks
from repro.errors import InjectedFault
from repro.resilience import RetryPolicy, install, reset
from repro.study import study_for

from .test_cache import store_workload

SCENARIO = Scenario.smoke_scale()
OBJECT_NAMES = ("obj-a", "obj-b")
WORKLOAD_NAMES = ("wl-a", "wl-b", "wl-c")
SITES = ("cache.commit", "cache.read", "shard.write")


def series_digest(workload) -> str:
    """sha256 over the VM order and every series row, in store order."""
    ds = workload.dataset
    digest = hashlib.sha256()
    for series in (ds.cpu_series, ds.bw_series, ds.bw_private_series):
        digest.update(repr(list(series)).encode())
        for _, window in iter_series_chunks(series):
            digest.update(window.tobytes())
    return digest.hexdigest()


class CacheModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.workload = study_for("smoke").nep
        self.workload_digest = series_digest(self.workload)
        self.root = tempfile.mkdtemp(prefix="cache-model-")
        self.cache = ArtifactCache(self.root)
        # Failed commits retry; zero backoff keeps each example fast.
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(RetryPolicy, "delay", lambda *_args: 0.0)
        reset()
        #: artifact -> committed value (object) or ``None`` (workload).
        self.committed: dict[str, object] = {}
        #: Committed artifacts with a torn file on disk.
        self.damaged: set[str] = set()
        self.armed: set[str] = set()

    def teardown(self) -> None:
        reset()
        self.patch.undo()
        shutil.rmtree(self.root, ignore_errors=True)

    def _entry(self, name: str):
        return self.cache._entry_dir(self.cache.key(name, SCENARIO))

    def _forget(self, name: str) -> None:
        self.committed.pop(name, None)
        self.damaged.discard(name)

    # ---- stores --------------------------------------------------------

    @rule(name=st.sampled_from(OBJECT_NAMES),
          value=st.lists(st.integers(), max_size=5))
    def put_object(self, name, value):
        self.cache.put_object(name, SCENARIO, value)
        if name not in self.committed and "cache.commit" not in self.armed:
            self.committed[name] = value

    @rule(name=st.sampled_from(WORKLOAD_NAMES))
    def put_workload(self, name):
        # A workload reaches the cache only through the sink of a run
        # that missed (EdgeStudy's load-or-render).
        if self._load_workload(name) is not None:
            return
        try:
            stored = store_workload(self.cache, name, self.workload)
        except InjectedFault:
            assert "shard.write" in self.armed
            return
        assert "shard.write" not in self.armed
        assert series_digest(stored) == self.workload_digest
        if "cache.commit" not in self.armed:
            self.committed[name] = None

    # ---- loads ---------------------------------------------------------

    @rule(name=st.sampled_from(OBJECT_NAMES))
    def get_object(self, name):
        value = self.cache.get_object(name, SCENARIO)
        if value is None:
            assert (name not in self.committed or name in self.damaged
                    or "cache.read" in self.armed)
            self._forget(name)
        else:
            assert name in self.committed
            assert value == self.committed[name]

    @rule(name=st.sampled_from(WORKLOAD_NAMES))
    def get_workload(self, name):
        self._load_workload(name)

    def _load_workload(self, name):
        loaded = self.cache.get_workload(name, SCENARIO)
        if loaded is None:
            assert (name not in self.committed or name in self.damaged
                    or "cache.read" in self.armed)
            self._forget(name)
        else:
            assert name in self.committed
            assert series_digest(loaded) == self.workload_digest
            assert list(loaded.dataset.vms) == list(self.workload.dataset.vms)
        return loaded

    # ---- maintenance and damage ----------------------------------------

    @rule()
    def clear(self):
        self.cache.clear()
        self.committed.clear()
        self.damaged.clear()
        assert self.cache.entries() == []

    @precondition(lambda self: self.committed)
    @rule(data=st.data())
    def tear_a_file(self, data):
        name = data.draw(st.sampled_from(sorted(self.committed)))
        files = sorted(p for p in self._entry(name).rglob("*") if p.is_file())
        victim = data.draw(st.sampled_from(files))
        victim.write_bytes(victim.read_bytes()[:victim.stat().st_size // 2])
        self.damaged.add(name)

    def _damaged_keys(self) -> dict[str, str]:
        return {self.cache.key(name, SCENARIO): name for name in self.damaged}

    @rule()
    def verify_and_repair(self):
        damaged = self._damaged_keys()
        report = self.cache.verify(repair=True)
        assert {row["key"] for row in report["problems"]} == set(damaged)
        for name in damaged.values():
            self._forget(name)
        assert report["ok"] == len(self.committed)

    @rule(site=st.sampled_from(SITES))
    def toggle_failpoint(self, site):
        self.armed ^= {site}
        install(";".join(f"{s}:p=1" for s in sorted(self.armed)))

    # ---- invariants ----------------------------------------------------

    @invariant()
    def no_staging_left_behind(self):
        assert not list(self.cache.root.glob(".tmp-*"))
        assert not list(self.cache.root.glob("repro-spill-*"))

    @invariant()
    def undamaged_entries_verify_clean(self):
        report = self.cache.verify(deep=False)
        flagged = {row["key"] for row in report["problems"]}
        assert flagged <= set(self._damaged_keys())


TestCacheModel = CacheModel.TestCase
TestCacheModel.settings = settings(max_examples=60,
                                   stateful_step_count=20, deadline=None)
