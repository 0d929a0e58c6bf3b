"""The benchmark's four workloads: inputs, timed section, digest and checks.

Every workload is closed-loop: one caller drives one batch job to
completion.  Its inputs are a :class:`~repro.config.Scenario` built from
the ``--seed`` argument alone; the library sees nothing else.  Each
workload is a class whose constructor is the set-up (outside the timed
section), whose :meth:`run` is the timed section, and whose
:meth:`digest` and :meth:`checks` run afterwards, outside the timing.

``repro`` is imported inside the constructors, never at module import,
so a child process's set-up time includes the library import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

#: ``repro.config.DEFAULT_SCENARIO.seed``; ``expected.json`` pins every
#: workload's digest for it (``test_bench.py`` checks the two agree).
DEFAULT_SEED = 20211102

#: Worker processes for the parallel workloads: at most 2, the core count
#: of the host the baseline was recorded on.
JOBS = min(2, os.cpu_count() or 1)

#: Sizes of the reduced scenarios.  They keep every layer a workload is
#: meant to exercise busy while one iteration stays a few seconds long,
#: so a run of a few iterations fits the benchmark's time budget.
REPORTS_OVERRIDES = {"nep_vm_count": 400, "azure_vm_count": 400,
                     "participant_count": 80}
#: The trace keeps the paper's 1-minute CPU resolution but trades its 92
#: days for many VMs: app sizes are heavy-tailed, and with a small VM
#: budget one app can own most of the trace, so the seed alone moved
#: peak RSS (the shared-memory ring is sized by the largest app's block)
#: and wall time (one worker renders that app alone) by up to a third.
TRACE_OVERRIDES = {"nep_vm_count": 1200, "azure_vm_count": 1200,
                   "trace_days": 11}
ENGINES_OVERRIDES = {"qoe_session_count": 4 * 65_536, "live_ticks": 1440,
                     "live_arrival_rate": 60.0}

#: Reports the ``trace-analyze`` workload runs over the warm cache.
ANALYZE_REPORTS = ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                   "table3", "sales", "categories")


def _attempt(operations: list[dict], name: str, fn: Callable[[], object],
             span=None) -> object:
    """Run one operation (inside ``span``), recording it as failed when it
    raises."""
    try:
        with span if span is not None else nullcontext():
            result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is data
        operations.append({"name": name,
                           "error": f"{type(exc).__name__}: {exc}"})
        return None
    operations.append({"name": name, "error": None})
    return result


def _check(operations: list[dict], name: str, ok: bool, detail: str) -> None:
    operations.append({"name": name, "error": None if ok else detail})


class _ReportSet:
    """A workload whose timed section is a list of reports on one study."""

    reports: dict[str, Callable]
    study: object
    texts: dict[str, str | None]

    def run(self, span=None) -> list[dict]:
        operations: list[dict] = []
        for name, report in self.reports.items():
            self.texts[name] = _attempt(
                operations, name, lambda report=report: report(self.study),
                span=None if span is None else span(f"report.{name}"))
        return operations

    def digest(self) -> str:
        """sha256 over the concatenated report texts."""
        digest = hashlib.sha256()
        for name, text in self.texts.items():
            digest.update(f"## {name}\n{text}\n".encode())
        return digest.hexdigest()


class Reports(_ReportSet):
    """Every paper report on a fresh in-core study: what a reader pays.

    Every analysis layer is busy and ``fig14`` (LSTM, Holt-Winters)
    dominates; the worker pool, the shards and the cache are bypassed.
    """

    name = "reports"

    def __init__(self, seed: int, cache_dir: Path, journal=None) -> None:
        from repro.reports import REPORTS
        from repro.study import EdgeStudy, scenario_for

        self.reports = {name: fn for name, fn in REPORTS.items()
                        if name != "availability"}
        self.study = EdgeStudy(
            scenario_for("default", seed, overrides=REPORTS_OVERRIDES),
            jobs=1, journal=journal, streaming="off")
        self.texts = {}

    def checks(self) -> list[dict]:
        return []


class TraceRender:
    """Paper-resolution series (92 d, 1-min CPU) rendered cold into a cache.

    Series kernels, the worker pool's handoff, shard writes and the
    cache commit do the work; prediction and the engines do none.
    """

    name = "trace-render"

    def __init__(self, seed: int, cache_dir: Path, journal=None) -> None:
        from repro.cache import ArtifactCache
        from repro.study import EdgeStudy, scenario_for

        self.cache = ArtifactCache(cache_dir)
        self.study = EdgeStudy(
            scenario_for("paper", seed, overrides=TRACE_OVERRIDES),
            jobs=JOBS, cache=self.cache, journal=journal, streaming="on")

    def run(self, span=None) -> list[dict]:
        operations: list[dict] = []
        _attempt(operations, "workload_nep", lambda: self.study.nep)
        _attempt(operations, "workload_azure", lambda: self.study.azure)
        return operations

    def digest(self) -> str:
        """sha256 over every committed entry's per-shard checksums."""
        from repro.shards import read_shard_index

        digest = hashlib.sha256()
        for entry in sorted(self.cache.entries(), key=lambda e: e.artifact):
            layouts = read_shard_index(entry.path)
            for kind in sorted(layouts):
                layout = layouts[kind]
                digest.update(f"{entry.artifact}/{kind}/{layout.rows}x"
                              f"{layout.points}:".encode())
                digest.update(",".join(layout.checksums).encode())
        return digest.hexdigest()

    def checks(self) -> list[dict]:
        operations: list[dict] = []
        report = self.cache.verify(deep=True)
        _check(operations, "cache-verify-deep",
               report["checked"] == 2 and not report["problems"],
               f"verify found {report['problems']} in {report['checked']} "
               "entries")
        return operations


class TraceAnalyze(_ReportSet):
    """The ``trace-render`` scenario's analyses over memory-mapped shards.

    The read side of the cache and the shards: warm loads plus the
    chunked reductions of :mod:`repro.core.chunks`; nothing renders.
    """

    name = "trace-analyze"

    def __init__(self, seed: int, cache_dir: Path, journal=None) -> None:
        from repro.cache import ArtifactCache
        from repro.reports import REPORTS
        from repro.study import EdgeStudy, scenario_for

        self.reports = {name: REPORTS[name] for name in ANALYZE_REPORTS}
        self.study = EdgeStudy(
            scenario_for("paper", seed, overrides=TRACE_OVERRIDES),
            jobs=1, cache=ArtifactCache(cache_dir), journal=journal)
        self.texts = {}

    def checks(self) -> list[dict]:
        operations: list[dict] = []
        counters = self.study.perf.counters
        cold = [name for name in ("workload_nep", "workload_azure")
                if not counters.get(f"cache_hit:{name}")]
        _check(operations, "warm-load", not cold,
               f"regenerated instead of loading: {cold}")
        return operations


class Engines:
    """The vectorized QoE session and live-fleet engines at volume.

    ``repro.qoe``, ``repro.cdn`` and ``repro.live`` do the work, with
    session chunks farmed out through ``TaskFarm``; nothing renders.
    """

    name = "engines"

    #: Slice sizes the scalar reference engines replay.
    REFERENCE_SESSIONS = 300
    REFERENCE_TICKS = 60

    def __init__(self, seed: int, cache_dir: Path, journal=None) -> None:
        from repro.study import EdgeStudy, scenario_for

        self.scenario = scenario_for("default", seed,
                                     overrides=ENGINES_OVERRIDES)
        self.study = EdgeStudy(self.scenario, jobs=JOBS, journal=journal)
        self.qoe = self.live = None

    def run(self, span=None) -> list[dict]:
        operations: list[dict] = []
        self.qoe = _attempt(operations, "qoe_sessions",
                            lambda: self.study.qoe_sessions)
        self.live = _attempt(operations, "live", lambda: self.study.live)
        return operations

    def digest(self) -> str:
        parts = [f"qoe:{arm}:{result.digest}"
                 for arm, result in sorted(self.qoe.arms.items())]
        parts.append(f"live:{self.live.digest}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def checks(self) -> list[dict]:
        """The scalar reference engines agree with the vectorized ones."""
        from repro.cdn import CdnModel
        from repro.live import (build_live_inputs, run_live_engine,
                                run_reference_engine)
        from repro.platform.nep import build_nep_platform
        from repro.qoe import (SessionDigest, build_session_workload,
                               run_sessions, simulate_reference)

        operations: list[dict] = []
        workload = build_session_workload(self.scenario,
                                          model=CdnModel(self.scenario))
        sliced = dataclasses.replace(workload,
                                     n_sessions=self.REFERENCE_SESSIONS)
        reference = SessionDigest()
        reference.update(simulate_reference(sliced, "edge"))
        _check(operations, "qoe-reference",
               reference.hexdigest() == run_sessions(sliced, "edge").digest,
               "scalar QoE reference differs from the vectorized engine")

        inputs = build_live_inputs(self.scenario,
                                   build_nep_platform(self.scenario))
        ticks = self.REFERENCE_TICKS
        prefix = dataclasses.replace(
            inputs, ticks=ticks, arrivals=inputs.arrivals[:ticks],
            transitions=tuple(t for t in inputs.transitions if t[0] < ticks))
        _check(operations, "live-reference",
               run_reference_engine(prefix).digest
               == run_live_engine(prefix).digest,
               "scalar live reference differs from the vectorized engine")
        return operations


WORKLOADS = {cls.name: cls for cls in (Reports, TraceRender, TraceAnalyze,
                                       Engines)}
