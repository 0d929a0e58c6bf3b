"""Structured run observability: the journal, memory sampling, tracing.

At paper scale a study run spans minutes of generation, gigabytes of
cached artifacts, a process pool, and (optionally) injected fault
weather — and until this package existed the only windows into a run
were :class:`~repro.perf.PerfRegistry` span totals and ad-hoc prints.
``repro.obs`` gives every run a machine-readable provenance record:

* :class:`RunJournal` — a run-scoped JSON-Lines event log (run
  start/end with the full scenario, phase begin/end, cache
  hit/miss/store/evict, pool job dispatch/completion, fault-schedule
  summaries, warnings), written with the same staging + atomic-rename
  discipline as :class:`~repro.cache.ArtifactCache`;
* :mod:`repro.obs.trace` — a tolerant journal reader plus the
  renderers behind the ``repro trace show|summary|diff`` subcommand.

Journals are **deterministic modulo wall-clock fields**: strip the keys
in :data:`VOLATILE_FIELDS` (see :func:`canonical_events`) and two runs
of the same scenario produce byte-identical event streams, regardless
of ``--jobs`` or cache temperature on the *same* cache state.

Usage::

    from repro import EdgeStudy, Scenario
    from repro.obs import RunJournal, read_journal, render_summary

    with RunJournal("run/journal.jsonl") as journal:
        study = EdgeStudy(Scenario.smoke_scale(), journal=journal)
        study.latency_results
    events, warnings = read_journal("run/journal.jsonl")
    print(render_summary(events))
"""

from .journal import (
    VOLATILE_EVENT_TYPES,
    VOLATILE_FIELDS,
    RunJournal,
    canonical_events,
    merge_cell_journal,
)
from .trace import (
    JournalSummary,
    diff_journals,
    phase_breakdown,
    read_journal,
    render_show,
    render_summary,
    summarize_journal,
)

__all__ = [
    "JournalSummary",
    "RunJournal",
    "VOLATILE_EVENT_TYPES",
    "VOLATILE_FIELDS",
    "canonical_events",
    "diff_journals",
    "merge_cell_journal",
    "phase_breakdown",
    "read_journal",
    "render_show",
    "render_summary",
    "summarize_journal",
]
