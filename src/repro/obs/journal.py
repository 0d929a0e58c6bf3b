"""The run journal: a JSON-Lines event log of one study run.

Every event is one JSON object per line with three envelope fields —
``seq`` (a dense 0-based sequence number), ``t`` (Unix wall-clock
seconds), and ``type`` — plus type-specific payload fields.  The event
vocabulary is documented in ``docs/observability.md``; the emitters are
spread across the library (:class:`~repro.study.EdgeStudy`,
:class:`~repro.perf.PerfRegistry` for spans and phases,
:class:`~repro.cache.ArtifactCache`, :mod:`repro.parallel`,
:class:`~repro.measurement.campaign.CrowdCampaign`).

Determinism contract
--------------------

A journal must be a pure function of the scenario (and cache state),
*except* for the wall-clock-shaped fields listed in
:data:`VOLATILE_FIELDS` — timestamps, durations, memory samples, and
execution knobs like worker counts that change speed but not results.
:func:`canonical_events` strips them; the determinism suite asserts
that canonical journals are identical across repeats and ``--jobs``
settings.  Emitters must therefore never include host names, absolute
paths, PIDs, or iteration order that depends on completion timing in
any non-volatile field.

Write discipline
----------------

Like :class:`~repro.cache.ArtifactCache`, the journal never exposes a
half-written artifact under its final name: events are appended (and
flushed per line) to ``<path>.part`` while the run is live, and
:meth:`RunJournal.close` renames the staging file into place with
:func:`os.replace`.  A run killed mid-flight leaves a ``.part`` file —
still readable by ``repro trace``, whose reader tolerates a truncated
final line — and never a corrupt ``journal.jsonl``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

from ..errors import ConfigurationError

#: Event fields that may differ between two runs of the same scenario:
#: wall-clock times, durations, memory samples, and execution knobs
#: (worker counts, host core counts) that affect speed, not results.
#: ``events`` (run_end's raw-event tally) counts volatile event types
#: too, which makes the tally itself transport-dependent.
VOLATILE_FIELDS = frozenset({
    "t", "wall_s", "cpu_s", "rss_mb", "peak_rss_mb", "bytes",
    "jobs", "workers", "cpu_count", "pid", "events",
})

#: Event *types* that exist only because of execution knobs — shard
#: spills (``chunk_spill``) and per-tick live-engine telemetry
#: (``live_tick``, one per simulated tick) — or because of *recovery*:
#: retries, worker restarts, and quarantines exist only when a
#: failpoint fired or the host misbehaved.  Recovery changes when work
#: happens, never what it produces, so the canonical view drops the
#: whole event rather than individual fields; that is what makes a
#: ``--chaos`` run canonicalize bit-identical to a clean one.
VOLATILE_EVENT_TYPES = frozenset({
    "chunk_spill", "session_chunk",
    "live_tick",
    "job_retry", "worker_restart", "job_quarantined",
    "cache_retry", "cache_write_error",
})

#: Default journal file name when a directory is given.
JOURNAL_NAME = "journal.jsonl"

#: Event types that get an automatic memory sample attached.
_SAMPLED_EVENTS = frozenset({"phase_end", "run_end"})

#: ``/proc/self/status`` field name -> journal field name.
_PROC_FIELDS = {"VmRSS": "rss_mb", "VmHWM": "peak_rss_mb"}


def _memory_sample() -> dict[str, float]:
    """``{"rss_mb": ..., "peak_rss_mb": ...}`` of this process, in MiB.

    Parses ``VmRSS`` / ``VmHWM`` out of ``/proc/self/status`` on Linux;
    elsewhere falls back to :func:`resource.getrusage`, which only
    knows the peak, and finally to zeros — sampling must never be the
    thing that breaks a run.
    """
    try:
        with open("/proc/self/status") as handle:
            lines = handle.read().splitlines()
    except OSError:
        lines = []
    sample: dict[str, float] = {}
    for line in lines:
        key, _, rest = line.partition(":")
        parts = rest.split()
        if key in _PROC_FIELDS and parts and parts[0].isdigit():  # "<kB> kB"
            sample[_PROC_FIELDS[key]] = round(int(parts[0]) / 1024.0, 3)
    if len(sample) == len(_PROC_FIELDS):
        return sample
    return _rusage_sample()


def _rusage_sample() -> dict[str, float]:
    """Peak RSS via ``getrusage`` (current RSS is not available there)."""
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # pragma: no cover - non-POSIX platforms
        return {"rss_mb": 0.0, "peak_rss_mb": 0.0}
    # ru_maxrss is KiB on Linux, bytes on macOS; normalise heuristically.
    if peak_kb > 1 << 32:  # pragma: no cover - macOS byte counts
        peak_kb //= 1024
    peak_mb = round(peak_kb / 1024.0, 3)
    return {"rss_mb": peak_mb, "peak_rss_mb": peak_mb}


def canonical_events(events: list[dict]) -> list[dict]:
    """The deterministic view of a journal: volatile fields stripped.

    Two runs of the same scenario against the same cache state produce
    equal canonical event lists regardless of wall-clock, memory, or
    ``--jobs`` differences.  Volatile event types are dropped entirely
    and ``seq`` renumbered densely, so the canonical stream is also
    stable across transport choices that add telemetry events.
    """
    canonical = []
    for event in events:
        if event.get("type") in VOLATILE_EVENT_TYPES:
            continue
        kept = {key: value for key, value in event.items()
                if key not in VOLATILE_FIELDS}
        if "seq" in kept:
            kept["seq"] = len(canonical)
        canonical.append(kept)
    return canonical


def merge_cell_journal(journal: "RunJournal", cell: str,
                       events: list[dict]) -> dict:
    """Fold one cell's journal into a sweep-level journal.

    Re-emits a condensed view of the cell run — ``cell_start`` (seed and
    fault profile from the cell's ``run_start``), one ``cell_phase`` per
    ``phase_end`` (name, status, wall seconds), and ``cell_end``
    (status, error, perf counters from ``run_end``) — each tagged with
    the cell name.  The full per-cell journal stays on disk
    next to the cell's results; the sweep journal carries just enough to
    reconstruct the campaign timeline from one file.  Returns the
    ``cell_end`` event.
    """
    start = next((e for e in events if e.get("type") == "run_start"), None)
    end = next((e for e in reversed(events)
                if e.get("type") == "run_end"), None)
    header: dict[str, object] = {"cell": cell}
    if start is not None:
        header["seed"] = start.get("seed")
        header["fault_profile"] = start.get("fault_profile")
    journal.emit("cell_start", **header)
    for event in events:
        if event.get("type") != "phase_end":
            continue
        fields: dict[str, object] = {
            "cell": cell, "phase": event.get("phase"),
            "status": event.get("status", "ok"),
        }
        for key in ("wall_s", "error"):
            if key in event:
                fields[key] = event[key]
        journal.emit("cell_phase", **fields)
    footer: dict[str, object] = {
        "cell": cell,
        "status": end.get("status", "failed") if end else "failed",
    }
    if end is not None:
        if "error" in end:
            footer["error"] = end["error"]
        if "counters" in end:
            footer["counters"] = end["counters"]
        if "wall_s" in end:
            footer["wall_s"] = end["wall_s"]
    return journal.emit("cell_end", **footer)


class RunJournal:
    """Collects and persists the structured event stream of one run.

    ``path`` may be a file path, a run directory (the journal lands at
    ``<dir>/journal.jsonl``), or ``None`` for an in-memory journal
    (events are still accumulated in :attr:`events` — the form the
    benchmark harness uses).  ``echo`` is an optional callable invoked
    with each event dict as it is emitted; the CLI's ``-v`` wires it to
    a stderr printer.

    A journal is single-process and not thread-safe by design: worker
    processes report through :meth:`PerfRegistry.merge
    <repro.perf.PerfRegistry.merge>` and parent-side events instead of
    writing here directly, which is what keeps ``--jobs N`` journals
    identical to serial ones.
    """

    def __init__(self, path: str | Path | None, *,
                 echo: Callable[[dict], None] | None = None) -> None:
        self.events: list[dict] = []
        self.echo = echo
        self.closed = False
        self._seq = 0
        self._run_started = False
        self.path: Path | None = None
        self._staging: Path | None = None
        self._handle = None
        if path is not None:
            target = Path(path)
            if target.is_dir():
                target = target / JOURNAL_NAME
            self.path = target
            self._staging = target.with_name(target.name + ".part")
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._staging.open("w", encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot write run journal {target}: "
                    f"{exc.strerror}") from exc

    # ---- emission --------------------------------------------------------

    def emit(self, etype: str, **fields: object) -> dict:
        """Append one event; returns the completed event dict.

        Envelope fields (``seq``, ``t``, ``type``) are added here, and
        phase-end / run-end events get a memory sample attached, so
        emitters only supply their payload.
        """
        if self.closed:
            raise ConfigurationError(
                f"journal is closed; cannot emit {etype!r}")
        event: dict[str, object] = {
            "seq": self._seq, "t": round(time.time(), 6), "type": etype,
        }
        event.update(fields)
        if etype in _SAMPLED_EVENTS:
            event.update(_memory_sample())
        self._seq += 1
        self.events.append(event)
        if self._handle is not None:
            self._handle.write(json.dumps(event, separators=(",", ":"))
                               + "\n")
            self._handle.flush()
        if self.echo is not None:
            self.echo(event)
        return event

    def warn(self, message: str, **fields: object) -> dict:
        """Emit a ``warning`` event (the journal's printf)."""
        return self.emit("warning", message=str(message), **fields)

    def run_start(self, scenario, **extra: object) -> dict:
        """Emit the ``run_start`` header: full scenario + provenance.

        Records every scenario knob (via
        :meth:`~repro.config.Scenario.cache_token`), the seed and fault
        profile redundantly at top level, and the installed code
        version, so a journal pins exactly what produced a run.  Extra
        keyword fields (``jobs``, ...) ride along.  Idempotent: only the
        first call emits.
        """
        if self._run_started:
            return self.events[0]
        self._run_started = True
        from ..cache import code_version  # local: keeps obs import-light

        return self.emit(
            "run_start",
            scenario=json.loads(scenario.cache_token()),
            seed=scenario.seed,
            fault_profile=scenario.fault_profile,
            code_version=code_version(),
            pid=os.getpid(),
            cpu_count=os.cpu_count(),
            **extra,
        )

    # ---- lifecycle -------------------------------------------------------

    def close(self, status: str = "ok", error: str | None = None,
              counters: dict[str, int] | None = None) -> None:
        """Emit ``run_end`` and atomically publish the journal file.

        ``status`` is ``"ok"`` or ``"failed"`` (with ``error`` carrying
        the failure one-liner); ``counters`` is the run's final
        :attr:`PerfRegistry.counters <repro.perf.PerfRegistry.counters>`
        view.  Idempotent — the first call wins.
        """
        if self.closed:
            return
        fields: dict[str, object] = {"status": status,
                                     "events": self._seq + 1}
        if error is not None:
            fields["error"] = str(error)
        if counters is not None:
            fields["counters"] = dict(sorted(counters.items()))
        self.emit("run_end", **fields)
        self.closed = True
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            # Same discipline as ArtifactCache: the final name only ever
            # names a complete journal.
            os.replace(self._staging, self.path)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close("ok")
        else:
            self.close("failed", error=f"{exc_type.__name__}: {exc}")
