"""Lightweight performance telemetry: named spans and counters.

The simulator's batch engine exists to make paper-scale runs practical;
this module is how that speed is *tracked*.  A :class:`PerfRegistry`
accumulates wall-clock and CPU time per named phase (plus arbitrary
counters), :class:`~repro.study.EdgeStudy` carries one and wraps each
expensive phase in a span, and ``scripts/probe.py campaign`` reads the
latency campaign's span so a regression fails CI.

Spans nest and re-enter safely: each ``with`` block adds its own elapsed
time and bumps the call count, so a phase touched twice reports the sum.
A *phase* is a span that also records its outcome: :meth:`PerfRegistry.phase`
keeps the error of a phase that raised in its :class:`SpanStats`, which
is how a study degrades gracefully and still says what failed.

Usage::

    perf = PerfRegistry()
    with perf.span("campaign_latency"):
        results = campaign.run_latency()
    perf.count("observations", len(results.latency))
    print(perf.report())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class SpanStats:
    """Accumulated timings of one named phase.

    A plain picklable dataclass: worker processes ship their stats back
    to the parent, which folds them in via :meth:`merge` /
    :meth:`PerfRegistry.merge`.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    calls: int = 0
    #: ``"<ExcType>: <message>"`` when the phase's last run raised;
    #: ``None`` when it succeeded (or the span is not a phase).
    error: str | None = None

    def merge(self, other: "SpanStats") -> None:
        """Add another span's accumulated timings to this one."""
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.calls += other.calls

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-ready view of the accumulated timings (and any error)."""
        data: dict[str, float | int | str] = {
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "calls": self.calls,
        }
        if self.error is not None:
            data["error"] = self.error
        return data


class PerfRegistry:
    """Accumulates span timings and counters for one study/run.

    When a :class:`~repro.obs.journal.RunJournal` is attached
    (``journal=``), every span additionally emits ``span_begin`` /
    ``span_end`` journal events, and every phase ``phase_begin`` /
    ``phase_end`` inside them — the one bridge into the structured
    observability layer.  Worker-process registries are created *without*
    a journal and folded in via :meth:`merge`, which emits nothing, so
    journals stay identical across ``--jobs`` settings.
    """

    def __init__(self, journal=None) -> None:
        self._spans: dict[str, SpanStats] = {}
        self._counters: dict[str, int] = {}
        #: Optional :class:`repro.obs.journal.RunJournal` bridged by spans.
        self.journal = journal

    # ---- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block; wall and CPU elapsed are added to ``name``."""
        self._emit("span_begin", span=name)
        start = (time.perf_counter(), time.process_time())
        try:
            yield
        finally:
            self._end(name, start)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a study phase and record its outcome (re-raising).

        A span that additionally emits ``phase_begin`` / ``phase_end``
        (``status`` ``ok`` or ``failed``, ``wall_s``, and ``error`` as
        ``"<ExcType>: <message>"``) inside its ``span_begin`` /
        ``span_end``, and keeps the error in the span's
        :attr:`SpanStats.error`.  An interrupt (a ``BaseException``
        that is not an ``Exception``) closes the span but records no
        outcome.
        """
        self._emit("span_begin", span=name)
        self._emit("phase_begin", phase=name)
        start = (time.perf_counter(), time.process_time())
        outcome: dict[str, str] | None = None
        try:
            yield
            outcome = {"status": "ok"}
        except Exception as exc:
            outcome = {"status": "failed",
                       "error": f"{type(exc).__name__}: {exc}"}
            raise
        finally:
            self._end(name, start, outcome)

    def _emit(self, etype: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.emit(etype, **fields)

    def _end(self, name: str, start: tuple[float, float],
             outcome: dict[str, str] | None = None) -> None:
        """Fold one closed span into ``name``; emit its end event(s)."""
        wall = time.perf_counter() - start[0]
        cpu = time.process_time() - start[1]
        stats = self._spans.setdefault(name, SpanStats())
        stats.wall_s += wall
        stats.cpu_s += cpu
        stats.calls += 1
        if outcome is not None:
            stats.error = outcome.get("error")
            self._emit("phase_end", phase=name, **outcome,
                       wall_s=round(wall, 6))
        self._emit("span_end", span=name, wall_s=round(wall, 6),
                   cpu_s=round(cpu, 6))

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (e.g. observations produced)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def merge(self, other: "PerfRegistry") -> None:
        """Fold another registry into this one (summing spans/counters).

        This is how worker-process telemetry survives the process
        boundary: each worker records into its own registry, pickles it
        back with the result, and the parent merges.  Merged ``cpu_s``
        sums across processes, so it can legitimately exceed the
        parent's wall time for the same phase on a multi-core run.
        """
        for name, stats in other._spans.items():
            self._spans.setdefault(name, SpanStats()).merge(stats)
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value

    # ---- reading ---------------------------------------------------------

    @property
    def spans(self) -> dict[str, SpanStats]:
        """A copy of the per-span statistics, keyed by span name."""
        return dict(self._spans)

    @property
    def counters(self) -> dict[str, int]:
        """A copy of the named counters."""
        return dict(self._counters)

    def wall_s(self, name: str) -> float:
        """Total wall time of a span (0.0 if it never ran)."""
        stats = self._spans.get(name)
        return stats.wall_s if stats is not None else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view: ``{"spans": {...}, "counters": {...}}``."""
        return {
            "spans": {name: stats.as_dict()
                      for name, stats in self._spans.items()},
            "counters": dict(self._counters),
        }

    def report(self) -> str:
        """Human-readable table, slowest phase first; failures marked."""
        if not self._spans and not self._counters:
            return "perf: no spans recorded"
        lines = ["phase                         wall_s    cpu_s  calls"]
        ordered = sorted(self._spans.items(),
                         key=lambda item: item[1].wall_s, reverse=True)
        for name, stats in ordered:
            line = (f"{name:<28}{stats.wall_s:>8.3f} {stats.cpu_s:>8.3f}"
                    f" {stats.calls:>6d}")
            if stats.error is not None:
                line += f"  FAILED {stats.error}"
            lines.append(line)
        for name, value in sorted(self._counters.items()):
            lines.append(f"{name:<28}{value:>15d}")
        return "\n".join(lines)
