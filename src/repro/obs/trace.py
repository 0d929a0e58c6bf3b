"""Reading and rendering run journals (`repro trace ...`).

The reader is deliberately forgiving: journals from crashed runs end in
a truncated line, hand-edited ones may carry corrupt lines, and a
``.part`` staging file is still useful evidence.  :func:`read_journal`
therefore yields every parseable event and a warning per skipped line
instead of raising, and every renderer downstream copes with a missing
``run_start``/``run_end``.

Three renderers back the CLI subcommand:

* :func:`render_show` — the raw event stream, one line per event;
* :func:`render_summary` — the phase/timing/memory tree with cache,
  pool, fault, and counter roll-ups;
* :func:`diff_journals` — two runs compared: phase timings, cache
  behaviour, and event counts side by side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .journal import canonical_events

#: Envelope fields hidden from the per-event key=value rendering.
_ENVELOPE = ("seq", "t", "type")


def read_journal(path: str | Path) -> tuple[list[dict], list[str]]:
    """Parse a journal file into ``(events, warnings)``.

    Unparseable lines are skipped with a warning — a truncated final
    line (the signature of a killed run) is reported as such rather
    than as corruption.  Raises :class:`FileNotFoundError` only when
    the file itself is missing.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8", errors="replace")
    events: list[dict] = []
    warnings: list[str] = []
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                warnings.append(
                    f"line {number}: truncated final line "
                    "(run killed mid-write?)")
            else:
                warnings.append(f"line {number}: corrupt event skipped")
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            warnings.append(f"line {number}: non-object event skipped")
    if events and events[-1].get("type") != "run_end":
        warnings.append("journal has no run_end event "
                        "(run did not finish cleanly)")
    return events, warnings


# ---- summarising ---------------------------------------------------------


@dataclass
class JournalSummary:
    """Everything ``repro trace summary`` renders, as plain data."""

    run: dict = field(default_factory=dict)        # run_start payload
    end: dict = field(default_factory=dict)        # run_end payload
    phases: dict[str, dict] = field(default_factory=dict)
    cache: dict[str, list[dict]] = field(default_factory=dict)
    pool: dict[str, int] = field(default_factory=dict)
    faults: dict | None = None
    probe_stats: dict[str, dict] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)
    live: dict = field(default_factory=dict)       # live_summary payload
    live_faults: list[dict] = field(default_factory=list)

    @property
    def status(self) -> str:
        """The run's final status (``unknown`` without a run_end)."""
        return str(self.end.get("status", "unknown"))


def phase_breakdown(events: list[dict]) -> dict[str, dict]:
    """Per-phase timings/outcome/memory, merged from three event kinds.

    ``phase_end`` carries status, wall time, and the memory samples;
    the matching ``span_end`` (same name) contributes CPU time; a
    ``cache_hit`` whose artifact equals the phase name marks the phase
    as served from the artifact cache.
    """
    phases: dict[str, dict] = {}
    cpu: dict[str, float] = {}
    hits = {e.get("artifact") for e in events if e.get("type") == "cache_hit"}
    for event in events:
        etype = event.get("type")
        if etype == "phase_begin":
            phases.setdefault(str(event.get("phase")), {"status": "running"})
        elif etype == "phase_end":
            name = str(event.get("phase"))
            entry = phases.setdefault(name, {})
            entry["status"] = event.get("status", "?")
            for key in ("wall_s", "rss_mb", "peak_rss_mb", "error"):
                if key in event:
                    entry[key] = event[key]
            entry["cached"] = name in hits
        elif etype == "span_end":
            name = str(event.get("span"))
            cpu[name] = cpu.get(name, 0.0) + float(event.get("cpu_s", 0.0))
    for name, entry in phases.items():
        if name in cpu:
            entry["cpu_s"] = round(cpu[name], 6)
    return phases


def summarize_journal(events: list[dict],
                      warnings: list[str] | None = None) -> JournalSummary:
    """Fold an event stream into a :class:`JournalSummary`."""
    summary = JournalSummary(warnings=list(warnings or []))
    summary.phases = phase_breakdown(events)
    cache: dict[str, list[dict]] = {
        "hit": [], "miss": [], "store": [], "evict": []}
    pool = {"dispatched": 0, "completed": 0, "vms": 0}
    for event in events:
        etype = str(event.get("type"))
        summary.event_counts[etype] = summary.event_counts.get(etype, 0) + 1
        payload = {k: v for k, v in event.items() if k not in _ENVELOPE}
        if etype == "run_start":
            summary.run = payload
        elif etype == "run_end":
            summary.end = payload
        elif etype.startswith("cache_"):
            kind = etype.removeprefix("cache_")
            if kind in cache:
                cache[kind].append(payload)
        elif etype == "job_dispatch":
            pool["dispatched"] += 1
        elif etype == "job_complete":
            pool["completed"] += 1
            pool["vms"] += int(event.get("vms", 0))
        elif etype == "fault_schedule":
            summary.faults = payload
        elif etype == "live_summary":
            summary.live = payload
        elif etype == "live_fault":
            summary.live_faults.append(payload)
        elif etype == "probe_stats":
            summary.probe_stats[str(payload.get("probe", "?"))] = payload
        elif etype == "warning":
            summary.warnings.append(str(event.get("message", "")))
    summary.cache = cache
    summary.pool = pool
    return summary


# ---- rendering -----------------------------------------------------------


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(value)) + "}"
    return str(value)


def render_show(events: list[dict], limit: int | None = None) -> str:
    """The raw stream: ``[seq] +elapsed type key=value ...`` per event."""
    if not events:
        return "(empty journal)"
    start = None
    for event in events:
        if "t" in event:
            start = float(event["t"])
            break
    lines = []
    shown = events if limit is None else events[-limit:]
    if limit is not None and len(events) > limit:
        lines.append(f"... {len(events) - limit} earlier events elided ...")
    for event in shown:
        elapsed = (float(event.get("t", start or 0.0)) - start
                   if start is not None else 0.0)
        payload = " ".join(
            f"{key}={_fmt_value(value)}" for key, value in event.items()
            if key not in _ENVELOPE)
        lines.append(f"[{event.get('seq', '?'):>4}] +{elapsed:8.3f}s "
                     f"{event.get('type', '?'):<14} {payload}".rstrip())
    return "\n".join(lines)


def _phase_line(name: str, entry: dict) -> str:
    status = entry.get("status", "?")
    wall = entry.get("wall_s")
    cpu = entry.get("cpu_s")
    rss = entry.get("peak_rss_mb")
    parts = [f"  {name:<22} {status:<7}"]
    parts.append(f"{wall:9.3f}s wall" if wall is not None else f"{'':>15}")
    parts.append(f"{cpu:9.3f}s cpu" if cpu is not None else f"{'':>13}")
    if rss is not None:
        parts.append(f"peak {rss:8.1f} MB")
    if entry.get("cached"):
        parts.append("[cache hit]")
    if entry.get("error"):
        parts.append(f"error: {entry['error']}")
    return " ".join(parts).rstrip()


def render_summary(events: list[dict],
                   warnings: list[str] | None = None) -> str:
    """The human-readable roll-up behind ``repro trace summary``."""
    summary = summarize_journal(events, warnings)
    lines: list[str] = []
    run = summary.run
    scenario = run.get("scenario", {})
    head = [f"status={summary.status}"]
    if run:
        head.append(f"seed={run.get('seed')}")
        head.append(f"faults={run.get('fault_profile')}")
        if run.get("jobs") is not None:
            head.append(f"jobs={run.get('jobs')}")
        head.append(f"code={run.get('code_version')}")
    if scenario:
        head.append(f"vms={scenario.get('nep_vm_count')}"
                    f"/{scenario.get('azure_vm_count')}")
        head.append(f"days={scenario.get('trace_days')}")
    lines.append("run: " + " ".join(head))
    if summary.end.get("error"):
        lines.append(f"error: {summary.end['error']}")

    lines.append(f"phases ({len(summary.phases)}):")
    if summary.phases:
        lines.extend(_phase_line(name, entry)
                     for name, entry in summary.phases.items())
    else:
        lines.append("  (none recorded)")

    cache = summary.cache
    counts = {kind: len(items) for kind, items in cache.items()}
    lines.append(f"cache: {counts['hit']} hits, {counts['miss']} misses, "
                 f"{counts['store']} stores, {counts['evict']} evictions")
    for kind in ("hit", "miss", "store", "evict"):
        for item in cache[kind]:
            key = str(item.get("key", ""))[:12]
            size = item.get("bytes")
            size_s = f"  {size / 1048576:.1f} MiB" if size else ""
            lines.append(f"  {kind:<6} {item.get('artifact', '?'):<22} "
                         f"{key}{size_s}")

    pool = summary.pool
    lines.append(f"pool: {pool['dispatched']} jobs dispatched, "
                 f"{pool['completed']} completed, "
                 f"{pool['vms']} VM series rendered")

    seen = summary.event_counts
    recovered = {label: seen.get(etype, 0) for label, etype in (
        ("job retries", "job_retry"),
        ("worker restarts", "worker_restart"),
        ("cache retries", "cache_retry"),
        ("quarantined", "job_quarantined"),
        ("cache write errors", "cache_write_error"),
    ) if seen.get(etype, 0)}
    if recovered:
        lines.append("resilience: " + ", ".join(
            f"{n} {label}" for label, n in recovered.items()))

    if summary.live:
        live = summary.live
        lines.append(
            f"live: {live.get('ticks')} ticks over "
            f"{live.get('servers')} servers, "
            f"{live.get('fault_ticks')} fault ticks, "
            f"{live.get('rejected')} rejected, "
            f"{live.get('displaced')} displaced, "
            f"digest {str(live.get('digest', ''))[:16]}")

    if summary.faults is not None:
        faults = summary.faults
        lines.append(
            f"faults: profile={faults.get('profile')} "
            f"outages={faults.get('outages')} "
            f"crashes={faults.get('server_crashes')} "
            f"episodes={faults.get('episodes')}")
    for probe, stats in summary.probe_stats.items():
        if probe == "ping":
            lines.append(
                f"probes[ping]: {stats.get('probes')} probed, "
                f"{stats.get('timed_out')} timed out, "
                f"{stats.get('recovered')} recovered, "
                f"{stats.get('unreachable')} unreachable")
        else:
            lines.append(
                f"probes[{probe}]: {stats.get('probes')} probed, "
                f"{stats.get('unreachable')} unreachable, "
                f"{stats.get('degraded')} degraded")

    counters = summary.end.get("counters")
    if counters:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        lines.append(f"counters: {rendered}")
    if summary.warnings:
        lines.append(f"warnings ({len(summary.warnings)}):")
        lines.extend(f"  {message}" for message in summary.warnings)
    lines.append(f"events: {sum(summary.event_counts.values())} total "
                 + " ".join(f"{k}={v}" for k, v
                            in sorted(summary.event_counts.items())))
    return "\n".join(lines)


def _delta(a: float | None, b: float | None) -> str:
    if a is None or b is None:
        return "n/a"
    delta = b - a
    ratio = f" ({b / a:.2f}x)" if a > 1e-9 else ""
    return f"{delta:+.3f}s{ratio}"


def diff_journals(events_a: list[dict], events_b: list[dict],
                  label_a: str = "A", label_b: str = "B", *,
                  canonical: bool = False) -> str:
    """Compare two journals: phases, cache behaviour, event counts.

    Wall-clock deltas are reported for shared phases; structural
    differences (phases, cache events, event types present in only one
    run, diverging live-engine fault timelines) are called out
    explicitly, since those are what a determinism or cache regression
    looks like.  When nothing structural differs the report ends with a
    ``result: no behavioural differences`` verdict — timing deltas
    alone never count as a difference.

    ``canonical=True`` judges structure on the
    :func:`~repro.obs.journal.canonical_events` view, so volatile
    telemetry (retries, spills, ticks) never counts as a difference,
    while the phase timings still come from the raw events.
    """
    timings_a = phase_breakdown(events_a)
    timings_b = phase_breakdown(events_b)
    if canonical:
        events_a = canonical_events(events_a)
        events_b = canonical_events(events_b)
    a = summarize_journal(events_a)
    b = summarize_journal(events_b)
    structural = False
    lines = [f"diff: {label_a} -> {label_b}"]
    run_a, run_b = a.run, b.run
    for field_name in ("seed", "fault_profile", "code_version"):
        if run_a.get(field_name) != run_b.get(field_name):
            structural = True
            lines.append(f"  {field_name}: {run_a.get(field_name)} -> "
                         f"{run_b.get(field_name)}")
    if a.status != b.status:
        structural = True
        lines.append(f"  status: {a.status} -> {b.status}")

    lines.append("phases:")
    for name in dict.fromkeys(list(a.phases) + list(b.phases)):
        pa, pb = a.phases.get(name), b.phases.get(name)
        if pa is None or pb is None:
            structural = True
            lines.append(f"  {name:<22} only in "
                         f"{label_a if pb is None else label_b}")
            continue
        cached = ""
        if pa.get("cached") != pb.get("cached"):
            structural = True
            cached = (f"  cache: {_cached_word(pa)} -> {_cached_word(pb)}")
        wall_a = timings_a.get(name, {}).get("wall_s")
        wall_b = timings_b.get(name, {}).get("wall_s")
        lines.append(f"  {name:<22} {_delta(wall_a, wall_b)}{cached}")

    counts_a = {k: len(v) for k, v in a.cache.items()}
    counts_b = {k: len(v) for k, v in b.cache.items()}
    if counts_a != counts_b:
        structural = True
        lines.append("cache: " + " ".join(
            f"{kind}:{counts_a[kind]}->{counts_b[kind]}"
            for kind in counts_a if counts_a[kind] != counts_b[kind]))
    else:
        lines.append("cache: identical behaviour "
                     f"({counts_a['hit']} hits, {counts_a['miss']} misses)")

    diffs = []
    for etype in dict.fromkeys(list(a.event_counts) + list(b.event_counts)):
        na, nb = a.event_counts.get(etype, 0), b.event_counts.get(etype, 0)
        if na != nb:
            diffs.append(f"{etype}:{na}->{nb}")
    if diffs:
        structural = True
    lines.append("events: " + (" ".join(diffs) if diffs
                               else "identical type counts"))

    live_lines, live_diverged = _diff_live(a, b, label_a, label_b)
    structural = structural or live_diverged
    lines.extend(live_lines)

    ca = (a.end.get("counters") or {})
    cb = (b.end.get("counters") or {})
    counter_diffs = [f"{name}:{ca.get(name, 0)}->{cb.get(name, 0)}"
                     for name in dict.fromkeys(list(ca) + list(cb))
                     if ca.get(name, 0) != cb.get(name, 0)]
    if counter_diffs:
        structural = True
        lines.append("counters: " + " ".join(counter_diffs))
    lines.append("result: " + ("behavioural differences found" if structural
                               else "no behavioural differences"))
    return "\n".join(lines)


def _diff_live(a: JournalSummary, b: JournalSummary,
               label_a: str, label_b: str) -> tuple[list[str], bool]:
    """Live-engine divergence, localized to the first differing tick.

    Compares the canonical ``live_fault`` timelines tick by tick and
    the ``live_summary`` digests; a fault-interleaved run diffed
    against a clean one is pinned to its first fault tick.
    """
    if not a.live and not b.live:
        return [], False
    lines: list[str] = []
    diverged = False
    ticks_a = {int(f.get("tick", -1)): f for f in a.live_faults}
    ticks_b = {int(f.get("tick", -1)): f for f in b.live_faults}
    for tick in sorted(set(ticks_a) | set(ticks_b)):
        fa, fb = ticks_a.get(tick), ticks_b.get(tick)
        if fa == fb:
            continue
        diverged = True
        if fa is None or fb is None:
            lines.append(
                f"live: fault timeline diverges at tick {tick} "
                f"(fault only in {label_a if fb is None else label_b}: "
                f"down={(fa or fb).get('down')} "
                f"evacuated={(fa or fb).get('evacuated')} "
                f"displaced={(fa or fb).get('displaced')})")
        else:
            lines.append(
                f"live: fault tick {tick} differs: "
                f"down {fa.get('down')}->{fb.get('down')} "
                f"evacuated {fa.get('evacuated')}->{fb.get('evacuated')} "
                f"displaced {fa.get('displaced')}->{fb.get('displaced')}")
        break
    digest_a = str(a.live.get("digest", ""))
    digest_b = str(b.live.get("digest", ""))
    if digest_a != digest_b:
        diverged = True
        lines.append(f"live: series digest {digest_a[:16] or '(none)'} -> "
                     f"{digest_b[:16] or '(none)'}")
    if not diverged:
        lines.append(
            f"live: identical timeline ({len(a.live_faults)} fault ticks, "
            f"digest {digest_a[:16] or '(none)'})")
    return lines, diverged


def _cached_word(entry: dict) -> str:
    return "hit" if entry.get("cached") else "generated"
