"""In-memory spans around the library's public callables, and layer metrics.

The benchmark treats the library as a black box, so a traced iteration
records spans from the outside: :func:`install` replaces each callable
named in :data:`WRAPS` with a wrapper that opens a span (name, start,
end, parent) around every call.  The wrapper is installed where the
*caller* looks the name up — callers bind names at import, so wrapping
``repro.workload.cpu.generate_cpu_series_batch`` would miss the
renderer's own ``repro.workload.series`` binding.

Generator functions get one span per ``next()``: the time the consumer
is blocked inside the generator, which for ``run_series_jobs`` is the
parent waiting on the worker pool.

A span's self time is its duration minus the time its child spans
cover (:func:`self_times`); :func:`layer_metrics` folds the spans, the
study's merged ``series_render`` spans and the run journal's events into
the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

MIB = float(1 << 20)


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._calls = 0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Record one span; its parent is the innermost open span."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, counts: dict[str, float]) -> None:
        """Add to named counters."""
        for name, amount in counts.items():
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def new_call(self) -> int:
        """A fresh id tying together the ``next()`` spans of one generator."""
        self._calls += 1
        return self._calls


def _block_counts(args: tuple, block) -> dict[str, float]:
    rows = [block.cpu_rows, block.bw_rows]
    if block.private_rows is not None:
        rows.append(block.private_rows)
    return {"handoff_bytes": sum(r.nbytes for r in rows),
            "rendered_points": sum(r.size for r in rows)}


def _series_bytes(args: tuple, result) -> dict[str, float]:
    series = args[0]
    if not len(series):
        return {"chunk_bytes": 0}
    return {"chunk_bytes": len(series) * series[next(iter(series))].nbytes}


def _window_bytes(args: tuple, item) -> dict[str, float]:
    return {"chunk_bytes": item[1].nbytes}


@dataclass(frozen=True)
class Wrap:
    """One wrapped callable: where to patch it and what to record."""

    #: ``"module:name"`` or ``"module:Class.method"`` — the binding the
    #: caller looks up at call time.
    target: str
    #: Span name recorded around each call (or each ``next()``).
    span: str
    #: Optional ``(args, result_or_item) -> {counter: amount}``.
    count: Callable[[tuple, object], dict[str, float]] | None = None


#: The fixed table of wrapped callables.  ``test_bench.py`` checks that
#: every entry still resolves, so a renamed function fails loudly
#: instead of reporting 0 s.
WRAPS = (
    Wrap("repro.workload.series:generate_cpu_series_batch", "kernel.cpu"),
    Wrap("repro.workload.series:generate_bw_series_batch", "kernel.bw"),
    Wrap("repro.workload.series:derive_private_series_batch",
         "kernel.private"),
    Wrap("repro.workload.generator:build_nep_platform", "platform.build"),
    Wrap("repro.platform.nep:build_nep_platform", "platform.build"),
    Wrap("repro.workload.azure:build_cloud_platform", "platform.build"),
    Wrap("repro.study:build_cloud_platform", "platform.build"),
    Wrap("repro.platform.cloud:build_cloud_platform", "platform.build"),
    Wrap("repro.platform.placement:PlacementPolicy.place", "platform.place"),
    Wrap("repro.parallel:run_series_jobs", "parallel.series_next",
         _block_counts),
    Wrap("repro.parallel:TaskFarm.next_outcome", "parallel.farm_next"),
    Wrap("repro.workload.streaming:WorkloadSink.consume", "shards.consume"),
    Wrap("repro.workload.streaming:WorkloadSink.finalize",
         "shards.finalize"),
    Wrap("repro.cache:StreamedEntryWriter.commit", "cache.commit"),
    Wrap("repro.cache:ArtifactCache.put_workload", "cache.commit"),
    Wrap("repro.cache:ArtifactCache.put_object", "cache.commit"),
    Wrap("repro.cache:ArtifactCache.get_workload", "cache.read"),
    Wrap("repro.cache:ArtifactCache.get_object", "cache.read"),
    Wrap("repro.core.workload_analysis:cpu_row_stats", "core.chunks",
         _series_bytes),
    Wrap("repro.core.workload_analysis:per_vm_totals", "core.chunks",
         _series_bytes),
    Wrap("repro.core.workload_analysis:iter_series_chunks", "core.chunks",
         _window_bytes),
    Wrap("repro.core.cost_analysis:per_vm_totals", "core.chunks",
         _series_bytes),
    Wrap("repro.core.balance:per_vm_means", "core.chunks", _series_bytes),
    Wrap("repro.core.prediction_analysis:evaluate_lstm", "prediction.lstm"),
    Wrap("repro.core.prediction_analysis:evaluate_holt_winters",
         "prediction.holtwinters"),
    Wrap("repro.core.prediction_analysis:seasonality_strength",
         "prediction.seasonality"),
    Wrap("repro.measurement.campaign:CrowdCampaign.run_latency",
         "measurement.latency",
         lambda args, result: {"observations": len(result.latency)}),
    Wrap("repro.measurement.campaign:CrowdCampaign.run_throughput",
         "measurement.throughput",
         lambda args, result: {"observations": len(result.throughput)}),
    Wrap("repro.netsim.latency:LatencyModel.sample_matrix", "netsim.sample"),
    Wrap("repro.netsim.latency:LatencyModel.sample_routes_block",
         "netsim.sample"),
    Wrap("repro.cdn.model:lru_hit_ratio_curve", "cdn.solve"),
    Wrap("repro.qoe.sessions:build_session_workload", "qoe.workload"),
    Wrap("repro.qoe.sessions:run_sessions", "qoe.arm",
         lambda args, result: {"sessions": result.sessions}),
    Wrap("repro.live.engine:build_live_inputs", "live.inputs"),
    Wrap("repro.live.engine:run_live_engine", "live.engine",
         lambda args, result: {"ticks": result.ticks}),
)


def resolve(target: str) -> tuple[object, str, Callable]:
    """``(owner, attribute, callable)`` for a :class:`Wrap` target.

    Raises:
        LookupError: when the target no longer exists or is not callable.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"wrap target {target!r} does not resolve: "
                          f"{exc}") from exc
    if not callable(original):
        raise LookupError(f"wrap target {target!r} is not a plain callable")
    return owner, attr, original


def _wrapper(fn: Callable, wrap: Wrap, tracer: Tracer) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            call = tracer.new_call()
            try:
                while True:
                    with tracer.span(wrap.span, call=call):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    if wrap.count is not None:
                        tracer.add(wrap.count(args, item))
                    yield item
            finally:
                inner.close()
        return generator

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(wrap.span):
            result = fn(*args, **kwargs)
        if wrap.count is not None:
            tracer.add(wrap.count(args, result))
        return result
    return call


def install(tracer: Tracer) -> None:
    """Patch every :data:`WRAPS` target to record into ``tracer``.

    Meant for a process that exits after the traced iteration: nothing
    is restored.
    """
    for wrap in WRAPS:
        owner, attr, original = resolve(wrap.target)
        setattr(owner, attr, _wrapper(original, wrap, tracer))


# ---- reading spans -----------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are those of one thread, so children never overlap each other.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    return [_duration(span) - covered[span["id"]] for span in spans]


def total(spans: list[dict], *names: str) -> float:
    """Time covered by spans named ``names``, nested repeats counted once."""
    wanted = set(names)
    seconds = 0.0
    for span in spans:
        if span["name"] not in wanted:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in wanted:
            parent = spans[parent]["parent"]
        if parent is None:
            seconds += _duration(span)
    return seconds


def self_total(spans: list[dict], selfs: list[float], *names: str) -> float:
    """Summed self time of the spans named ``names``."""
    wanted = set(names)
    return sum(selfs[s["id"]] for s in spans if s["name"] in wanted)


def calls(spans: list[dict], name: str) -> int:
    """How many spans are named ``name``."""
    return sum(1 for span in spans if span["name"] == name)


def stage_wall(spans: list[dict], name: str) -> float:
    """Summed first-``next()``-to-last-``next()`` wall of each generator call."""
    extents: dict[int, list[float]] = {}
    for span in spans:
        if span["name"] == name:
            lo_hi = extents.setdefault(span["call"], [span["start"],
                                                      span["end"]])
            lo_hi[0] = min(lo_hi[0], span["start"])
            lo_hi[1] = max(lo_hi[1], span["end"])
    return sum(hi - lo for lo, hi in extents.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Reports whose self time is a layer metric of its own.
REPORT_METRICS = ("fig10", "fig13", "fig14", "findings", "table3")


def layer_metrics(tracer: Tracer, render_s: float, events: list[dict],
                  worker_peak_rss_mb: float) -> dict[str, float]:
    """Every per-layer metric of one traced iteration, by name.

    ``render_s`` is the summed ``series_render`` wall time the study's
    :class:`~repro.perf.PerfRegistry` merged from every render (worker
    processes included); ``events`` the in-memory run journal's events.
    """
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event["type"]] = kinds.get(event["type"], 0) + 1
    hits, misses = kinds.get("cache_hit", 0), kinds.get("cache_miss", 0)
    spilled = sum(e.get("bytes", 0) for e in events
                  if e["type"] == "chunk_spill")
    arm_s = total(spans, "qoe.arm")
    engine_s = total(spans, "live.engine")
    metrics = {
        "workload.render_s": render_s,
        "workload.render_points_per_s": _ratio(
            counts.get("rendered_points", 0), render_s),
        "workload.kernel_cpu_s": total(spans, "kernel.cpu"),
        "workload.kernel_bw_s": total(spans, "kernel.bw"),
        "workload.kernel_private_s": total(spans, "kernel.private"),
        "platform.build_s": total(spans, "platform.build"),
        "platform.builds": calls(spans, "platform.build"),
        "platform.place_s": total(spans, "platform.place"),
        "platform.place_calls": calls(spans, "platform.place"),
        "parallel.pool_wait_s": total(spans, "parallel.series_next"),
        "parallel.handoff_mb": counts.get("handoff_bytes", 0) / MIB,
        "parallel.worker_peak_rss_mb": worker_peak_rss_mb,
        "parallel.speedup": _ratio(
            render_s, stage_wall(spans, "parallel.series_next")),
        "parallel.farm_wait_s": total(spans, "parallel.farm_next"),
        "parallel.retries": (kinds.get("job_retry", 0)
                             + kinds.get("worker_restart", 0)),
        "shards.write_s": total(spans, "shards.consume"),
        "shards.finalize_s": self_total(spans, selfs, "shards.finalize"),
        "shards.mb_written": spilled / MIB,
        "cache.commit_s": total(spans, "cache.commit"),
        "cache.read_s": total(spans, "cache.read"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.retries": (kinds.get("cache_retry", 0)
                          + kinds.get("io_retry", 0)),
        "core.chunks_s": total(spans, "core.chunks"),
        "core.chunk_mb": counts.get("chunk_bytes", 0) / MIB,
        "reports.self_s": sum(self_s for span, self_s in zip(spans, selfs)
                              if span["name"].startswith("report.")),
        "prediction.lstm_s": total(spans, "prediction.lstm"),
        "prediction.lstm_fits": calls(spans, "prediction.lstm"),
        "prediction.holtwinters_s": total(spans, "prediction.holtwinters"),
        "prediction.seasonality_s": total(spans, "prediction.seasonality"),
        "measurement.latency_s": total(spans, "measurement.latency"),
        "measurement.throughput_s": total(spans, "measurement.throughput"),
        "measurement.observations": counts.get("observations", 0),
        "netsim.sample_s": total(spans, "netsim.sample"),
        "cdn.solve_s": total(spans, "cdn.solve"),
        "qoe.workload_s": self_total(spans, selfs, "qoe.workload"),
        "qoe.arm_s": arm_s,
        "qoe.fold_s": self_total(spans, selfs, "qoe.arm"),
        "qoe.sessions_per_s": _ratio(counts.get("sessions", 0), arm_s),
        "live.inputs_s": total(spans, "live.inputs"),
        "live.engine_s": engine_s,
        "live.ticks_per_s": _ratio(counts.get("ticks", 0), engine_s),
    }
    for report in REPORT_METRICS:
        metrics[f"reports.{report}_s"] = self_total(spans, selfs,
                                                    f"report.{report}")
    return metrics


_RENDER = ((("wall_s", "trace-render"), ("cpu_s", "trace-render"),
            ("wall_s", "reports")), ("trace-analyze", "engines"))
_KERNEL = ((("wall_s", "reports"),), ("engines",))
_PLATFORM = ((("wall_s", "trace-render"), ("wall_s", "reports"),
              ("wall_s", "engines")), ("trace-analyze",))
_POOL = ((("wall_s", "trace-render"), ("cpu_s", "trace-render"),
          ("peak_rss_mb", "trace-render")), ("reports", "trace-analyze"))
_FARM = ((("wall_s", "engines"), ("cpu_s", "engines")), ("reports",))
_SHARDS = ((("wall_s", "trace-render"), ("peak_rss_mb", "trace-render")),
           ("reports", "engines"))
_CACHE = ((("wall_s", "trace-render"), ("wall_s", "trace-analyze")),
          ("reports", "engines"))
_CHUNKS = ((("wall_s", "trace-analyze"), ("wall_s", "reports")),
           ("trace-render", "engines"))
_REPORTS = ((("wall_s", "reports"), ("wall_s", "trace-analyze")),
            ("trace-render", "engines"))
_REPORTS_ONLY = ((("wall_s", "reports"),),
                 ("trace-render", "trace-analyze", "engines"))
_ENGINES = ((("wall_s", "engines"), ("cpu_s", "engines"),
             ("wall_s", "reports")), ("trace-render", "trace-analyze"))

#: Per layer metric: the ``(end-to-end metric, workload)`` pairs it
#: should move, and the workloads where it should not move at all —
#: written down before measuring, so a trace confirms or refutes them.
PREDICTIONS: dict[str, tuple[tuple[tuple[str, str], ...],
                             tuple[str, ...]]] = {
    "workload.render_s": _RENDER,
    "workload.render_points_per_s": _RENDER,
    "workload.kernel_cpu_s": _KERNEL,
    "workload.kernel_bw_s": _KERNEL,
    "workload.kernel_private_s": _KERNEL,
    "platform.build_s": _PLATFORM,
    "platform.builds": _PLATFORM,
    "platform.place_s": _PLATFORM,
    "platform.place_calls": _PLATFORM,
    "parallel.pool_wait_s": _POOL,
    "parallel.handoff_mb": _POOL,
    "parallel.worker_peak_rss_mb": _POOL,
    "parallel.speedup": _POOL,
    "parallel.farm_wait_s": _FARM,
    "parallel.retries": _FARM,
    "shards.write_s": _SHARDS,
    "shards.finalize_s": _SHARDS,
    "shards.mb_written": _SHARDS,
    "cache.commit_s": ((("wall_s", "trace-render"),),
                       ("reports", "engines")),
    "cache.read_s": ((("wall_s", "trace-analyze"),), ("reports", "engines")),
    "cache.hits": _CACHE,
    "cache.misses": _CACHE,
    "cache.hit_ratio": _CACHE,
    "cache.retries": _CACHE,
    "core.chunks_s": _CHUNKS,
    "core.chunk_mb": _CHUNKS,
    "reports.fig10_s": _REPORTS,
    "reports.fig13_s": _REPORTS,
    "reports.fig14_s": _REPORTS_ONLY,
    "reports.findings_s": _REPORTS_ONLY,
    "reports.table3_s": _REPORTS,
    "reports.self_s": _REPORTS,
    "prediction.lstm_s": _REPORTS_ONLY,
    "prediction.lstm_fits": _REPORTS_ONLY,
    "prediction.holtwinters_s": _REPORTS_ONLY,
    "prediction.seasonality_s": _REPORTS_ONLY,
    "measurement.latency_s": _REPORTS_ONLY,
    "measurement.throughput_s": _REPORTS_ONLY,
    "measurement.observations": _REPORTS_ONLY,
    "netsim.sample_s": ((("wall_s", "reports"), ("wall_s", "engines")),
                        ("trace-render", "trace-analyze")),
    "cdn.solve_s": _ENGINES,
    "qoe.workload_s": _ENGINES,
    "qoe.arm_s": _ENGINES,
    "qoe.fold_s": _ENGINES,
    "qoe.sessions_per_s": _ENGINES,
    "live.inputs_s": _ENGINES,
    "live.engine_s": _ENGINES,
    "live.ticks_per_s": _ENGINES,
    # The tracing cost itself: moves nothing, steady nowhere in particular.
    "obs.trace_overhead_pct": ((), ()),
}
