#!/usr/bin/env python
"""Benchmark the study's hot phases and track them in BENCH_study.json.

Runs the four expensive :class:`repro.EdgeStudy` phases (NEP workload,
Azure workload, latency campaign, throughput campaign) at a chosen scale,
taking the best of ``--repeat`` runs per phase, and records the result in
a JSON ledger keyed by scale.  The ledger is committed so the perf
trajectory of the simulator is tracked from PR to PR.

Usage::

    PYTHONPATH=src python scripts/bench_study.py --scale default
    PYTHONPATH=src python scripts/bench_study.py --scale smoke \
        --check BENCH_study.json --max-regression 2.0   # CI gate

``--check`` compares the fresh run against the committed ledger and exits
non-zero if the latency-campaign phase regressed by more than
``--max-regression``x — the CI guard for the vectorized batch engine.

``--cache-dir`` additionally measures the persistent artifact cache: one
cold run populating it and one warm run served from it, both recorded in
the ledger entry.  ``--assert-warm`` turns the warm run into a CI gate:
the process exits non-zero unless every tracked phase was served from
the cache (generation skipped entirely).

The out-of-core tier has its own knobs: ``--scale city`` selects the
~1M-VM scenario, ``--vms``/``--sites`` shrink it to a CI-sized probe,
and ``--assert-peak-rss-mb`` gates the parent process's peak RSS
(VmHWM, as sampled by the run journal) — the memory contract of the
sharded series path.

``--sweep-bench CONFIG`` times the sweep orchestrator against a serial
per-cell baseline: every cell of the grid re-run alone with its own
fresh cache (no sharing) versus one :func:`repro.sweep.run_sweep` over
the same grid with a shared fresh cache and ``--jobs`` workers.  The
comparison lands in the run stanza's ``sweep`` section;
``--assert-sweep-speedup X`` turns it into a CI gate (exit non-zero
below ``X``x).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: The phases tracked per run, in execution order.
PHASES = ("workload_nep", "workload_azure", "campaign_latency",
          "campaign_throughput", "qoe_sessions")

#: Optional per-scale ledger sections measured by dedicated flags.  A
#: run that does not re-measure one keeps the previously committed
#: value instead of silently dropping it from the ledger.
OPTIONAL_SECTIONS = ("sweep", "cache", "qoe_sessions", "live")


def effective_seed(seed: int | None) -> int:
    """The seed a run actually uses (the scenario default when unset)."""
    from repro.config import DEFAULT_SCENARIO

    return seed if seed is not None else DEFAULT_SCENARIO.seed


def build_scenario(scale: str, seed: int | None,
                   overrides: dict[str, int] | None = None):
    """The bench scenario: a named scale plus optional size overrides."""
    from repro.study import scenario_for

    scenario = scenario_for(scale, seed)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    return scenario


def run_once(scale: str, seed: int | None, jobs: int = 1,
             cache=None, overrides: dict[str, int] | None = None,
             ) -> dict[str, object]:
    """One study run; returns its perf registry as a dict.

    The run carries an in-memory :class:`repro.obs.RunJournal`, so the
    result also has a ``"journal_phases"`` breakdown (wall/cpu/memory and
    an explicit ``cached`` flag per phase) — the journal is what lets the
    ledger distinguish a phase that *ran* from one served by the cache,
    and its per-phase ``peak_rss_mb`` samples are what the
    ``--assert-peak-rss-mb`` gate reads.
    """
    from repro.obs import RunJournal, phase_breakdown
    from repro.study import EdgeStudy

    with RunJournal(None) as journal:
        study = EdgeStudy(build_scenario(scale, seed, overrides), jobs=jobs,
                          cache=cache, journal=journal)
        study.nep
        study.azure
        study.latency_results
        study.throughput_results
        study.qoe_sessions
        journal.close(counters=study.perf.counters or None)
    result = study.perf.as_dict()
    result["journal_phases"] = phase_breakdown(journal.events)
    return result


def bench(scale: str, seed: int | None, repeats: int, jobs: int,
          overrides: dict[str, int] | None = None) -> dict[str, object]:
    """Best-of-``repeats`` phase timings (min is robust to CI noise)."""
    from repro.parallel import resolve_jobs

    runs = [run_once(scale, seed, jobs, overrides=overrides)
            for _ in range(repeats)]
    phases: dict[str, dict[str, float]] = {}
    for phase in PHASES:
        samples = [run["spans"][phase] for run in runs
                   if phase in run["spans"]]
        if not samples:
            continue
        phases[phase] = {
            "wall_s": min(s["wall_s"] for s in samples),
            "cpu_s": min(s["cpu_s"] for s in samples),
        }
        peaks = [run["journal_phases"][phase]["peak_rss_mb"] for run in runs
                 if "peak_rss_mb" in run["journal_phases"].get(phase, {})]
        if peaks:
            phases[phase]["peak_rss_mb"] = max(peaks)
    total = sum(p["wall_s"] for p in phases.values())
    row = {
        "seed": effective_seed(seed),
        "jobs": resolve_jobs(jobs),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "phases": phases,
        "total_wall_s": round(total, 6),
        "counters": runs[0]["counters"],
        "python": platform_mod.python_version(),
        "numpy": np.__version__,
        "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
    }
    if overrides:
        row["overrides"] = dict(sorted(overrides.items()))
    return row


def peak_rss_mb(fresh: dict[str, object]) -> float:
    """The run's peak parent RSS: max over the tracked phases' samples."""
    peaks = [stats.get("peak_rss_mb", 0.0)
             for stats in fresh["phases"].values()]
    return max(peaks, default=0.0)


def bench_qoe(scale: str, seed: int | None, jobs: int = 1,
              sessions: int | None = None,
              reference_sessions: int = 300) -> dict[str, object]:
    """Benchmark the vectorized session engine against its reference.

    Runs the full ``qoe_sessions`` study phase (both arms, chunked,
    journaled — its wall and ``peak_rss_mb`` sample feed the RSS gate),
    then times the vectorized engine and the scalar reference on the
    same prebuilt workload — engine throughput, with the analytic
    cache-model solve kept out of both sides of the ratio — and checks
    golden-digest equivalence on a shared slice.  ``sessions``
    overrides the scale's session count.
    """
    import dataclasses

    from repro.cdn import CdnModel
    from repro.obs import RunJournal, phase_breakdown
    from repro.qoe import (ARMS, SessionDigest, build_session_workload,
                           run_sessions, simulate_reference)
    from repro.study import EdgeStudy

    overrides = ({"qoe_session_count": sessions}
                 if sessions is not None else None)
    scenario = build_scenario(scale, seed, overrides)
    with RunJournal(None) as journal:
        study = EdgeStudy(scenario, jobs=jobs, journal=journal)
        start = time.perf_counter()
        result = study.qoe_sessions
        phase_wall = time.perf_counter() - start
        journal.close(counters=study.perf.counters or None)
    breakdown = phase_breakdown(journal.events).get("qoe_sessions", {})

    workload = build_session_workload(scenario, model=CdnModel(scenario))
    start = time.perf_counter()
    for arm in ARMS:
        run_sessions(workload, arm, jobs=jobs)
    engine_wall = time.perf_counter() - start
    simulated = workload.n_sessions * len(ARMS)
    sessions_per_s = simulated / max(engine_wall, 1e-9)

    slice_workload = dataclasses.replace(workload,
                                         n_sessions=reference_sessions)
    start = time.perf_counter()
    reference = simulate_reference(slice_workload, "edge")
    reference_wall = time.perf_counter() - start
    reference_per_s = reference_sessions / max(reference_wall, 1e-9)
    digest = SessionDigest()
    digest.update(reference)
    vectorized = run_sessions(slice_workload, "edge")
    row = {
        "sessions": result.sessions,
        "ticks": result.ticks,
        "arms": len(result.arms),
        "abr": result.abr,
        "hit_ratio_mean": round(result.hit_ratio_mean, 4),
        "phase_wall_s": round(phase_wall, 6),
        "wall_s": round(engine_wall, 6),
        "sessions_per_s": round(sessions_per_s, 1),
        "reference_sessions": reference_sessions,
        "reference_sessions_per_s": round(reference_per_s, 1),
        "speedup": round(sessions_per_s / max(reference_per_s, 1e-9), 1),
        "digest_match": vectorized.digest == digest.hexdigest(),
    }
    peak = breakdown.get("peak_rss_mb")
    if peak is not None:
        row["peak_rss_mb"] = peak
    return row


def bench_live(scale: str, seed: int | None, jobs: int = 1,
               ticks: int | None = None,
               reference_ticks: int = 60) -> dict[str, object]:
    """Benchmark the vectorized live stepper against its scalar twin.

    Runs the full ``live`` study phase (journaled — its ``peak_rss_mb``
    sample is the city-tier memory row), then times the vectorized
    stepper on the full precomputed inputs and the per-server scalar
    reference on a ``reference_ticks`` prefix of the *same* inputs, and
    checks digest equivalence of the two steppers on that shared
    prefix.  ``ticks`` overrides the scale's tick count.
    """
    import dataclasses

    from repro.live import (build_live_inputs, run_live_engine,
                            run_reference_engine)
    from repro.obs import RunJournal, phase_breakdown
    from repro.platform.nep import build_nep_platform
    from repro.study import EdgeStudy

    overrides = {"live_ticks": ticks} if ticks is not None else None
    scenario = build_scenario(scale, seed, overrides)
    with RunJournal(None) as journal:
        study = EdgeStudy(scenario, jobs=jobs, journal=journal)
        start = time.perf_counter()
        result = study.live
        phase_wall = time.perf_counter() - start
        journal.close(counters=study.perf.counters or None)
    breakdown = phase_breakdown(journal.events).get("live", {})

    inputs = build_live_inputs(scenario, build_nep_platform(scenario))
    start = time.perf_counter()
    run_live_engine(inputs)
    engine_wall = time.perf_counter() - start
    ticks_per_s = inputs.ticks / max(engine_wall, 1e-9)

    reference_ticks = min(reference_ticks, inputs.ticks)
    slice_inputs = dataclasses.replace(
        inputs, ticks=reference_ticks,
        arrivals=inputs.arrivals[:reference_ticks],
        transitions=tuple(tr for tr in inputs.transitions
                          if tr[0] < reference_ticks))
    start = time.perf_counter()
    reference = run_reference_engine(slice_inputs)
    reference_wall = time.perf_counter() - start
    reference_per_s = reference_ticks / max(reference_wall, 1e-9)
    vectorized = run_live_engine(slice_inputs)
    row = {
        "ticks": result.ticks,
        "servers": result.servers,
        "autoscale": result.autoscale,
        "phase_wall_s": round(phase_wall, 6),
        "wall_s": round(engine_wall, 6),
        "ticks_per_s": round(ticks_per_s, 1),
        "reference_ticks": reference_ticks,
        "reference_ticks_per_s": round(reference_per_s, 1),
        "speedup": round(ticks_per_s / max(reference_per_s, 1e-9), 1),
        "digest_match": vectorized.digest == reference.digest,
    }
    peak = breakdown.get("peak_rss_mb")
    if peak is not None:
        row["peak_rss_mb"] = peak
    return row


#: Child program for one sweep-bench measurement.  Runs in a pristine
#: interpreter so heap/cache state left behind by the main bench can't
#: skew the forked sweep workers; wall-clock is taken *inside* the
#: child, so interpreter start-up is excluded from both sides.
_SWEEP_BENCH_CHILD = """\
import json, sys, time
from pathlib import Path

from repro.sweep import SweepSpec, load_sweep_spec, run_sweep

config, root, jobs, mode = sys.argv[1], Path(sys.argv[2]), \
    int(sys.argv[3]), sys.argv[4]
spec = load_sweep_spec(Path(config))
if mode.startswith("cell:"):
    cell = spec.cell(mode.partition(":")[2])
    solo = SweepSpec(name=f"{spec.name}-serial-{cell.name}",
                     cells=(cell,))
    start = time.perf_counter()
    result = run_sweep(solo, root / "out", cache_dir=root / "cache",
                       jobs=1)
    total = time.perf_counter() - start
    if not result.ok:
        sys.exit(f"serial baseline cell {cell.name!r} failed")
else:
    start = time.perf_counter()
    result = run_sweep(spec, root / "out", cache_dir=root / "cache",
                       jobs=jobs)
    total = time.perf_counter() - start
    if not result.ok:
        sys.exit("sweep cells failed: "
                 + ", ".join(c.name for c in result.failed))
print(json.dumps({"wall_s": total}))
"""


def _sweep_bench_child(config: Path, workdir: Path, jobs: int,
                       mode: str) -> float:
    """One isolated sweep-bench measurement; returns its wall seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_BENCH_CHILD, str(config),
         str(workdir), str(jobs), mode],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"sweep bench {mode} run failed:\n{proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["wall_s"])


def bench_sweep(config: Path, jobs: int,
                repeats: int = 3) -> dict[str, object]:
    """Sweep-orchestrator wall-clock vs serial per-cell cold runs.

    The serial baseline regenerates the campaign one cell at a time,
    each :func:`repro.sweep.run_sweep` call against its own fresh cache
    and output directory — the same code path as the sweep, minus all
    sharing.  The sweep run then executes the whole grid at once with a
    shared fresh cache and ``jobs`` workers, so cells in the same
    workload group render their artifacts exactly once.

    Every measurement runs in its own fresh interpreter (see
    :data:`_SWEEP_BENCH_CHILD`): one process *per serial cell* — the
    baseline is what N separate CLI invocations cost, fully cold each
    time — and one per whole-grid sweep.  Wall-clock is taken inside
    the child (interpreter start-up excluded on both sides) and both
    sides take the best of ``repeats`` runs, so neither leftover
    parent-process heap nor one noisy scheduler hiccup on a loaded CI
    host can flip the gate.
    """
    from repro.parallel import resolve_jobs
    from repro.sweep import load_sweep_spec

    spec = load_sweep_spec(config)
    with tempfile.TemporaryDirectory(prefix="sweep-bench-") as root:
        root_path = Path(root)
        serial_s = min(
            sum(_sweep_bench_child(
                    config, root_path / f"serial-{rep}-{index}", jobs,
                    f"cell:{cell.name}")
                for index, cell in enumerate(spec.cells))
            for rep in range(repeats))
        sweep_s = min(
            _sweep_bench_child(config, root_path / f"sweep-{rep}", jobs,
                               "sweep")
            for rep in range(repeats))
    return {
        "config": str(config),
        "cells": len(spec.cells),
        "jobs": resolve_jobs(jobs),
        "repeats": repeats,
        "serial_wall_s": round(serial_s, 6),
        "sweep_wall_s": round(sweep_s, 6),
        "speedup": round(serial_s / max(sweep_s, 1e-9), 2),
    }


def bench_cache(scale: str, seed: int | None, jobs: int,
                cache_dir: Path,
                overrides: dict[str, int] | None = None,
                ) -> dict[str, object]:
    """One cold run populating ``cache_dir``, one warm run served from it.

    Both runs record *per-phase* timings, with an explicit ``cached``
    flag per phase.  A warm phase served from the cache still gets an
    entry (its load time, ``cached: true``) instead of being dropped, so
    cold/warm rows in the ledger stay phase-aligned and comparable.
    """
    from repro.cache import ArtifactCache

    cache = ArtifactCache(cache_dir)
    timings = {}
    phase_rows: dict[str, dict[str, dict]] = {}
    for label in ("cold", "warm"):
        start = time.perf_counter()
        run = run_once(scale, seed, jobs, cache, overrides=overrides)
        timings[label] = {
            "wall_s": round(time.perf_counter() - start, 6),
            "run": run,
        }
        phase_rows[label] = {
            phase: {
                "wall_s": entry.get("wall_s"),
                "cpu_s": entry.get("cpu_s"),
                "cached": bool(entry.get("cached")),
            }
            for phase, entry in run["journal_phases"].items()
            if phase in PHASES
        }
    warm = timings["warm"]["run"]
    cold_s = timings["cold"]["wall_s"]
    warm_s = timings["warm"]["wall_s"]
    return {
        "dir": str(cache_dir),
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "warm_speedup": round(cold_s / max(warm_s, 1e-9), 2),
        "warm_hits": {phase: bool(warm["counters"].get(f"cache_hit:{phase}"))
                      for phase in PHASES},
        "phases": phase_rows,
    }


def load_ledger(path: Path) -> dict[str, object]:
    if path.exists():
        with path.open() as handle:
            return json.load(handle)
    return {"schema": 1, "runs": {}}


def write_ledger(ledger: dict[str, object], path: Path) -> None:
    """Atomically replace ``path`` with the serialized ledger.

    Written via a sibling temp file + ``os.replace`` so an interrupted
    run (ctrl-C, OOM, full disk) never leaves a truncated JSON behind
    for the next ``--check`` to choke on.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(ledger, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def check_regression(ledger: dict[str, object], scale: str,
                     fresh: dict[str, object], max_ratio: float) -> int:
    """Return 0 if the campaign phase is within budget, 1 otherwise."""
    runs = ledger.get("runs", {})
    if scale not in runs:
        print(f"check: no committed baseline for scale {scale!r}; skipping")
        return 0
    baseline = runs[scale]["phases"].get("campaign_latency")
    current = fresh["phases"].get("campaign_latency")
    if baseline is None or current is None:
        print("check: campaign_latency phase missing; skipping")
        return 0
    ratio = current["wall_s"] / max(baseline["wall_s"], 1e-9)
    verdict = "OK" if ratio <= max_ratio else "REGRESSION"
    print(f"check: campaign_latency {current['wall_s']:.3f}s vs committed "
          f"{baseline['wall_s']:.3f}s -> {ratio:.2f}x (budget "
          f"{max_ratio:.1f}x) {verdict}")
    return 0 if ratio <= max_ratio else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale",
                        choices=("smoke", "default", "paper", "city"),
                        default="default")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per phase; the minimum is kept")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for workload generation "
                             "(0 = all CPU cores)")
    parser.add_argument("--vms", type=int, default=None, metavar="N",
                        help="override both platforms' VM counts (CI-sized "
                             "probes of the city tier)")
    parser.add_argument("--sites", type=int, default=None, metavar="N",
                        help="override the NEP site count")
    parser.add_argument("--assert-peak-rss-mb", type=float, default=None,
                        metavar="MB",
                        help="exit non-zero if the parent's peak RSS over "
                             "the tracked phases exceeds this")
    parser.add_argument("--sweep-bench", type=Path, default=None,
                        metavar="CONFIG",
                        help="also time a sweep over this grid config vs "
                             "serial per-cell cold runs")
    parser.add_argument("--assert-sweep-speedup", type=float, default=None,
                        metavar="X",
                        help="with --sweep-bench: exit non-zero unless the "
                             "sweep beats the serial baseline by this "
                             "factor")
    parser.add_argument("--qoe-bench", action="store_true",
                        help="also benchmark the vectorized session "
                             "engine against the scalar reference")
    parser.add_argument("--qoe-sessions", type=int, default=None,
                        metavar="N",
                        help="with --qoe-bench: override the session "
                             "count for the vectorized run")
    parser.add_argument("--assert-qoe-speedup", type=float, default=None,
                        metavar="X",
                        help="with --qoe-bench: exit non-zero unless the "
                             "vectorized engine beats the scalar "
                             "reference by this factor")
    parser.add_argument("--live-bench", action="store_true",
                        help="also benchmark the vectorized live-platform "
                             "stepper against the scalar reference")
    parser.add_argument("--live-ticks", type=int, default=None, metavar="N",
                        help="with --live-bench: override the tick count "
                             "for the vectorized run")
    parser.add_argument("--assert-live-speedup", type=float, default=None,
                        metavar="X",
                        help="with --live-bench: exit non-zero unless the "
                             "vectorized stepper beats the scalar "
                             "reference by this factor")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="also measure a cold + warm artifact-cache "
                             "cycle rooted here")
    parser.add_argument("--assert-warm", action="store_true",
                        help="with --cache-dir: exit non-zero unless the "
                             "warm run hit the cache on every phase")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_study.json",
                        help="ledger to update (default: repo root)")
    parser.add_argument("--check", type=Path, default=None,
                        help="compare against this committed ledger instead "
                             "of writing")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed campaign_latency slowdown for --check")
    args = parser.parse_args(argv)

    if args.scale in ("paper", "city") and args.repeat > 1:
        args.repeat = 1  # a paper-scale repeat is minutes, once is plenty

    if args.assert_warm and args.cache_dir is None:
        parser.error("--assert-warm requires --cache-dir")
    if args.assert_sweep_speedup is not None and args.sweep_bench is None:
        parser.error("--assert-sweep-speedup requires --sweep-bench")
    if args.assert_qoe_speedup is not None and not args.qoe_bench:
        parser.error("--assert-qoe-speedup requires --qoe-bench")
    if args.qoe_sessions is not None and not args.qoe_bench:
        parser.error("--qoe-sessions requires --qoe-bench")
    if args.assert_live_speedup is not None and not args.live_bench:
        parser.error("--assert-live-speedup requires --live-bench")
    if args.live_ticks is not None and not args.live_bench:
        parser.error("--live-ticks requires --live-bench")

    overrides: dict[str, int] = {}
    if args.vms is not None:
        overrides["nep_vm_count"] = args.vms
        overrides["azure_vm_count"] = args.vms
    if args.sites is not None:
        overrides["nep_site_count"] = args.sites

    fresh = bench(args.scale, args.seed, args.repeat, args.jobs,
                  overrides=overrides or None)
    print(f"scale={args.scale} jobs={args.jobs} "
          f"(host: {fresh['cpu_count']} cores):")
    for phase, stats in fresh["phases"].items():
        peak = stats.get("peak_rss_mb")
        peak_note = f"  peak {peak:.0f} MB" if peak is not None else ""
        print(f"  {phase:<22}{stats['wall_s']:>9.3f}s wall "
              f"{stats['cpu_s']:>9.3f}s cpu{peak_note}")
    print(f"  {'total':<22}{fresh['total_wall_s']:>9.3f}s wall")

    if args.assert_peak_rss_mb is not None:
        peak = peak_rss_mb(fresh)
        if peak > args.assert_peak_rss_mb:
            print(f"assert-peak-rss: FAILED, peak {peak:.1f} MB exceeds "
                  f"budget {args.assert_peak_rss_mb:.1f} MB")
            return 1
        print(f"assert-peak-rss: OK, peak {peak:.1f} MB within "
              f"{args.assert_peak_rss_mb:.1f} MB")

    if args.qoe_bench:
        qoe_stats = bench_qoe(args.scale, args.seed, jobs=args.jobs,
                              sessions=args.qoe_sessions)
        fresh["qoe_sessions"] = qoe_stats
        print(f"  qoe: {qoe_stats['sessions']} sessions x "
              f"{qoe_stats['arms']} arms in {qoe_stats['wall_s']:.3f}s "
              f"({qoe_stats['sessions_per_s']:.0f}/s vectorized vs "
              f"{qoe_stats['reference_sessions_per_s']:.0f}/s scalar, "
              f"{qoe_stats['speedup']}x)")
        if not qoe_stats["digest_match"]:
            print("qoe-digest: FAILED, vectorized output diverges from "
                  "the scalar reference")
            return 1
        print("qoe-digest: OK, vectorized matches the scalar reference "
              "bit for bit")
        if args.assert_qoe_speedup is not None:
            if qoe_stats["speedup"] < args.assert_qoe_speedup:
                print(f"assert-qoe-speedup: FAILED, "
                      f"{qoe_stats['speedup']}x below the "
                      f"{args.assert_qoe_speedup}x budget")
                return 1
            print(f"assert-qoe-speedup: OK, {qoe_stats['speedup']}x "
                  f">= {args.assert_qoe_speedup}x")
        qoe_peak = qoe_stats.get("peak_rss_mb")
        if (args.assert_peak_rss_mb is not None and qoe_peak is not None
                and qoe_peak > args.assert_peak_rss_mb):
            print(f"assert-peak-rss: FAILED, qoe phase peaked at "
                  f"{qoe_peak:.1f} MB over "
                  f"{args.assert_peak_rss_mb:.1f} MB")
            return 1

    if args.live_bench:
        live_stats = bench_live(args.scale, args.seed, jobs=args.jobs,
                                ticks=args.live_ticks)
        fresh["live"] = live_stats
        print(f"  live: {live_stats['ticks']} ticks over "
              f"{live_stats['servers']} servers in "
              f"{live_stats['wall_s']:.3f}s "
              f"({live_stats['ticks_per_s']:.0f} ticks/s vectorized vs "
              f"{live_stats['reference_ticks_per_s']:.0f} ticks/s scalar, "
              f"{live_stats['speedup']}x)")
        if not live_stats["digest_match"]:
            print("live-digest: FAILED, vectorized stepper diverges from "
                  "the scalar reference")
            return 1
        print("live-digest: OK, vectorized matches the scalar reference "
              "bit for bit")
        if args.assert_live_speedup is not None:
            if live_stats["speedup"] < args.assert_live_speedup:
                print(f"assert-live-speedup: FAILED, "
                      f"{live_stats['speedup']}x below the "
                      f"{args.assert_live_speedup}x budget")
                return 1
            print(f"assert-live-speedup: OK, {live_stats['speedup']}x "
                  f">= {args.assert_live_speedup}x")
        live_peak = live_stats.get("peak_rss_mb")
        if (args.assert_peak_rss_mb is not None and live_peak is not None
                and live_peak > args.assert_peak_rss_mb):
            print(f"assert-peak-rss: FAILED, live phase peaked at "
                  f"{live_peak:.1f} MB over "
                  f"{args.assert_peak_rss_mb:.1f} MB")
            return 1

    if args.sweep_bench is not None:
        sweep_stats = bench_sweep(args.sweep_bench, args.jobs)
        fresh["sweep"] = sweep_stats
        print(f"  sweep: serial {sweep_stats['serial_wall_s']:.3f}s, "
              f"sweep {sweep_stats['sweep_wall_s']:.3f}s "
              f"({sweep_stats['speedup']}x over {sweep_stats['cells']} "
              f"cells, jobs={sweep_stats['jobs']})")
        if args.assert_sweep_speedup is not None:
            if sweep_stats["speedup"] < args.assert_sweep_speedup:
                print(f"assert-sweep-speedup: FAILED, "
                      f"{sweep_stats['speedup']}x below the "
                      f"{args.assert_sweep_speedup}x budget")
                return 1
            print(f"assert-sweep-speedup: OK, {sweep_stats['speedup']}x "
                  f">= {args.assert_sweep_speedup}x")

    if args.cache_dir is not None:
        cache_stats = bench_cache(args.scale, args.seed, args.jobs,
                                  args.cache_dir,
                                  overrides=overrides or None)
        fresh["cache"] = cache_stats
        print(f"  cache: cold {cache_stats['cold_wall_s']:.3f}s, warm "
              f"{cache_stats['warm_wall_s']:.3f}s "
              f"({cache_stats['warm_speedup']}x)")
        if args.assert_warm:
            missed = [phase for phase, hit
                      in cache_stats["warm_hits"].items() if not hit]
            if missed:
                print(f"assert-warm: FAILED, regenerated: "
                      f"{', '.join(missed)}")
                return 1
            print("assert-warm: OK, every phase served from the cache")

    if args.check is not None:
        return check_regression(load_ledger(args.check), args.scale, fresh,
                                args.max_regression)

    ledger = load_ledger(args.output)
    runs = ledger.setdefault("runs", {})
    previous = runs.get(args.scale, {})
    # Carry forward sections a past run measured but this one did not:
    # replacing the scale row wholesale would silently drop e.g. the
    # sweep comparison whenever a later run skips --sweep-bench.
    for section in OPTIONAL_SECTIONS:
        if section not in fresh and section in previous:
            fresh[section] = previous[section]
    runs[args.scale] = fresh
    write_ledger(ledger, args.output)
    print(f"updated {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
