#!/usr/bin/env python
"""Check the CLI's determinism contracts and the CI performance gates.

One harness behind every CI probe (``docs/resilience.md``,
``docs/live.md``, ``docs/sweep.md``, ``docs/performance.md``).  Each
scenario exits 1 with ``probe: FAILED, ...`` on the first broken
promise, and a missing measurement counts as a broken promise.  The
determinism scenarios and ``warm-cache`` run ``python -m repro``
children against this checkout's ``src`` and compare their stdout and
canonical journals; ``sweep-dedup`` times sweep children.  ``campaign``,
``city-rss`` and ``engines`` measure studies in this process.

``chaos``
    ``repro run`` clean and under ``--chaos PROFILE``, each against its
    own cold cache.  Both exit 0, their stdouts are byte-identical, their
    journals canonicalise to the same events, the chaos run stays under
    ``--max-retries`` recovery events and quarantines nothing, and with
    ``--jobs >= 2`` and a profile that kills workers at least one
    ``worker_restart`` proves the watchdog ran.
``live``
    ``repro run live`` with the cache off: clean at ``--jobs 1``, clean at
    ``--jobs N`` and under chaos.  All exit 0 with byte-identical stdout,
    the clean and chaos journals canonicalise equal, and a profile that
    arms ``live.tick`` must journal at least one ``live_retry``.
``study-resume``
    SIGKILLs ``repro run`` the moment its first phase commits to the
    cache, then reruns the same command: it exits 0, every phase
    committed before the kill is served as a ``cache_hit`` (never
    re-stored), and at least one more phase commits.
``sweep-resume``
    SIGKILLs ``repro sweep run`` once its first cell publishes: only
    complete cells are visible, a resume completes exactly the rest and
    leaves finished cells byte-untouched, and a second resume is a
    no-op.  ``--kill worker`` instead SIGKILLs one of the sweep's farm
    workers mid-cell: the sweep still completes every cell and journals
    a ``worker_restart``.

The gate scenarios take no options; their thresholds are the module
constants below.

``campaign``
    The best ``campaign_latency`` span of ``CAMPAIGN_REPEATS`` smoke
    studies is within ``CAMPAIGN_MAX_RATIO`` of ``CAMPAIGN_REFERENCE_S``.
``warm-cache``
    ``repro run`` cold, then warm, against one cache: the warm run
    serves every tracked phase from the cache, and ``repro cache
    verify`` passes.
``city-rss``
    A CI-sized city workload through the tracked phases, then the full
    city fleet's live phase: peak RSS within ``PEAK_RSS_BUDGET_MB``, live
    digest equal to the scalar reference's.
``engines``
    The QoE and live engines match their scalar references' digests and
    beat them by ``QOE_MIN_SPEEDUP`` and ``LIVE_MIN_SPEEDUP``; both
    phases stay within the RSS budget.
``sweep-dedup``
    One sweep over ``ci_smoke.toml`` beats its cells run one by one,
    cold, by ``SWEEP_MIN_SPEEDUP`` (jobs=1, best of ``SWEEP_REPEATS``).

Usage::

    PYTHONPATH=src python scripts/probe.py chaos --jobs 2 --max-retries 25
    PYTHONPATH=src python scripts/probe.py chaos fig9 --profile harsh
    PYTHONPATH=src python scripts/probe.py live --ticks 200 --jobs 4
    PYTHONPATH=src python scripts/probe.py study-resume --jobs 2
    PYTHONPATH=src python scripts/probe.py sweep-resume \\
        benchmarks/sweeps/ci_smoke.toml --jobs 2 [--kill worker]
    PYTHONPATH=src python scripts/probe.py campaign
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Volatile event types that tell a chaos run's recovery story.
RECOVERY_EVENTS = ("job_retry", "worker_restart", "cache_retry",
                   "job_quarantined", "cache_write_error")

#: The study phases the gates track, in execution order, each mapped to
#: the ``EdgeStudy`` attribute that runs it.
PHASES = {"workload_nep": "nep", "workload_azure": "azure",
          "campaign_latency": "latency_results",
          "campaign_throughput": "throughput_results",
          "qoe_sessions": "qoe_sessions"}

#: Best smoke ``campaign_latency`` wall seconds in the benchmark ledger
#: this gate replaced (its smoke row, recorded on 1 core on 2026-08-08).
CAMPAIGN_REFERENCE_S = 0.031545
#: Allowed slowdown of the best of ``CAMPAIGN_REPEATS`` in-process runs.
#: In-process on purpose: a fresh child would time the campaign cold.
CAMPAIGN_MAX_RATIO = 2.0
CAMPAIGN_REPEATS = 5

#: Peak parent RSS (VmHWM, as the run journal samples it per phase) for
#: the city probe and the 50k-session QoE phase.
PEAK_RSS_BUDGET_MB = 2048
#: The CI-sized city workload; the live phase keeps the full city fleet.
CITY_OVERRIDES = {"nep_vm_count": 400, "azure_vm_count": 400,
                  "nep_site_count": 60}
CITY_LIVE_TICKS = 120

QOE_SESSIONS = 50_000
QOE_REFERENCE_SESSIONS = 300
QOE_MIN_SPEEDUP = 50.0
LIVE_REFERENCE_TICKS = 60
LIVE_MIN_SPEEDUP = 10.0

#: Experiments whose warm re-run must touch every tracked phase.
WARM_EXPERIMENTS = ("fig2a", "fig5", "fig8", "qoe-sessions")

SWEEP_CONFIG = REPO / "benchmarks" / "sweeps" / "ci_smoke.toml"
SWEEP_MIN_SPEEDUP = 2.0
SWEEP_REPEATS = 3


class ProbeFailure(Exception):
    """A contract the probe checks was broken."""


def fail(message: str) -> None:
    """Abort the probe with ``message``."""
    raise ProbeFailure(message)


# ---- the child-run and journal-compare core ------------------------------


def child_env() -> dict[str, str]:
    """The environment of a child run: this checkout first, no chaos."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_FAILPOINTS", None)  # the child decides its own chaos
    return env


def repro(*args: object) -> list[str]:
    """The argv of one ``python -m repro`` invocation."""
    return [sys.executable, "-m", "repro", *map(str, args)]


def run(argv: list[str], name: str) -> bytes:
    """Run a child to completion; its stdout, or fail on a non-zero exit."""
    proc = subprocess.run(argv, env=child_env(), stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"{name} run exited {proc.returncode}")
    return proc.stdout


def run_journaled(argv: list[str], root: Path, name: str,
                  chaos: str | None = None) -> tuple[bytes, Path]:
    """Run a child writing ``root/<name>.jsonl``; (stdout, journal path)."""
    journal = root / f"{name}.jsonl"
    argv = argv + ["--log-json", str(journal)]
    if chaos is not None:
        argv += ["--chaos", chaos]
    return run(argv, name), journal


def load(*journals: Path) -> list[list[dict]]:
    """Each journal's events; fail on any unreadable line."""
    from repro.obs import read_journal

    loaded, warnings = [], []
    for path in journals:
        events, problems = read_journal(path)
        loaded.append(events)
        warnings += problems
    if warnings:
        fail(f"journal warnings: {warnings}")
    return loaded


def same_canonical(a: list[dict], b: list[dict]) -> None:
    """Fail unless two journals canonicalise to the same events."""
    from repro.obs import canonical_events

    if canonical_events(a) != canonical_events(b):
        fail("canonical journals differ")
    print("probe: canonical journals identical")


def count(events: list[dict], etype: str) -> int:
    """How many events of one type a journal holds."""
    return sum(1 for event in events if event["type"] == etype)


def sha(blob: bytes) -> str:
    """A short digest for the log."""
    return hashlib.sha256(blob).hexdigest()[:12]


@contextmanager
def launch(argv: list[str]) -> Iterator[subprocess.Popen]:
    """Start a child; SIGKILL it on leaving the block if still running."""
    proc = subprocess.Popen(argv, env=child_env(),
                            stdout=subprocess.DEVNULL)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)


def wait_for(proc: subprocess.Popen, ready: Callable[[], object],
             timeout_s: float, larger: str) -> object:
    """Poll until ``ready()`` is truthy and return it (``None`` on
    timeout); fail when the child exits first."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if proc.poll() is not None:
            fail(f"the run finished before it could be interrupted; "
                 f"use a larger {larger}")
        found = ready()
        if found:
            return found
        time.sleep(0.01)
    return None


# ---- scenarios -----------------------------------------------------------


def probe_chaos(args: argparse.Namespace, root: Path) -> str:
    """Clean vs ``--chaos`` run of the same experiments."""
    from repro.resilience import chaos_spec

    spec = chaos_spec(args.profile)

    def run_cli(name: str, chaos: str | None) -> tuple[bytes, Path]:
        return run_journaled(
            repro("run", *args.experiments, "--scale", args.scale,
                  "--jobs", args.jobs, "--cache-dir", root / f"cache-{name}"),
            root, name, chaos)

    clean_out, clean_journal = run_cli("clean", None)
    chaos_out, chaos_journal = run_cli("chaos", args.profile)
    if clean_out != chaos_out:
        fail("chaos run produced different stdout")
    print(f"probe: stdout identical (sha256 {sha(clean_out)})")
    clean, chaotic = load(clean_journal, chaos_journal)
    same_canonical(clean, chaotic)

    counts = {etype: count(chaotic, etype) for etype in RECOVERY_EVENTS}
    recovered = sum(counts.values())
    story = " ".join(f"{k}={v}" for k, v in counts.items() if v)
    print(f"probe: chaos run recovered from {recovered} event(s)"
          + (f" ({story})" if story else ""))
    if counts["job_quarantined"]:
        fail("chaos run quarantined a job")
    if recovered > args.max_retries:
        fail(f"{recovered} recovery events exceed the --max-retries "
             f"ceiling of {args.max_retries}")
    if args.jobs >= 2 and "pool.kill_worker" in spec \
            and not counts["worker_restart"]:
        fail("profile kills pool workers but no worker_restart was "
             "journaled")
    return f"--chaos {args.profile} run is behaviour-identical"


def probe_live(args: argparse.Namespace, root: Path) -> str:
    """The live engine across ``--jobs`` and under chaos."""
    from repro.resilience import chaos_spec

    spec = chaos_spec(args.profile)

    def run_live(name: str, jobs: int,
                 chaos: str | None) -> tuple[bytes, Path]:
        argv = repro("run", "live", "--scale", args.scale, "--ticks",
                     args.ticks, "--jobs", jobs, "--no-cache")
        if args.faults is not None:
            argv += ["--faults", args.faults]
        return run_journaled(argv, root, name, chaos)

    clean_out, clean_journal = run_live("clean", 1, None)
    jobs_out, _ = run_live("jobs", args.jobs, None)
    chaos_out, chaos_journal = run_live("chaos", 1, args.profile)
    if clean_out != jobs_out:
        fail(f"--jobs {args.jobs} run produced different stdout")
    print(f"probe: stdout identical across --jobs 1/{args.jobs}")
    if clean_out != chaos_out:
        fail("chaos run produced different stdout")
    print(f"probe: stdout identical under --chaos {args.profile} "
          f"(sha256 {sha(clean_out)})")
    clean, chaotic = load(clean_journal, chaos_journal)
    same_canonical(clean, chaotic)

    retries = count(chaotic, "live_retry")
    print(f"probe: chaos run absorbed {retries} live.tick fault(s) via "
          f"retry")
    if "live.tick" in spec and not retries:
        fail("profile arms live.tick but no live_retry was journaled")
    return (f"live run is bit-identical across --jobs and --chaos "
            f"{args.profile}")


def committed_artifacts(cache: Path) -> list[str]:
    """Artifact names of the entries published under ``cache``."""
    return sorted(json.loads(p.read_text(encoding="utf-8"))["artifact"]
                  for p in cache.glob("??/*/meta.json"))


def probe_study_resume(args: argparse.Namespace, root: Path) -> str:
    """SIGKILL a study after its first commit, then rerun it."""
    cache = root / "cache"
    base = repro("run", *args.experiments, "--scale", args.scale,
                 "--jobs", args.jobs, "--cache-dir", cache)
    with launch(base) as proc:
        wait_for(proc, lambda: committed_artifacts(cache), args.timeout,
                 "scale")
    cached = committed_artifacts(cache)
    if not cached:
        fail("no phase committed before the kill")
    print(f"probe: killed the run after {len(cached)} committed phase(s)")

    _, journal = run_journaled(base, root, "rerun")
    events, = load(journal)
    hits = {e["artifact"] for e in events if e["type"] == "cache_hit"}
    stores = sorted(e["artifact"] for e in events
                    if e["type"] == "cache_store")
    rebuilt = [name for name in cached
               if name in stores or name not in hits]
    if rebuilt:
        fail(f"committed phase(s) re-ran: {', '.join(rebuilt)}")
    # A rerun that did no new work means the kill came too late.
    if not stores:
        fail("rerun committed nothing new; the kill landed after the "
             "whole run finished")
    return (f"rerun served {len(cached)} phase(s) from cache "
            f"({', '.join(cached)}) and committed {len(stores)} more "
            f"({', '.join(stores)})")


def visible_cells(cells_dir: Path) -> list[Path]:
    """Published cell directories (staging dirs are not cells)."""
    if not cells_dir.exists():
        return []
    return sorted(p for p in cells_dir.iterdir()
                  if p.is_dir() and not p.name.startswith(".tmp-"))


def farm_workers(pid: int) -> list[int]:
    """Forked farm workers of ``pid`` (multiprocessing helper processes
    such as the resource tracker run a different command line)."""
    try:
        raw = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    workers = []
    for child in (int(token) for token in raw.split()):
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"tracker" not in cmdline:
            workers.append(child)
    return workers


def probe_sweep_resume(args: argparse.Namespace, root: Path) -> str:
    """SIGKILL a sweep (or one of its workers) and check what survives."""
    from repro.sweep import load_sweep_spec, run_sweep
    from repro.sweep.runner import JOURNAL_NAME

    spec = load_sweep_spec(args.config)
    out, cache = root / "out", root / "cache"
    cells_dir = out / "cells"
    argv = repro("sweep", "run", args.config, "--out", out, "--cache-dir",
                 cache, "--jobs", args.jobs)

    if args.kill == "worker":
        if args.jobs < 2:
            fail("--kill worker needs --jobs >= 2 (a serial sweep has no "
                 "farm workers)")
        with launch(argv) as proc:
            workers = wait_for(proc, lambda: farm_workers(proc.pid),
                               args.timeout, "grid")
            if not workers:
                fail("no farm worker appeared before the timeout")
            os.kill(workers[0], signal.SIGKILL)
            returncode = proc.wait(timeout=600)
        print(f"probe: SIGKILLed farm worker {workers[0]} mid-sweep")
        if returncode != 0:
            fail(f"sweep exited {returncode} after the worker kill")
        completed = visible_cells(cells_dir)
        if len(completed) != len(spec.cells):
            fail(f"only {len(completed)}/{len(spec.cells)} cells "
                 f"completed")
        events, = load(out / JOURNAL_NAME)
        restarts = [e for e in events if e["type"] == "worker_restart"]
        if not restarts:
            fail("no worker_restart event journaled")
        return (f"sweep completed all {len(completed)} cells after "
                f"restarting the worker of cell "
                f"{restarts[0].get('task')!r}")

    if len(spec.cells) < 2:
        fail(f"config has {len(spec.cells)} cell(s); need >= 2")
    with launch(argv) as proc:
        wait_for(proc, lambda: visible_cells(cells_dir), args.timeout,
                 "grid")
    completed = [p.name for p in visible_cells(cells_dir)]
    if not completed:
        fail("no cell completed before the kill")
    print(f"probe: killed after {len(completed)}/{len(spec.cells)} "
          f"cell(s): {', '.join(completed)}")

    for cell_dir in visible_cells(cells_dir):
        payload = json.loads(
            (cell_dir / "result.json").read_text(encoding="utf-8"))
        if payload.get("status") != "ok":
            fail(f"visible cell {cell_dir.name!r} is not complete")
    before = {p.name: (p / "journal.jsonl").read_bytes()
              for p in visible_cells(cells_dir)}

    resumed = run_sweep(spec, out, cache_dir=str(cache), jobs=args.jobs)
    statuses = {c.name: c.status for c in resumed.cells}
    if not resumed.ok:
        fail(f"resume left failed cells: {', '.join(resumed.failed)}")
    wrong = [name for name in completed if statuses.get(name) != "resumed"]
    if wrong:
        fail(f"completed cell(s) re-ran: {', '.join(wrong)}")
    for name, blob in before.items():
        if (cells_dir / name / "journal.jsonl").read_bytes() != blob:
            fail(f"resume rewrote {name!r}")
    fresh = sum(1 for s in statuses.values() if s == "ok")
    print(f"probe: resume completed the remaining {fresh} cell(s), "
          f"finished cells untouched")

    noop = run_sweep(spec, out, cache_dir=str(cache), jobs=args.jobs)
    if not (noop.ok and noop.resumed == len(noop.cells)):
        fail("finished sweep re-run was not a no-op")
    return "finished sweep re-run is a no-op"


# ---- performance gates ---------------------------------------------------


def run_study(scenario, phases) -> tuple[object, dict[str, dict]]:
    """Run ``phases`` of one journaled in-process study at jobs=1; the
    study and its journal's per-phase breakdown."""
    from repro.obs import RunJournal, phase_breakdown
    from repro.study import EdgeStudy

    attrs = {**PHASES, "live": "live"}
    with RunJournal(None) as journal:
        study = EdgeStudy(scenario, journal=journal)
        for phase in phases:
            getattr(study, attrs[phase])
        journal.close(counters=study.perf.counters or None)
    return study, phase_breakdown(journal.events)


def within_rss_budget(label: str, breakdown: dict[str, dict],
                      phases) -> None:
    """Fail unless every phase has a ``peak_rss_mb`` sample and the
    peak over them is within ``PEAK_RSS_BUDGET_MB``."""
    missing = [phase for phase in phases
               if "peak_rss_mb" not in breakdown.get(phase, {})]
    if missing:
        fail(f"no peak_rss_mb sample for {', '.join(missing)}")
    peak = max(breakdown[phase]["peak_rss_mb"] for phase in phases)
    if peak > PEAK_RSS_BUDGET_MB:
        fail(f"{label} peaked at {peak:.1f} MB, over the "
             f"{PEAK_RSS_BUDGET_MB} MB budget")
    print(f"probe: {label} peak {peak:.1f} MB within "
          f"{PEAK_RSS_BUDGET_MB} MB")


def at_least(label: str, speedup: float, floor: float) -> None:
    """Fail unless ``speedup`` reaches ``floor``."""
    if speedup < floor:
        fail(f"{label} speedup {speedup:.1f}x is below the {floor:g}x "
             f"floor")
    print(f"probe: {label} speedup {speedup:.1f}x >= {floor:g}x")


def timed(fn: Callable, *args) -> tuple[object, float]:
    """``fn(*args)`` and its wall seconds."""
    start = time.perf_counter()
    result = fn(*args)
    return result, max(time.perf_counter() - start, 1e-9)


def qoe_engine(scenario) -> float:
    """The vectorized QoE engine's speedup over the scalar reference.

    Runs the ``qoe_sessions`` phase within the RSS budget, then times
    both arms of the vectorized engine on a prebuilt workload (the CDN
    solve stays out of the ratio) against the scalar reference on a
    ``QOE_REFERENCE_SESSIONS`` slice, whose digests must match.
    """
    from repro.cdn import CdnModel
    from repro.qoe import (ARMS, SessionDigest, build_session_workload,
                           run_sessions, simulate_reference)

    _, breakdown = run_study(scenario, ("qoe_sessions",))
    within_rss_budget("qoe_sessions phase", breakdown, ("qoe_sessions",))
    workload = build_session_workload(scenario, model=CdnModel(scenario))
    _, engine_s = timed(lambda: [run_sessions(workload, arm)
                                 for arm in ARMS])
    count = QOE_REFERENCE_SESSIONS
    sliced = dataclasses.replace(workload, n_sessions=count)
    reference, reference_s = timed(simulate_reference, sliced, "edge")
    digest = SessionDigest()
    digest.update(reference)
    if run_sessions(sliced, "edge").digest != digest.hexdigest():
        fail(f"qoe engine diverges from the scalar reference on "
             f"{count} sessions")
    print(f"probe: qoe {workload.n_sessions} sessions x {len(ARMS)} arms "
          f"in {engine_s:.3f}s, digest equal to the scalar reference on "
          f"{count} sessions")
    sessions = workload.n_sessions * len(ARMS)
    return (sessions / engine_s) / (count / reference_s)


def live_engine(scenario) -> float:
    """The vectorized live stepper's speedup over the scalar reference.

    Runs the ``live`` phase within the RSS budget, then times the
    vectorized stepper on the full inputs against the scalar reference
    on a ``LIVE_REFERENCE_TICKS`` prefix, whose digests must match.
    """
    from repro.live import (build_live_inputs, run_live_engine,
                            run_reference_engine)
    from repro.platform.nep import build_nep_platform

    _, breakdown = run_study(scenario, ("live",))
    within_rss_budget("live phase", breakdown, ("live",))
    inputs = build_live_inputs(scenario, build_nep_platform(scenario))
    _, engine_s = timed(run_live_engine, inputs)
    ticks = min(LIVE_REFERENCE_TICKS, inputs.ticks)
    prefix = dataclasses.replace(
        inputs, ticks=ticks, arrivals=inputs.arrivals[:ticks],
        transitions=tuple(tr for tr in inputs.transitions if tr[0] < ticks))
    reference, reference_s = timed(run_reference_engine, prefix)
    if run_live_engine(prefix).digest != reference.digest:
        fail(f"live stepper diverges from the scalar reference on a "
             f"{ticks}-tick prefix")
    print(f"probe: live {inputs.ticks} ticks in {engine_s:.3f}s, digest "
          f"equal to the scalar reference on a {ticks}-tick prefix")
    return (inputs.ticks / engine_s) / (ticks / reference_s)


def probe_campaign(args: argparse.Namespace, root: Path) -> str:
    """The smoke latency campaign against its reference time."""
    from repro.study import scenario_for

    scenario = scenario_for("smoke")
    walls = []
    for _ in range(CAMPAIGN_REPEATS):
        study, _ = run_study(scenario, PHASES)
        span = study.perf.as_dict()["spans"].get("campaign_latency")
        if span is None:
            fail("no campaign_latency span recorded")
        walls.append(span["wall_s"])
    ratio = min(walls) / CAMPAIGN_REFERENCE_S
    print(f"probe: campaign_latency best of {len(walls)} {min(walls):.3f}s "
          f"vs reference {CAMPAIGN_REFERENCE_S}s -> {ratio:.2f}x")
    if ratio > CAMPAIGN_MAX_RATIO:
        fail(f"campaign_latency regressed {ratio:.2f}x, over the "
             f"{CAMPAIGN_MAX_RATIO:g}x budget")
    return f"campaign_latency within {CAMPAIGN_MAX_RATIO:g}x of reference"


def check_warm(events: list[dict]) -> None:
    """Fail unless the journal served every tracked phase from the cache
    and stored none of them."""
    from repro.obs import phase_breakdown

    phases = phase_breakdown(events)
    stored = {e.get("artifact") for e in events
              if e.get("type") == "cache_store"}
    missing = [phase for phase in PHASES if phase not in phases]
    if missing:
        fail(f"warm journal lacks phase(s): {', '.join(missing)}")
    cold = [phase for phase in PHASES
            if not phases[phase].get("cached") or phase in stored]
    if cold:
        fail(f"warm run regenerated: {', '.join(cold)}")


def probe_warm_cache(args: argparse.Namespace, root: Path) -> str:
    """A cold then a warm run against one cache, then cache verify."""
    cache = root / "cache"
    argv = repro("run", *WARM_EXPERIMENTS, "--scale", "smoke", "--jobs", 2,
                 "--cache-dir", cache)
    run_journaled(argv, root, "cold")
    _, journal = run_journaled(argv, root, "warm")
    events, = load(journal)
    check_warm(events)
    print(f"probe: warm run served {', '.join(PHASES)} from the cache")
    verdict = run(repro("cache", "verify", "--cache-dir", cache),
                  "cache verify")
    print(verdict.decode().strip())
    return "warm run hit the cache on every phase and the entries verify"


def probe_city_rss(args: argparse.Namespace, root: Path) -> str:
    """City-tier peak RSS: a CI-sized workload, then the full live fleet."""
    from repro.study import scenario_for

    _, breakdown = run_study(scenario_for("city", overrides=CITY_OVERRIDES),
                             PHASES)
    within_rss_budget("city workload phases", breakdown, PHASES)
    live_engine(scenario_for("city",
                             overrides={"live_ticks": CITY_LIVE_TICKS}))
    return "city probe within its memory budget"


def probe_engines(args: argparse.Namespace, root: Path) -> str:
    """The QoE and live engines against their scalar twins."""
    from repro.study import scenario_for

    at_least("qoe", qoe_engine(scenario_for(
        "smoke", overrides={"qoe_session_count": QOE_SESSIONS})),
        QOE_MIN_SPEEDUP)
    at_least("live", live_engine(scenario_for("smoke")), LIVE_MIN_SPEEDUP)
    return "vectorized engines match and outrun their scalar references"


#: One sweep-dedup measurement, run in a fresh interpreter so the heap
#: of earlier runs cannot skew it.  Wall time is taken inside the child,
#: which keeps interpreter start-up out of both sides of the ratio.
_SWEEP_BENCH_CHILD = """\
import json, sys, time
from pathlib import Path

from repro.sweep import SweepSpec, load_sweep_spec, run_sweep

config, root, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
spec = load_sweep_spec(Path(config))
if mode.startswith("cell:"):
    cell = spec.cell(mode.partition(":")[2])
    spec = SweepSpec(name=f"{spec.name}-serial-{cell.name}", cells=(cell,))
start = time.perf_counter()
result = run_sweep(spec, root / "out", cache_dir=root / "cache", jobs=1)
total = time.perf_counter() - start
if not result.ok:
    sys.exit("sweep cells failed: " + ", ".join(c.name for c in result.failed))
print(json.dumps({"wall_s": total}))
"""


def sweep_child(workdir: Path, mode: str) -> float:
    """One isolated sweep measurement; its wall seconds."""
    out = run([sys.executable, "-c", _SWEEP_BENCH_CHILD, str(SWEEP_CONFIG),
               str(workdir), mode], f"sweep {mode}")
    return float(json.loads(out.splitlines()[-1])["wall_s"])


def probe_sweep_dedup(args: argparse.Namespace, root: Path) -> str:
    """One sweep against its cells run one by one, each cold."""
    from repro.sweep import load_sweep_spec

    cells = load_sweep_spec(SWEEP_CONFIG).cells
    serial_s = min(
        sum(sweep_child(root / f"serial-{rep}-{index}", f"cell:{cell.name}")
            for index, cell in enumerate(cells))
        for rep in range(SWEEP_REPEATS))
    sweep_s = min(sweep_child(root / f"sweep-{rep}", "sweep")
                  for rep in range(SWEEP_REPEATS))
    print(f"probe: {len(cells)} cells serial {serial_s:.3f}s, sweep "
          f"{sweep_s:.3f}s (best of {SWEEP_REPEATS}, jobs=1)")
    at_least("sweep", serial_s / sweep_s, SWEEP_MIN_SPEEDUP)
    return "sweep dedup pays for itself"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="scenario", required=True)

    chaos = sub.add_parser("chaos", help="clean vs --chaos study run")
    chaos.add_argument("experiments", nargs="*",
                       default=["fig2a", "table3", "qoe-sessions"],
                       help="experiments to run "
                            "(default: fig2a table3 qoe-sessions)")
    chaos.add_argument("--profile", default="ci",
                       help="chaos profile for the faulty run")
    chaos.add_argument("--scale", default="smoke")
    chaos.add_argument("--jobs", type=int, default=2)
    chaos.add_argument("--max-retries", type=int, default=25,
                       help="ceiling on total recovery events in the "
                            "chaos run")
    chaos.set_defaults(probe=probe_chaos)

    live = sub.add_parser("live", help="live engine across --jobs and "
                                       "--chaos")
    live.add_argument("--profile", default="ci",
                      help="chaos profile for the faulty run")
    live.add_argument("--scale", default="smoke")
    live.add_argument("--ticks", type=int, default=200)
    live.add_argument("--jobs", type=int, default=4,
                      help="the alternate --jobs for the equality check")
    live.add_argument("--faults", default=None,
                      help="also interleave this fault profile "
                           "(simulation weather, not harness chaos)")
    live.set_defaults(probe=probe_live)

    study = sub.add_parser("study-resume",
                           help="SIGKILL a study mid-run, then rerun it")
    study.add_argument("experiments", nargs="*",
                       default=["fig2a", "fig9", "table3"],
                       help="experiments to run "
                            "(default: fig2a fig9 table3)")
    study.add_argument("--scale", default="smoke")
    study.add_argument("--jobs", type=int, default=1)
    study.add_argument("--timeout", type=float, default=300.0,
                       help="seconds to wait for the first commit")
    study.set_defaults(probe=probe_study_resume)

    sweep = sub.add_parser("sweep-resume",
                           help="SIGKILL a sweep or one of its workers")
    sweep.add_argument("config", type=Path,
                       help="sweep spec (.toml or .json), >= 2 cells")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="concurrent cells for the killed run and the "
                            "resume")
    sweep.add_argument("--timeout", type=float, default=300.0,
                       help="seconds to wait for the first cell (or "
                            "worker) before giving up")
    sweep.add_argument("--kill", choices=("sweep", "worker"),
                       default="sweep",
                       help="what to SIGKILL: the whole sweep process "
                            "(resume contract) or one of its farm workers "
                            "(supervision contract)")
    sweep.set_defaults(probe=probe_sweep_resume)

    for name, probe in (("campaign", probe_campaign),
                        ("warm-cache", probe_warm_cache),
                        ("city-rss", probe_city_rss),
                        ("engines", probe_engines),
                        ("sweep-dedup", probe_sweep_dedup)):
        sub.add_parser(name, help=probe.__doc__.splitlines()[0]) \
            .set_defaults(probe=probe)

    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
            verdict = args.probe(args, Path(tmp))
    except ProbeFailure as exc:
        print(f"probe: FAILED, {exc}")
        return 1
    print(f"probe: OK, {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
