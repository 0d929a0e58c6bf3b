"""Command-line interface: regenerate any paper figure from a terminal.

Usage::

    python -m repro list                     # available experiments
    python -m repro info [--scale smoke]     # scenario + platform summary
    python -m repro run fig2a table3         # regenerate figures
    python -m repro run all --scale smoke --seed 7
    python -m repro run all --log-json run.jsonl   # + structured journal
    python -m repro run all --scale paper    # rerun after a kill resumes
    python -m repro trace summary run.jsonl  # render a journal
    python -m repro export ./datasets        # the paper's two datasets
    python -m repro sweep run grid.toml --jobs 2   # scenario sweep
    python -m repro sweep report sweep-grid  # cross-cell comparison
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .cache import ArtifactCache, default_cache_dir
from .config import ABR_POLICIES, AUTOSCALE_MODES, FAULT_PROFILES
from .errors import ReproError
from .obs import RunJournal, diff_journals, read_journal, render_show, \
    render_summary
from .reports import REPORTS
from .resilience import CHAOS_PROFILES, chaos_spec, install
from .study import SCALES, EdgeStudy, scenario_for

#: Human-readable one-liners for `repro list`.
DESCRIPTIONS = {
    "table1": "deployment density of clouds vs NEP",
    "fig2a": "mean RTT CDFs per access network and baseline",
    "fig2b": "RTT jitter (coefficient of variation)",
    "table2": "per-hop latency shares",
    "fig3": "hop counts to edge vs cloud",
    "fig4": "inter-site RTT vs distance",
    "fig5": "throughput vs distance per access type",
    "fig6": "cloud-gaming response delay",
    "fig7": "live-streaming delay",
    "fig8": "VM sizes, NEP vs Azure",
    "fig9": "VMs per app",
    "fig10": "CPU utilisation distributions",
    "fig11": "load imbalance across machines/sites",
    "fig12": "weekly bandwidth of sample VMs",
    "fig13": "per-app cross-VM usage gap",
    "fig14": "CPU usage predictability (Holt-Winters + LSTM)",
    "table3": "monetary cost, NEP vs virtual clouds",
    "table6": "QoE testbed RTTs",
    "sales": "sales-rate skew (§4.1 prose)",
    "categories": "application types and traffic shares (§4.1)",
    "findings": "the paper's eight findings with measured values",
    "availability": "site availability, probe failures, MTTR (needs "
                    "--faults)",
    "qoe-sessions": "session-scale edge CDN vs cloud QoE distributions",
    "live": "event-driven live-platform run (arrivals, faults, "
            "autoscaling per tick)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures of 'From Cloud to Edge' (IMC'21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    info = sub.add_parser("info", help="show the scenario and platforms")
    _add_scenario_args(info)

    run = sub.add_parser("run", help="regenerate one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (see 'list'), or 'all'")
    run.add_argument("--sessions", type=int, default=None, metavar="N",
                     help="qoe-sessions: viewer-session count (default: "
                          "the scale's qoe_session_count)")
    run.add_argument("--cache-mb", type=int, default=None, metavar="MB",
                     help="qoe-sessions: per-site edge cache size")
    run.add_argument("--abr", choices=ABR_POLICIES, default=None,
                     help="qoe-sessions: bitrate adaptation policy "
                          "(default: throughput)")
    run.add_argument("--ticks", type=int, default=None, metavar="N",
                     help="live: tick count (default: the scale's "
                          "live_ticks)")
    run.add_argument("--arrival", type=float, default=None, metavar="RATE",
                     help="live: mean VM arrivals per tick before "
                          "diurnal/flash-crowd modulation")
    run.add_argument("--autoscale", choices=AUTOSCALE_MODES, default=None,
                     help="live: per-server slot autoscaling (default: on)")
    _add_scenario_args(run)

    export = sub.add_parser(
        "export",
        help="write the performance + workload datasets to a directory")
    export.add_argument("directory", help="output directory")
    _add_scenario_args(export)

    cache = sub.add_parser(
        "cache", help="inspect, verify, or clear the artifact cache")
    cache.add_argument("action", choices=("ls", "info", "clear", "verify"),
                       help="ls: list entries; info: totals; clear: "
                            "remove everything (or --older-than); verify: "
                            "integrity-check every entry")
    cache.add_argument("--cache-dir", type=Path, default=None,
                       help="cache root (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache.add_argument("--older-than", type=int, default=None,
                       metavar="DAYS",
                       help="clear only: remove entries created more "
                            "than DAYS days ago, keeping warm ones")
    cache.add_argument("--dry-run", action="store_true",
                       help="clear only: report what would be removed "
                            "without touching the cache")
    cache.add_argument("--repair", action="store_true",
                       help="verify only: evict damaged entries and sweep "
                            "stale staging dirs so the next run "
                            "regenerates them")
    cache.add_argument("--shallow", action="store_true",
                       help="verify only: skip payload checksums (sizes, "
                            "presence, and shard headers only)")

    sweep = sub.add_parser(
        "sweep", help="run, inspect, or report a scenario sweep")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="run (or resume) a sweep config")
    sweep_run.add_argument("config", type=Path,
                           help="sweep spec (.toml or .json; see "
                                "docs/sweep.md)")
    sweep_run.add_argument("--out", type=Path, default=None, metavar="DIR",
                           help="output directory (default: "
                                "sweep-<name> in the CWD); rerunning "
                                "into it resumes")
    sweep_run.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="concurrent cells (default: 1; 0 = all "
                                "CPU cores)")
    sweep_run.add_argument("--cache-dir", type=Path, default=None,
                           help="shared artifact cache enabling "
                                "cross-cell dedup (default: "
                                "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep_run.add_argument("--no-cache", action="store_true",
                           help="disable the shared cache (and with it "
                                "cross-cell dedup)")
    sweep_run.add_argument("--chaos", choices=sorted(CHAOS_PROFILES),
                           default=None, metavar="PROFILE",
                           help="install a deterministic failpoint "
                                "profile for the sweep (inherited by "
                                "cell workers)")
    sweep_run.add_argument("-v", "--verbose", action="store_true",
                           help="echo sweep journal events to stderr")
    sweep_cells = sweep_sub.add_parser(
        "cells", help="expand a config and list its cells (dry run)")
    sweep_cells.add_argument("config", type=Path,
                             help="sweep spec (.toml or .json)")
    sweep_report = sweep_sub.add_parser(
        "report", help="cross-cell comparison report of a sweep run")
    sweep_report.add_argument("out", type=Path,
                              help="sweep output directory")
    sweep_report.add_argument("--baseline", default=None, metavar="CELL",
                              help="cell to diff the others against "
                                   "(default: the first cell)")
    sweep_sub.add_parser("analyses",
                         help="list the analysis ids cells can select")

    trace = sub.add_parser(
        "trace", help="render or compare run journals (see --log-json)")
    trace.add_argument("action", choices=("show", "summary", "diff"),
                       help="show: one line per event; summary: phase/"
                            "cache/pool rollup; diff: compare two runs")
    trace.add_argument("journals", nargs="+", metavar="JOURNAL", type=Path,
                       help="journal.jsonl path(s); diff takes exactly two")
    trace.add_argument("--limit", type=int, default=None, metavar="N",
                       help="show at most N events (show action only)")
    trace.add_argument("--raw", action="store_true",
                       help="diff only: compare raw event streams instead "
                            "of the canonical view (volatile telemetry "
                            "like retries and per-tick events included)")
    return parser


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=SCALES,
                        default="smoke",
                        help="simulation scale (default: smoke; 'paper' is "
                             "the full-fidelity 92-day/20k-VM run, 'city' "
                             "the out-of-core ~1M-VM tier)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--faults", choices=FAULT_PROFILES, default="off",
                        help="fault-injection profile (default: off; "
                             "'paper' calibrates to reported edge churn)")
    parser.add_argument("--perf", action="store_true",
                        help="print per-phase wall/CPU timings afterwards")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for workload generation "
                             "(default: 1; 0 = all CPU cores)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always regenerate; do not read or write the "
                             "artifact cache")
    parser.add_argument("--log-json", type=Path, default=None, metavar="PATH",
                        help="write a structured run journal (JSON-Lines) "
                             "to PATH; render it with 'repro trace'")
    parser.add_argument("--chaos", choices=sorted(CHAOS_PROFILES),
                        default=None, metavar="PROFILE",
                        help="install a deterministic failpoint profile "
                             "(fault injection into the *harness*, not the "
                             "simulation); results stay bit-identical — "
                             "see docs/resilience.md")
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument("-v", "--verbose", action="store_true",
                        help="echo journal events to stderr as they happen")
    volume.add_argument("-q", "--quiet", action="store_true",
                        help="suppress non-essential stderr output")


def _cache_dir_for(args: argparse.Namespace) -> str | None:
    """The artifact-cache root selected by the args (None = disabled)."""
    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    return str(explicit if explicit is not None else default_cache_dir())


def _echo_event(event: dict) -> None:
    """Render one journal event as a terse stderr line (``-v`` mode)."""
    skip = {"seq", "t", "type", "scenario"}
    parts = [f"{key}={value}" for key, value in event.items()
             if key not in skip and not isinstance(value, (dict, list))]
    print(f"[{event['seq']:>4}] {event['type']} {' '.join(parts)}".rstrip(),
          file=sys.stderr)


def _open_journal(args: argparse.Namespace) -> RunJournal | None:
    """A journal when ``--log-json``/``-v`` asks for one, else ``None``."""
    path = getattr(args, "log_json", None)
    verbose = getattr(args, "verbose", False)
    if path is None and not verbose:
        return None
    return RunJournal(path, echo=_echo_event if verbose else None)


def _close_journal(journal: RunJournal | None, study: EdgeStudy,
                   status: str = "ok", error: str | None = None) -> None:
    """Seal the journal (if any) with the study's final perf counters."""
    if journal is not None:
        journal.close(status=status, error=error,
                      counters=study.perf.counters or None)


#: Engine flag (``args`` attribute) -> the ``Scenario`` field it sets.
_ENGINE_FLAGS = {
    "sessions": "qoe_session_count",
    "cache_mb": "qoe_cache_mb",
    "abr": "qoe_abr",
    "ticks": "live_ticks",
    "arrival": "live_arrival_rate",
    "autoscale": "live_autoscale",
}


def _study(args: argparse.Namespace,
           journal: RunJournal | None = None) -> EdgeStudy:
    """The study for the CLI args: the named scale plus any engine flags.

    With a cache, phases an earlier run of the same scenario committed
    (even one that was killed) replay from it instead of running again.
    """
    overrides = {field: getattr(args, flag)
                 for flag, field in _ENGINE_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    cache_dir = _cache_dir_for(args)
    return EdgeStudy(
        scenario_for(args.scale, args.seed, args.faults, overrides),
        jobs=args.jobs,
        cache=ArtifactCache(cache_dir) if cache_dir is not None else None,
        journal=journal)


def _maybe_report_perf(args: argparse.Namespace, study: EdgeStudy) -> None:
    if getattr(args, "perf", False) and not getattr(args, "quiet", False):
        print(file=sys.stderr)
        print(study.perf.report(), file=sys.stderr)


def _command_list() -> int:
    width = max(len(name) for name in REPORTS)
    for name in REPORTS:
        print(f"{name.ljust(width)}  {DESCRIPTIONS.get(name, '')}")
    return 0


def _command_info(args: argparse.Namespace,
                  journal: RunJournal | None = None) -> int:
    study = _study(args, journal)
    scenario = study.scenario
    print(f"scenario: scale={args.scale} seed={scenario.seed}")
    print(f"  NEP: {scenario.nep_site_count} sites, "
          f"{scenario.nep_vm_count} VMs, {scenario.trace_days} trace days "
          f"at {scenario.cpu_interval_minutes}-min CPU resolution")
    print(f"  campaign: {scenario.participant_count} participants, "
          f"{scenario.pings_per_target} pings per target")
    platform = study.nep.platform
    print(f"built NEP: {len(platform.sites)} sites / "
          f"{platform.server_count} servers / {len(platform.vms)} VMs, "
          f"{len(platform.apps)} apps")
    _maybe_report_perf(args, study)
    _close_journal(journal, study)
    return 0


def _command_run(args: argparse.Namespace,
                 journal: RunJournal | None = None) -> int:
    names = list(REPORTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in REPORTS]
    if unknown:
        if journal is not None:
            journal.close(status="failed",
                          error=f"unknown experiments: {', '.join(unknown)}")
        print(f"unknown experiments: {', '.join(unknown)} "
              f"(see 'repro list')", file=sys.stderr)
        return 2
    study = _study(args, journal)
    failed = []
    for index, name in enumerate(names):
        if index:
            print()
        # Graceful degradation: one failing report must not take down the
        # rest of an `all` run — record it, keep going, exit non-zero.
        try:
            print(REPORTS[name](study))
        except ReproError as exc:
            failed.append(name)
            if journal is not None:
                journal.warn(f"experiment {name} failed: {exc}",
                             experiment=name)
            print(f"[failed] {name}: {exc}", file=sys.stderr)
    _maybe_report_perf(args, study)
    if failed:
        _close_journal(journal, study, status="failed",
                       error=f"{len(failed)} experiment(s) failed: "
                             f"{', '.join(failed)}")
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    _close_journal(journal, study)
    return 0


def _human_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"


def _command_cache(args: argparse.Namespace) -> int:
    if args.action != "clear" and (args.older_than is not None
                                   or args.dry_run):
        print("--older-than/--dry-run only apply to 'cache clear'",
              file=sys.stderr)
        return 2
    if args.action != "verify" and (args.repair or args.shallow):
        print("--repair/--shallow only apply to 'cache verify'",
              file=sys.stderr)
        return 2
    root = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    cache = ArtifactCache(root)
    if args.action == "clear":
        removed = cache.clear(older_than_days=args.older_than,
                              dry_run=args.dry_run)
        scope = (f" older than {args.older_than} day"
                 f"{'' if args.older_than == 1 else 's'}"
                 if args.older_than is not None else "")
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'}{scope} from {cache.root}")
        return 0
    if args.action == "verify":
        report = cache.verify(repair=args.repair, deep=not args.shallow)
        print(f"verified {report['checked']} entr"
              f"{'y' if report['checked'] == 1 else 'ies'} at "
              f"{report['root']}: {report['ok']} ok, "
              f"{len(report['problems'])} damaged, "
              f"{report['stale_staging']} stale staging dir"
              f"{'' if report['stale_staging'] == 1 else 's'}")
        for problem in report["problems"]:
            issues = "; ".join(problem["issues"])
            print(f"  {problem['artifact']:<22} {problem['key'][:16]}  "
                  f"{issues}")
        if report["repaired"]:
            print(f"repaired: evicted/swept {report['repaired']} "
                  f"(next run regenerates them)")
        elif report["problems"] or report["stale_staging"]:
            print("rerun with --repair to evict damaged entries")
        return 1 if report["problems"] and not args.repair else 0
    if args.action == "info":
        info = cache.info()
        print(f"root:         {info['root']}")
        print(f"entries:      {info['entries']}")
        print(f"total size:   {_human_bytes(int(info['bytes']))}")
        print(f"sharded:      {info['sharded_entries']} entr"
              f"{'y' if info['sharded_entries'] == 1 else 'ies'}, "
              f"{info['shard_files']} shard file"
              f"{'' if info['shard_files'] == 1 else 's'}")
        print(f"code version: {info['code_version']}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"cache at {cache.root} is empty")
        return 0
    print(f"{'created (UTC)':<21}{'artifact':<22}{'kind':<16}"
          f"{'shards':>7}{'size':>11}  key")
    for entry in entries:
        shards = str(entry.shards) if entry.shards else "-"
        # Always MiB — matching docs/performance.md — so object and
        # workload entries line up in one sortable unit.
        size = f"{entry.bytes / 1048576:.1f} MiB"
        print(f"{entry.created_at:<21}{entry.artifact:<22}{entry.kind:<16}"
              f"{shards:>7}{size:>11}  {entry.key[:16]}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .sweep import (ANALYSES, load_sweep_spec, render_sweep_report,
                        run_sweep, workload_group_token)

    if args.sweep_command == "analyses":
        for name in ANALYSES:
            print(name)
        return 0
    if args.sweep_command == "report":
        print(render_sweep_report(args.out, baseline=args.baseline))
        return 0
    spec = load_sweep_spec(args.config)
    if args.sweep_command == "cells":
        print(f"sweep {spec.name!r}: {len(spec.cells)} cells")
        for cell in spec.cells:
            overrides = " ".join(f"{k}={v}" for k, v in cell.overrides)
            print(f"  {cell.name:<28} scale={cell.scale} "
                  f"seed={cell.seed if cell.seed is not None else 'default'} "
                  f"faults={cell.faults} jobs={cell.jobs} "
                  f"group={workload_group_token(cell)} "
                  f"analyses={','.join(cell.analyses)}"
                  + (f" {overrides}" if overrides else ""))
        return 0
    out = args.out if args.out is not None else Path(f"sweep-{spec.name}")
    result = run_sweep(
        spec, out, cache_dir=_cache_dir_for(args), jobs=args.jobs,
        echo=_echo_event if args.verbose else None)
    print(f"sweep {result.name!r}: {len(result.cells)} cells in "
          f"{result.wall_s:.2f}s"
          + (f" ({result.resumed} resumed)" if result.resumed else "")
          + f" -> {result.out_dir}")
    for cell in result.cells:
        line = f"  {cell.name:<28} {cell.status:<8} {cell.wall_s:8.2f}s"
        if cell.checks_total:
            line += f"  {cell.checks_ok}/{cell.checks_total} checks"
        if cell.error:
            line += f"  {cell.error}"
        print(line)
    if not result.ok:
        print(f"{len(result.failed)} cell(s) failed: "
              f"{', '.join(result.failed)}", file=sys.stderr)
        return 1
    return 0


def _command_export(args: argparse.Namespace,
                    journal: RunJournal | None = None) -> int:
    from .measurement.campaign import CampaignResults
    from .measurement.io import save_campaign
    from .trace.io import save_dataset

    study = _study(args, journal)
    root = Path(args.directory)
    # Fresh container: never mutate the study's cached results.
    results = CampaignResults(
        latency=list(study.latency_results.latency),
        throughput=list(study.throughput_results.throughput),
    )
    campaign_dir = save_campaign(results, root / "campaign")
    nep_dir = save_dataset(study.nep.dataset, root / "nep-trace")
    azure_dir = save_dataset(study.azure.dataset, root / "azure-trace")
    print(f"performance dataset: {campaign_dir}")
    print(f"NEP workload trace:  {nep_dir}")
    print(f"cloud workload trace: {azure_dir}")
    _maybe_report_perf(args, study)
    _close_journal(journal, study)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    expected = 2 if args.action == "diff" else 1
    if len(args.journals) != expected:
        print(f"trace {args.action} takes exactly {expected} journal "
              f"path(s), got {len(args.journals)}", file=sys.stderr)
        return 2
    try:
        loaded = [read_journal(path) for path in args.journals]
    except OSError as exc:
        print(f"error: cannot read journal: {exc}", file=sys.stderr)
        return 2
    for path, (_, warnings) in zip(args.journals, loaded):
        for warning in warnings:
            print(f"warning: {path}: {warning}", file=sys.stderr)
    if args.action == "diff":
        (events_a, _), (events_b, _) = loaded
        # Behavioural compare: volatile telemetry (retries, tick events,
        # spills) differs between equivalent runs by design.
        print(diff_journals(events_a, events_b,
                            str(args.journals[0]), str(args.journals[1]),
                            canonical=not args.raw))
        return 0
    events, warnings = loaded[0]
    if args.action == "show":
        print(render_show(events, limit=args.limit))
    else:
        print(render_summary(events, warnings))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    journal = (_open_journal(args)
               if args.command in ("info", "run", "export") else None)
    try:
        if getattr(args, "chaos", None):
            # Exported to the env, so forked farm workers (series jobs,
            # sweep cells) inherit the same deterministic failpoints.
            install(chaos_spec(args.chaos), export=True)
        if args.command == "list":
            return _command_list()
        if args.command == "info":
            return _command_info(args, journal)
        if args.command == "export":
            return _command_export(args, journal)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "trace":
            return _command_trace(args)
        return _command_run(args, journal)
    except ReproError as exc:
        # A library-level failure (bad config, infeasible scenario, ...)
        # is an expected error class: one clean line, no traceback.
        if journal is not None:
            journal.close(status="failed", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: the POSIX
        # convention is to exit quietly, not to traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
