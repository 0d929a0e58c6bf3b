"""The sweep executor: dedup-aware scheduling, resume, journal merge.

Execution model
---------------

Cells are grouped by their **workload cache identity** — the scenario
token minus the fields workload artifacts ignore (see
:data:`~repro.cache.ARTIFACT_TOKEN_EXCLUDES`).  Within a group, the
first pending cell runs alone as the *leader*, rendering every shared
artifact cold into the sweep's :class:`~repro.cache.ArtifactCache`;
once it finishes, the remaining *followers* are released all at once
and load the shared artifacts warm.  Groups are mutually independent,
so leaders of different groups run concurrently up to ``--jobs``.
Cells execute on the persistent, non-daemonic workers of a
:class:`~repro.parallel.TaskFarm`, so each cell may itself render its
series on a nested farm.  Without a cache every cell is its own group
(nothing can be shared, nothing is serialised).

Resume discipline
-----------------

A cell's output directory (``cells/<name>/`` with ``journal.jsonl`` and
``result.json``) is staged under ``cells/.tmp-*`` and published with
one atomic :func:`os.rename` — the same discipline as
:class:`~repro.cache.ArtifactCache`.  A killed sweep therefore leaves
only complete cells visible; rerunning the same config into the same
output directory skips cells whose ``result.json`` says ``ok``,
re-runs failed or missing ones, and sweeps stale staging directories.
A finished sweep re-run is a no-op.  Completed cells are never
rewritten, so their journals are byte-identical across an interrupted
run, its resume, and a clean run.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from ..cache import ARTIFACT_TOKEN_EXCLUDES, ArtifactCache
from ..errors import ConfigurationError, ReproError
from ..obs import RunJournal, merge_cell_journal, read_journal
from ..parallel import TaskFarm
from ..resilience import SupervisionConfig, failpoint
from ..study import EdgeStudy
from .analyses import run_analysis
from .spec import SweepCell, SweepSpec

#: File names inside a sweep output directory.
SPEC_NAME = "spec.json"
MANIFEST_NAME = "sweep.json"
JOURNAL_NAME = "sweep.jsonl"
CELLS_DIR = "cells"
RESULT_NAME = "result.json"


@dataclass(frozen=True)
class CellOutcome:
    """How one cell ended this sweep invocation."""

    name: str
    status: str            # "ok" | "failed" | "resumed"
    wall_s: float
    checks_ok: int
    checks_total: int
    group: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True unless the cell failed."""
        return self.status != "failed"


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one ``run_sweep`` invocation."""

    name: str
    out_dir: Path
    cells: tuple[CellOutcome, ...]
    wall_s: float

    @property
    def ok(self) -> bool:
        """True when every cell completed."""
        return all(cell.ok for cell in self.cells)

    @property
    def resumed(self) -> int:
        """Cells skipped because a previous run already completed them."""
        return sum(1 for c in self.cells if c.status == "resumed")

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the cells that failed."""
        return tuple(c.name for c in self.cells if not c.ok)


def workload_group_token(cell: SweepCell) -> str:
    """The dedup-group identity of a cell: its workload cache token.

    Two cells with equal tokens render identical workload artifacts, so
    only one of them needs a cold run against a shared cache.
    """
    exclude = ARTIFACT_TOKEN_EXCLUDES.get("workload_nep", ())
    token = cell.scenario().cache_token(exclude=exclude)
    return sha256(token.encode("utf-8")).hexdigest()[:12]


def _write_json_atomic(path: Path, payload: dict) -> None:
    staging = path.with_name(path.name + ".part")
    staging.write_text(json.dumps(payload, indent=2, sort_keys=True)
                       + "\n", encoding="utf-8")
    os.replace(staging, path)


def _execute_cell(task: dict) -> dict:
    """Worker body: run one cell, publish its directory atomically."""
    cell: SweepCell = task["cell"]
    # Chaos site: fires before any output exists, so a tripped cell
    # leaves nothing behind and the farm's retry re-runs it from
    # scratch.
    failpoint("sweep.cell", cell.name)
    cells_dir = Path(task["cells_dir"])
    staging = cells_dir / f".tmp-{cell.name}-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    journal = RunJournal(staging / "journal.jsonl")
    started = time.perf_counter()
    status, error = "ok", None
    study = None
    analyses: list[dict] = []
    try:
        scenario = cell.scenario()
        cache = (ArtifactCache(task["cache_dir"], journal=journal)
                 if task["cache_dir"] is not None else None)
        study = EdgeStudy(scenario, jobs=cell.jobs, cache=cache,
                          journal=journal, streaming=task["streaming"])
        for name in cell.analyses:
            # One failing analysis fails the cell but not its siblings.
            try:
                analyses.append(run_analysis(name, study).to_dict())
            except ReproError as exc:
                status = "failed"
                error = f"{name}: {exc}"
                journal.warn(f"analysis {name} failed: {exc}",
                             analysis=name)
    except Exception as exc:  # noqa: BLE001 - reported via result.json
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    wall_s = round(time.perf_counter() - started, 6)
    checks_ok = sum(a["checks_ok"] for a in analyses)
    checks_total = sum(a["checks_total"] for a in analyses)
    result = {
        "cell": cell.to_dict(),
        "status": status,
        "error": error,
        "wall_s": wall_s,
        "checks_ok": checks_ok,
        "checks_total": checks_total,
        "analyses": analyses,
    }
    (staging / RESULT_NAME).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    journal.close(status=status, error=error,
                  counters=study.perf.counters or None
                  if study is not None else None)
    final = cells_dir / cell.name
    if final.exists():
        shutil.rmtree(final)
    os.rename(staging, final)
    return {"status": status, "error": error, "wall_s": wall_s,
            "checks_ok": checks_ok, "checks_total": checks_total}


def _load_completed(cell_dir: Path) -> dict | None:
    """A prior run's ``result.json`` when the cell completed ok."""
    try:
        result = json.loads((cell_dir / RESULT_NAME).read_text(
            encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return result if result.get("status") == "ok" else None


def run_sweep(spec: SweepSpec, out_dir: str | Path,
              cache_dir: str | None = None, jobs: int = 1,
              streaming: str = "auto",
              echo=None) -> SweepResult:
    """Run (or resume) a sweep into ``out_dir``.

    ``jobs`` bounds how many *cells* run concurrently (each cell's own
    series-rendering width is the cell's ``jobs`` knob).  ``cache_dir`` is
    the shared artifact cache enabling cross-cell dedup; ``None``
    disables both caching and grouping.  ``echo`` receives sweep
    journal events as they are emitted (the CLI's progress line hook).

    Raises:
        ConfigurationError: when ``out_dir`` already holds a different
            sweep spec.
    """
    started = time.perf_counter()
    out = Path(out_dir)
    cells_dir = out / CELLS_DIR
    cells_dir.mkdir(parents=True, exist_ok=True)

    spec_payload = spec.to_dict()
    spec_path = out / SPEC_NAME
    if spec_path.exists():
        previous = json.loads(spec_path.read_text(encoding="utf-8"))
        if previous != spec_payload:
            raise ConfigurationError(
                f"{out} already holds sweep {previous.get('name')!r} with "
                f"a different grid; use a fresh output directory")
    else:
        _write_json_atomic(spec_path, spec_payload)

    # A killed run can leave half-written staging directories; they are
    # invisible to resume (never under a final name) and swept here.
    for stale in cells_dir.glob(".tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)

    journal = RunJournal(out / JOURNAL_NAME, echo=echo)
    outcomes: dict[str, CellOutcome] = {}
    groups: dict[str, str] = {}
    pending: list[SweepCell] = []
    for cell in spec.cells:
        groups[cell.name] = workload_group_token(cell)
        completed = _load_completed(cells_dir / cell.name)
        if completed is not None:
            outcomes[cell.name] = CellOutcome(
                name=cell.name, status="resumed",
                wall_s=completed.get("wall_s", 0.0),
                checks_ok=completed.get("checks_ok", 0),
                checks_total=completed.get("checks_total", 0),
                group=groups[cell.name])
        else:
            pending.append(cell)
    journal.emit("sweep_start", sweep=spec.name, cells=len(spec.cells),
                 pending=len(pending), resumed=len(outcomes),
                 jobs=jobs, cache=cache_dir is not None)

    # Group pending cells by workload identity.  A group whose artifacts
    # are already cached (some cell completed in a prior run) needs no
    # leader; otherwise the first pending cell runs alone first.
    queue: dict[str, list[SweepCell]] = {}
    warm: set[str] = {groups[name] for name in outcomes}
    for cell in pending:
        queue.setdefault(groups[cell.name], []).append(cell)

    task_base = {"cells_dir": str(cells_dir), "cache_dir": cache_dir,
                 "streaming": streaming}

    def submit(farm: TaskFarm, cell: SweepCell, role: str) -> None:
        journal.emit("cell_scheduled", cell=cell.name,
                     group=groups[cell.name], role=role)
        farm.submit(cell.name, _execute_cell,
                    {**task_base, "cell": cell})

    # A cell may run for minutes at city scale: no per-cell timeout,
    # only the heartbeat watchdog.
    with TaskFarm(jobs, journal=journal,
                  supervision=SupervisionConfig(job_timeout_s=None)) as farm:
        for token, members in queue.items():
            if cache_dir is None or token in warm:
                for cell in members:
                    submit(farm, cell, "follower")
                queue[token] = []
            else:
                submit(farm, members.pop(0), "leader")
        while farm.outstanding:
            outcome = farm.next_outcome()
            token = groups[outcome.task_id]
            if outcome.ok:
                summary = outcome.value
                outcomes[outcome.task_id] = CellOutcome(
                    name=outcome.task_id, status=summary["status"],
                    wall_s=summary["wall_s"],
                    checks_ok=summary["checks_ok"],
                    checks_total=summary["checks_total"],
                    group=token, error=summary["error"])
            else:
                # The cell's worker kept dying (OOM, SIGKILL) or the cell
                # code raised past the result writer.
                outcomes[outcome.task_id] = CellOutcome(
                    name=outcome.task_id, status="failed", wall_s=0.0,
                    checks_ok=0, checks_total=0, group=token,
                    error=outcome.error)
            journal.emit("cell_done", cell=outcome.task_id,
                         status=outcomes[outcome.task_id].status,
                         group=token)
            # The group's artifacts are now cached (even a failed leader
            # usually rendered the workload before dying; followers that
            # miss simply render again).  Release everyone waiting.
            for cell in queue.get(token, []):
                submit(farm, cell, "follower")
            queue[token] = []

    # Deterministic tail: fold every cell journal in spec order.
    for cell in spec.cells:
        outcome = outcomes.get(cell.name)
        if outcome is None:  # pragma: no cover - defensive
            continue
        if outcome.status == "resumed":
            journal.emit("cell_resumed", cell=cell.name)
        journal_path = cells_dir / cell.name / "journal.jsonl"
        if journal_path.exists():
            events, _ = read_journal(journal_path)
            merge_cell_journal(journal, cell.name, events)

    ordered = tuple(outcomes[cell.name] for cell in spec.cells
                    if cell.name in outcomes)
    wall_s = round(time.perf_counter() - started, 6)
    result = SweepResult(name=spec.name, out_dir=out, cells=ordered,
                         wall_s=wall_s)
    _write_json_atomic(out / MANIFEST_NAME, {
        "sweep": spec.name,
        "wall_s": wall_s,
        "jobs": jobs,
        "cache": cache_dir is not None,
        "ok": result.ok,
        "cells": [{
            "name": c.name, "status": c.status, "wall_s": c.wall_s,
            "checks_ok": c.checks_ok, "checks_total": c.checks_total,
            "group": c.group, "error": c.error,
        } for c in ordered],
    })
    journal.close(status="ok" if result.ok else "failed",
                  error=None if result.ok else
                  f"{len(result.failed)} cell(s) failed: "
                  f"{', '.join(result.failed)}")
    return result
