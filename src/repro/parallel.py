"""Process-pool execution of per-app workload series jobs.

At paper scale (20k VMs, 92 days at 1-minute resolution) the study
spends most of its wall time rendering CPU/bandwidth series.  Placement
is inherently sequential (it consumes shared RNG streams and mutates the
platform), but every app's series block draws from its own named
substream — see :mod:`repro.workload.series` — so the blocks are
mutually independent.  :func:`run_series_jobs` fans them out over a
``multiprocessing`` pool and yields rendered blocks **in submission
order**, so the parent inserts results deterministically regardless of
worker count or completion order.

Each worker is told only (seed, recipe, scenario time knobs) once at
pool start; a dispatched job ships an app id, a profile, and a VM count.
The worker recreates the app's RNG substream locally, renders the block
(its ``SERIES_CHUNK_VMS`` chunks in order), and hands the float32 rows
back.  Worker-side spans are recorded into a private
:class:`~repro.perf.PerfRegistry` that the parent merges, so no timing
is lost to process boundaries (merged ``cpu_s`` sums across processes
and can legitimately exceed the parent's wall time).

Spool handoff
-------------

Rows never cross the result pipe.  A worker writes each finished block
to a spool file of its own — the row arrays as consecutive ``.npy``
records, in a temporary directory the pool owns — and returns a small
:class:`_SpooledBlock` naming it.  The parent reads a block back when
its turn in submission order comes and deletes the file, so it holds
one block at a time however far ahead the workers run; submission runs
at most ``workers + 2`` jobs ahead of the consumer, which bounds the
spool on disk.  A file is named after the worker process that wrote
it, so a retried job never writes over a file a killed worker may
still have reported, and whatever a dead worker left behind goes with
the directory when the pool shuts down.

``--jobs 1`` (the default) renders in-process through the *same*
per-app function, which is what makes serial and parallel output
bit-identical by construction.  Worker pools require the ``fork`` start
method (the cheap, no-reimport path); where it is unavailable the
executor falls back to serial rendering with a journal warning, and a
pool that fails to *start* raises :class:`~repro.errors.ParallelError`
instead of a cryptic pickling failure.

Supervision
-----------

The pool is *supervised* (see :mod:`repro.resilience`): workers are
plain forked processes the parent watches rather than a fire-and-forget
``multiprocessing.Pool``.  Every worker carries a heartbeat thread
stamping a shared clock slot; the parent's watchdog detects (a) workers
that exited without reporting (OOM kill, SIGKILL, crash), (b) jobs
whose wall-clock exceeds the per-job timeout, and (c) wedged workers
whose heartbeat goes stale — and in all three cases kills the worker,
respawns a fresh one, and reschedules the job with seeded exponential
backoff.  Transient job *errors* (an :class:`~repro.errors.InjectedFault`
from a chaos failpoint, an OSError from flaky storage) are retried the
same way; a job that keeps failing past its attempt budget raises
:class:`~repro.errors.QuarantineError` with full context — the study
fails loudly instead of hanging or silently dropping an app's series.
Because rendering is a pure function of (seed, recipe, job), a retried
job reproduces the exact bytes of a first-try success, so supervision
changes timings, never results; the retry/restart journal events are
volatile (:data:`repro.obs.VOLATILE_EVENT_TYPES`) and chaos runs
canonicalise bit-identical to clean runs.

A SIGKILLed worker can in principle die mid-write on the shared result
pipe; the parent treats undecodable queue reads as transient and relies
on the watchdog, and injected kills (``pool.kill_worker``) are fired at
dispatch time — before the victim starts writing — so chaos runs do not
exercise that race.

Task farm
---------

:class:`TaskFarm` is the second, coarser executor: whole units of work
(one sweep cell = one full :class:`~repro.study.EdgeStudy`) in
*non-daemonic* forked processes.  ``multiprocessing.Pool`` workers are
daemonic and may not have children, which would forbid a cell from
starting its own series pool; farm workers are plain forked processes,
so nesting works.  A worker that dies without reporting (OOM kill,
SIGKILL) surfaces as a failed :class:`TaskOutcome` instead of hanging
the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import Scenario
from .errors import (
    ConfigurationError,
    InjectedFault,
    ParallelError,
    QuarantineError,
)
from .perf import PerfRegistry
from .resilience import RetryPolicy, SupervisionConfig, fire
from .resilience.retry import call_with_retry
from .workload.patterns import time_axis_minutes
from .workload.series import (
    SeasonCache,
    SeriesBlock,
    SeriesJob,
    SeriesRecipe,
    job_rng,
    render_series_job,
)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPU cores.

    Raises:
        ConfigurationError: on negative values.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(
            f"jobs must be >= 0 (0 = all CPU cores), got {jobs}")
    return int(jobs)


@dataclass(frozen=True)
class _WorkerSetup:
    """Everything a worker process needs besides the jobs themselves."""

    seed: int
    recipe: SeriesRecipe
    trace_days: int
    cpu_interval_minutes: int
    bw_interval_minutes: int


@dataclass(frozen=True)
class _SpooledBlock:
    """A rendered block whose rows wait in a spool file.

    Crosses the result pipe instead of the row payload: the parent
    rebuilds the :class:`SeriesBlock` with :func:`_unspool`.
    """

    path: str
    app_id: str
    private: bool
    mean_bws: np.ndarray
    perf: PerfRegistry | None


#: Per-worker-process state installed by :func:`_init_worker`.
_WORKER: dict | None = None


def _init_worker(setup: _WorkerSetup) -> None:
    """Worker start-up: precompute the time axes and season cache once."""
    global _WORKER
    _WORKER = {
        "setup": setup,
        "cpu_minutes": time_axis_minutes(setup.trace_days,
                                         setup.cpu_interval_minutes),
        "bw_minutes": time_axis_minutes(setup.trace_days,
                                        setup.bw_interval_minutes),
        "seasons": SeasonCache(),
    }


def _render_in_worker(job: SeriesJob) -> SeriesBlock:
    """Render one job inside a worker, with a private perf registry."""
    state = _WORKER
    if state is None:  # pragma: no cover - pool misconfiguration guard
        raise RuntimeError("series worker used before initialisation")
    setup: _WorkerSetup = state["setup"]
    perf = PerfRegistry()
    rng = job_rng(setup.seed, setup.recipe, job.app_id)
    block = render_series_job(job, setup.recipe, state["cpu_minutes"],
                              state["bw_minutes"], rng,
                              seasons=state["seasons"], perf=perf)
    block.perf = perf
    return block


def _spool(block: SeriesBlock, path: str) -> _SpooledBlock:
    """Write a block's rows to ``path`` as consecutive ``.npy`` records."""
    with open(path, "wb") as handle:
        for rows in (block.cpu_rows, block.bw_rows, block.private_rows):
            if rows is not None:
                np.save(handle, rows)
    return _SpooledBlock(path=path, app_id=block.app_id,
                         private=block.private_rows is not None,
                         mean_bws=block.mean_bws, perf=block.perf)


def _unspool(ref: _SpooledBlock) -> SeriesBlock:
    """Read a spooled block's rows back and delete its file."""
    with open(ref.path, "rb") as handle:
        cpu_rows = np.load(handle)
        bw_rows = np.load(handle)
        private_rows = np.load(handle) if ref.private else None
    os.unlink(ref.path)
    return SeriesBlock(app_id=ref.app_id, mean_bws=ref.mean_bws,
                       cpu_rows=cpu_rows, bw_rows=bw_rows,
                       private_rows=private_rows, perf=ref.perf)


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """The fork context, or ``None`` where fork is unavailable.

    The pool requires fork: workers inherit their start-up arguments
    (including live queue handles) without pickling, and start cheaply
    without re-importing the package.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def run_series_jobs(jobs_list: Sequence[SeriesJob], scenario: Scenario,
                    recipe: SeriesRecipe, n_jobs: int = 1,
                    perf: PerfRegistry | None = None,
                    supervision: SupervisionConfig | None = None,
                    ) -> Iterator[SeriesBlock]:
    """Render series jobs, yielding blocks in submission order.

    ``n_jobs == 1`` (or a single job) renders inline; otherwise a pool
    of ``min(n_jobs, len(jobs_list))`` supervised worker processes
    renders concurrently with windowed submission, so the caller sees
    the same sequence of bit-identical blocks.  ``supervision`` bundles
    the watchdog timeouts and retry budget (default:
    :meth:`SupervisionConfig.from_env`).

    Raises:
        ConfigurationError: on a bad ``n_jobs`` value.
        ParallelError: when the worker pool or its spool directory
            cannot be created.
        QuarantineError: when one job exhausts its retry budget.
    """
    n_jobs = resolve_jobs(n_jobs)
    if supervision is None:
        supervision = SupervisionConfig.from_env()
    journal = perf.journal if perf is not None else None
    setup = _WorkerSetup(
        seed=scenario.seed, recipe=recipe,
        trace_days=scenario.trace_days,
        cpu_interval_minutes=scenario.cpu_interval_minutes,
        bw_interval_minutes=scenario.bw_interval_minutes,
    )
    serial = n_jobs == 1 or len(jobs_list) <= 1
    ctx = None
    if not serial:
        ctx = _pool_context()
        if ctx is None:
            if journal is not None:
                journal.warn(
                    "fork start method unavailable on this platform; "
                    "rendering series serially", jobs=n_jobs)
            serial = True
    if journal is not None:
        # Dispatch events come first in both modes (submission is eager),
        # so journals are identical across --jobs settings.
        for job in jobs_list:
            journal.emit("job_dispatch", app_id=job.app_id,
                         vm_count=job.vm_count)
    if serial:
        yield from _run_serial(jobs_list, setup, perf, journal,
                               supervision.retry)
        return
    yield from _run_pooled(jobs_list, setup, ctx, min(n_jobs, len(jobs_list)),
                           perf, journal, supervision)


#: Parent watchdog poll and worker heartbeat stamp intervals (seconds).
_POOL_POLL_S = 0.05
_HEARTBEAT_STAMP_S = 0.2

#: Task-queue sentinel telling a worker to exit cleanly.
_STOP = None


def _supervised_worker(index: int, gen: int, setup: _WorkerSetup, tasks,
                       results, heartbeats, spool_dir: str) -> None:
    """Worker main loop: render dispatched jobs until the stop sentinel.

    A daemon thread stamps ``heartbeats[index]`` continuously so the
    parent can tell a busy worker from a wedged one.  Job errors are
    reported as outcomes, never raised: the worker survives a failed
    job and stays available for the next dispatch.  ``gen`` tags every
    result with the spawn generation, so a straggler message from a
    killed predecessor cannot be mistaken for the respawn's work; it
    also names the spool files, so a respawn never writes over a file
    its predecessor may have reported.
    """
    _init_worker(setup)

    def stamp() -> None:  # pragma: no cover - timing-dependent thread
        while True:
            heartbeats[index] = time.monotonic()
            time.sleep(_HEARTBEAT_STAMP_S)

    threading.Thread(target=stamp, daemon=True).start()
    while True:
        message = tasks.get()
        if message is _STOP:
            return
        job_index, job = message
        path = os.path.join(spool_dir, f"{job_index}-{index}-{gen}.npy")
        try:
            outcome = _spool(_render_in_worker(job), path)
            results.put((index, gen, job_index, True, outcome))
        except BaseException as exc:  # noqa: BLE001 - relayed to parent
            results.put((index, gen, job_index, False,
                         f"{type(exc).__name__}: {exc}"))


@dataclass
class _JobState:
    """Supervisor-side lifecycle of one series job."""

    job: SeriesJob
    index: int
    attempts: int = 0
    phase: str = "waiting"  # waiting | inflight | retry | done
    ready_at: float = 0.0
    deadline: float | None = None


class _PoolWorker:
    """One supervised worker process plus its private task queue."""

    __slots__ = ("index", "gen", "proc", "tasks", "current")

    def __init__(self, index: int, gen: int, proc, tasks) -> None:
        self.index = index
        self.gen = gen
        self.proc = proc
        self.tasks = tasks
        self.current: int | None = None


def _run_pooled(jobs_list: Sequence[SeriesJob], setup: _WorkerSetup,
                ctx, processes: int, perf: PerfRegistry | None, journal,
                supervision: SupervisionConfig) -> Iterator[SeriesBlock]:
    """The supervised pool path: windowed submission, spool handoff,
    watchdog-driven retry.

    At most ``processes + 2`` jobs are dispatched ahead of the consumer,
    which bounds the spool files waiting behind a slow head-of-line
    job.  Results are drained eagerly (the spool reference buffered)
    and yielded in submission order, so perf accounting and
    ``job_complete`` events keep the serial order.
    """
    try:
        spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
    except OSError as exc:
        raise ParallelError(
            f"could not create the series spool directory: {exc}") from exc
    window = processes + 2
    policy = supervision.retry
    heartbeats = ctx.Array("d", processes, lock=False)
    results = ctx.Queue()
    states = [_JobState(job=job, index=index)
              for index, job in enumerate(jobs_list)]
    workers: list[_PoolWorker | None] = [None] * processes
    retrying: set[int] = set()
    buffered: dict[int, _SpooledBlock] = {}
    next_new = 0
    next_yield = 0

    generations = [0] * processes

    def spawn(index: int) -> None:
        generations[index] += 1
        tasks = ctx.SimpleQueue()
        heartbeats[index] = time.monotonic()
        proc = ctx.Process(
            target=_supervised_worker,
            args=(index, generations[index], setup, tasks, results,
                  heartbeats, spool_dir),
            daemon=True)
        try:
            proc.start()
        except OSError as exc:
            raise ParallelError(
                f"could not start series worker {index} of {processes} "
                f"(fork): {exc}") from exc
        workers[index] = _PoolWorker(index, generations[index], proc, tasks)

    def get_result(timeout: float):
        try:
            return results.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        except (EOFError, OSError, ValueError) as exc:
            # A worker killed mid-write can tear the result pipe; the
            # watchdog recovers the job, so drop the fragment.
            if journal is not None:
                journal.warn("undecodable pool result dropped",
                             error=str(exc))
            return None

    def schedule_retry(state: _JobState, reason: str, now: float) -> None:
        if state.attempts >= policy.max_attempts:
            if journal is not None:
                journal.emit("job_quarantined", app_id=state.job.app_id,
                             attempts=state.attempts, error=str(reason))
            raise QuarantineError(
                f"series job {state.job.app_id!r} failed after "
                f"{state.attempts} attempts; last error: {reason}")
        delay = policy.delay(state.job.app_id, state.attempts)
        state.phase = "retry"
        state.ready_at = now + delay
        retrying.add(state.index)
        if journal is not None:
            journal.emit("job_retry", app_id=state.job.app_id,
                         attempt=state.attempts, delay_s=round(delay, 6),
                         error=str(reason))

    def handle(message, now: float) -> None:
        worker_index, gen, job_index, ok, payload = message
        state = states[job_index]
        worker = workers[worker_index]
        if worker is not None and worker.gen == gen \
                and worker.current == job_index:
            worker.current = None
        if state.phase == "done":
            # Stale duplicate from a worker presumed dead: drop it (its
            # perf was never merged, so the accepted render stays
            # exactly one per job); its file goes with the spool.
            return
        if not ok:
            if state.phase == "inflight":
                schedule_retry(state, str(payload), now)
            return
        retrying.discard(job_index)
        state.phase = "done"
        buffered[job_index] = payload

    def handle_death(worker: _PoolWorker, reason: str, now: float) -> None:
        worker.proc.join()
        # Its final result may have been flushed before death: drain the
        # queue so a completed job is accepted instead of retried.
        while True:
            message = get_result(0)
            if message is None:
                break
            handle(message, now)
        job_index = worker.current
        worker.current = None
        if journal is not None:
            journal.emit(
                "worker_restart", worker=worker.index, reason=reason,
                app_id=(states[job_index].job.app_id
                        if job_index is not None else ""))
        if job_index is not None and states[job_index].phase == "inflight":
            schedule_retry(states[job_index], f"worker died ({reason})",
                           now)
        try:
            worker.tasks.close()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        spawn(worker.index)

    def watchdog(now: float) -> None:
        for worker in workers:
            if worker is None:
                continue
            exitcode = worker.proc.exitcode
            if exitcode is not None:
                handle_death(worker, f"exit code {exitcode}", now)
                continue
            if worker.current is not None:
                deadline = states[worker.current].deadline
                if deadline is not None and now > deadline:
                    worker.proc.kill()
                    handle_death(worker, "job timeout", now)
                    continue
            staleness = supervision.heartbeat_timeout_s
            if staleness is not None \
                    and now - heartbeats[worker.index] > staleness:
                worker.proc.kill()
                handle_death(worker, "heartbeat stale", now)

    def dispatch(worker: _PoolWorker, state: _JobState, now: float) -> None:
        state.attempts += 1
        state.phase = "inflight"
        state.deadline = (now + supervision.job_timeout_s
                          if supervision.job_timeout_s is not None else None)
        worker.current = state.index
        worker.tasks.put((state.index, state.job))
        if fire("pool.kill_worker"):
            # Supervisor-side chaos: kill at dispatch, before the victim
            # can start writing results, so the pipe stays intact.
            worker.proc.kill()

    try:
        for index in range(processes):
            spawn(index)
        last_watchdog = time.monotonic()
        while next_yield < len(states):
            now = time.monotonic()
            for worker in workers:
                if worker is None or worker.current is not None:
                    continue
                ready = [i for i in retrying if states[i].ready_at <= now]
                if ready:
                    state = states[min(ready)]
                    retrying.discard(state.index)
                elif next_new < len(states) \
                        and next_new - next_yield < window:
                    state = states[next_new]
                    next_new += 1
                else:
                    break
                dispatch(worker, state, now)
            message = get_result(_POOL_POLL_S)
            now = time.monotonic()
            if message is not None:
                handle(message, now)
                while True:  # drain without blocking
                    message = get_result(0)
                    if message is None:
                        break
                    handle(message, now)
            # Liveness: a steady result stream from healthy workers must
            # not starve detection of the one that died.
            if message is None or now - last_watchdog > 5 * _POOL_POLL_S:
                watchdog(now)
                last_watchdog = now
            while next_yield in buffered:
                block = _unspool(buffered.pop(next_yield))
                _account_block(states[next_yield].job, block.perf, perf,
                               journal)
                block.perf = None
                next_yield += 1
                yield block
    finally:
        for worker in workers:
            if worker is None:
                continue
            if worker.proc.exitcode is None:
                try:
                    worker.tasks.put(_STOP)
                except (OSError, ValueError):  # pragma: no cover
                    pass
                worker.proc.join(timeout=1.0)
            if worker.proc.exitcode is None:
                worker.proc.kill()
                worker.proc.join()
        results.close()
        results.cancel_join_thread()
        shutil.rmtree(spool_dir, ignore_errors=True)


def _account_block(job: SeriesJob, worker_perf: PerfRegistry | None,
                   perf: PerfRegistry | None, journal) -> None:
    """Fold one rendered job's telemetry into the parent's registry.

    Both execution paths route per-job spans through
    :meth:`PerfRegistry.merge` and emit the same ``job_complete`` event,
    which is what keeps serial and pooled journals identical.
    """
    if perf is not None and worker_perf is not None:
        perf.merge(worker_perf)
    if journal is not None:
        wall = (worker_perf.wall_s("series_render")
                if worker_perf is not None else 0.0)
        journal.emit("job_complete", app_id=job.app_id,
                     vms=job.vm_count, wall_s=round(wall, 6))


# ---- coarse-grained task farm (sweep cells) ------------------------------


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one farmed task: a value or a one-line error."""

    task_id: str
    ok: bool
    value: object = None
    error: str | None = None


def _farm_task(fn: Callable, task_id: str, arg: object, results) -> None:
    """Worker entry: run one task, report exactly one outcome tuple."""
    try:
        value = fn(arg)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        results.put((task_id, False, f"{type(exc).__name__}: {exc}"))
        raise SystemExit(1)
    results.put((task_id, True, value))


class TaskFarm:
    """Run independent heavyweight tasks in non-daemon forked workers.

    Tasks are submitted as ``(task_id, fn, arg)`` and collected with
    :meth:`next_outcome` in completion order, which lets a scheduler
    unlock dependent work (a sweep group's followers) the moment its
    prerequisite finishes.  At ``n_jobs == 1`` — or where fork is
    unavailable — submission queues the task and :meth:`next_outcome`
    runs it inline, so scheduling semantics are identical either way.

    Unlike :func:`run_series_jobs`'s pool, workers are **not** daemonic:
    a farmed task may start its own series pool (nested parallelism),
    which ``multiprocessing.Pool`` forbids its daemon workers.

    Supervision: a worker that dies silently (OOM kill, SIGKILL, the
    ``farm.kill_worker`` chaos site) is retried under ``retry`` before
    surfacing as a failed outcome, and a task failing with an
    :class:`~repro.errors.InjectedFault` (the ``sweep.cell`` chaos
    site) is resubmitted the same way.  Genuine task exceptions are
    never retried — a sweep cell owns its internal I/O retries, so a
    failure that reaches the farm is diagnostic, not transient.
    """

    #: Seconds to wait for an in-flight result before re-checking
    #: worker liveness (and, after a dead worker is seen, the grace
    #: period for its possibly-buffered final result).
    _POLL_S = 0.25

    def __init__(self, n_jobs: int = 1, journal=None,
                 retry: RetryPolicy | None = None) -> None:
        self.n_jobs = resolve_jobs(n_jobs)
        self.journal = journal
        self.retry = retry if retry is not None \
            else RetryPolicy(max_attempts=2)
        ctx = _pool_context() if self.n_jobs > 1 else None
        if self.n_jobs > 1 and ctx is None:
            if journal is not None:
                journal.warn("fork start method unavailable; running "
                             "farmed tasks serially", jobs=self.n_jobs)
        self._ctx = ctx
        self._serial = ctx is None or self.n_jobs == 1
        self._results = ctx.Queue() if not self._serial else None
        self._procs: dict[str, multiprocessing.process.BaseProcess] = {}
        self._waiting: deque = deque()
        self._attempts: dict[str, int] = {}
        self._specs: dict[str, tuple[Callable, object]] = {}
        self._outstanding = 0

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet returned by :meth:`next_outcome`."""
        return self._outstanding

    def submit(self, task_id: str, fn: Callable, arg: object) -> None:
        """Enqueue one task; starts immediately if a worker slot is free."""
        if any(task_id == queued[0] for queued in self._waiting) \
                or task_id in self._procs:
            raise ConfigurationError(
                f"task id {task_id!r} is already outstanding")
        self._waiting.append((task_id, fn, arg))
        self._specs[task_id] = (fn, arg)
        self._outstanding += 1
        self._fill()

    def _fill(self) -> None:
        if self._serial:
            return
        while self._waiting and len(self._procs) < self.n_jobs:
            task_id, fn, arg = self._waiting.popleft()
            self._attempts[task_id] = self._attempts.get(task_id, 0) + 1
            proc = self._ctx.Process(
                target=_farm_task, args=(fn, task_id, arg, self._results),
                daemon=False)
            try:
                proc.start()
            except OSError as exc:
                raise ParallelError(
                    f"could not fork worker for task {task_id!r}: "
                    f"{exc}") from exc
            if fire("farm.kill_worker"):
                # Supervisor-side chaos: kill the fresh worker before it
                # reports, exercising the silent-death retry path.
                proc.kill()
            self._procs[task_id] = proc

    def _retry_task(self, task_id: str, event: str, **fields) -> None:
        """Resubmit a task after a retryable failure (with backoff)."""
        attempt = self._attempts.get(task_id, 1)
        if self.journal is not None:
            self.journal.emit(event, task=task_id, attempt=attempt,
                              **fields)
        time.sleep(self.retry.delay(task_id, attempt))
        fn, arg = self._specs[task_id]
        self._waiting.append((task_id, fn, arg))
        self._fill()

    def _finish(self, task_id: str) -> None:
        """Drop per-task supervision state once an outcome is final."""
        self._attempts.pop(task_id, None)
        self._specs.pop(task_id, None)
        self._outstanding -= 1
        self._fill()

    def next_outcome(self) -> TaskOutcome:
        """Block until any outstanding task finishes; return its outcome.

        Raises:
            ConfigurationError: when no task is outstanding.
        """
        if not self._outstanding:
            raise ConfigurationError("no outstanding tasks to wait for")
        if self._serial:
            return self._serial_outcome()
        while True:
            message = None
            try:
                message = self._results.get(timeout=self._POLL_S)
            except queue_mod.Empty:
                dead = [tid for tid, proc in self._procs.items()
                        if proc.exitcode is not None]
                if dead:
                    # A worker exited: either its final result is still
                    # in the pipe (grace get) or it died silently
                    # (SIGKILL, OOM) and is retried or reported failed.
                    try:
                        message = self._results.get(
                            timeout=self._POLL_S * 4)
                    except queue_mod.Empty:
                        outcome = self._silent_death(dead[0])
                        if outcome is not None:
                            return outcome
                        continue
            if message is None:
                continue
            task_id, ok, payload = message
            proc = self._procs.pop(task_id, None)
            if proc is not None:
                proc.join()
            if not ok and str(payload).startswith("InjectedFault") \
                    and self._attempts.get(task_id, 1) \
                    < self.retry.max_attempts:
                self._retry_task(task_id, "job_retry", error=str(payload))
                continue
            self._finish(task_id)
            if ok:
                return TaskOutcome(task_id, True, value=payload)
            return TaskOutcome(task_id, False, error=str(payload))

    def _silent_death(self, task_id: str) -> TaskOutcome | None:
        """Handle a worker that exited without reporting.

        Returns the failed outcome once the retry budget is spent,
        ``None`` after scheduling a retry.
        """
        proc = self._procs.pop(task_id)
        proc.join()
        if self._attempts.get(task_id, 1) < self.retry.max_attempts:
            self._retry_task(task_id, "worker_restart",
                             reason=f"exit code {proc.exitcode}")
            return None
        self._finish(task_id)
        return TaskOutcome(
            task_id, False,
            error=f"worker died without reporting "
                  f"(exit code {proc.exitcode})")

    def _serial_outcome(self) -> TaskOutcome:
        """The inline path, with the same injected-fault retry policy."""
        task_id, fn, arg = self._waiting.popleft()
        self._specs.pop(task_id, None)
        self._outstanding -= 1
        attempt = 0
        while True:
            attempt += 1
            try:
                value = fn(arg)
            except InjectedFault as exc:
                if attempt < self.retry.max_attempts:
                    if self.journal is not None:
                        self.journal.emit(
                            "job_retry", task=task_id, attempt=attempt,
                            error=f"{type(exc).__name__}: {exc}")
                    time.sleep(self.retry.delay(task_id, attempt))
                    continue
                return TaskOutcome(task_id, False,
                                   error=f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - mirrored worker path
                return TaskOutcome(task_id, False,
                                   error=f"{type(exc).__name__}: {exc}")
            return TaskOutcome(task_id, True, value=value)

    def close(self) -> None:
        """Terminate any still-running workers and drop queued tasks."""
        self._waiting.clear()
        for proc in self._procs.values():
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
        self._procs.clear()
        self._attempts.clear()
        self._specs.clear()
        self._outstanding = 0
        if self._results is not None:
            self._results.close()
            self._results = None

    def __enter__(self) -> "TaskFarm":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _run_serial(jobs_list: Sequence[SeriesJob], setup: _WorkerSetup,
                perf: PerfRegistry | None, journal=None,
                policy: RetryPolicy | None = None) -> Iterator[SeriesBlock]:
    """The in-process path: same per-app renderer, no pool overhead.

    Each job records into a private registry that is merged into the
    parent's — mirroring what the pool does across the process boundary —
    so telemetry (and any attached journal) cannot tell the paths apart.
    Transient render failures (injected faults, flaky I/O) retry under
    the same policy as the pool: each attempt rebuilds the RNG substream
    and a fresh perf registry, so a retried render is bit-identical to a
    first-try success and counts exactly once.
    """
    if policy is None:
        policy = RetryPolicy()
    cpu_minutes = time_axis_minutes(setup.trace_days,
                                    setup.cpu_interval_minutes)
    bw_minutes = time_axis_minutes(setup.trace_days,
                                   setup.bw_interval_minutes)
    seasons = SeasonCache()
    for job in jobs_list:
        def attempt(job=job):
            rng = job_rng(setup.seed, setup.recipe, job.app_id)
            job_perf = PerfRegistry() if perf is not None else None
            block = render_series_job(job, setup.recipe, cpu_minutes,
                                      bw_minutes, rng, seasons=seasons,
                                      perf=job_perf)
            return block, job_perf

        def on_retry(attempt_no, delay_s, exc, job=job):
            if journal is not None:
                journal.emit("job_retry", app_id=job.app_id,
                             attempt=attempt_no,
                             delay_s=round(delay_s, 6),
                             error=f"{type(exc).__name__}: {exc}")

        try:
            block, job_perf = call_with_retry(
                attempt, policy=policy, token=job.app_id,
                on_retry=on_retry)
        except (InjectedFault, OSError) as exc:
            if journal is not None:
                journal.emit("job_quarantined", app_id=job.app_id,
                             attempts=policy.max_attempts,
                             error=f"{type(exc).__name__}: {exc}")
            raise QuarantineError(
                f"series job {job.app_id!r} failed after "
                f"{policy.max_attempts} attempts; last error: "
                f"{type(exc).__name__}: {exc}") from exc
        _account_block(job, job_perf, perf, journal)
        yield block
