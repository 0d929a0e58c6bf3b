"""The supervised process executor behind every parallel path.

:class:`TaskFarm` is the library's one executor.  Its callers submit
independent ``(task_id, fn, arg)`` tasks and collect
:class:`TaskOutcome` values in completion order:

* :func:`run_series_jobs` renders per-app workload series.  Every app's
  block draws from its own named RNG substream (see
  :mod:`repro.workload.series`), so blocks are mutually independent;
  every job is submitted at once and the generator yields blocks **in
  submission order** (:meth:`TaskFarm.ordered`), so the parent takes
  them deterministically whatever the worker count or completion order.
* :func:`repro.qoe.sessions.run_sessions` simulates session chunks and
  folds them through the same :meth:`TaskFarm.ordered`.
* :mod:`repro.sweep.runner` runs sweep cells, each a full
  :class:`~repro.study.EdgeStudy`, in completion order.

Workers
-------

A farm with ``n_jobs > 1`` forks up to ``n_jobs`` persistent worker
processes, each with a private pipe, and sends each task as the pickle
of ``(fn, arg)``; ``fn`` must be a module-level function, and a task
that cannot be pickled raises :class:`~repro.errors.ParallelError`
naming it at submission.  Workers are **not** daemonic, so a task may
start a farm of its own: a sweep cell renders its series on a nested
farm.  ``n_jobs == 1``, or a platform without the ``fork`` start method
(with a journal warning), runs every task inline in the calling process
through the same retry policy, which is what makes output bit-identical
across ``--jobs`` by construction.

Series rows never cross the process boundary.  Before the farm starts,
the parent knows each job's global row offset (the VM counts of the
jobs before it), so the task that renders a job also checks its rows
and writes them with ``pwrite`` straight into the final shard files of
the workload's sink (:func:`repro.workload.streaming.write_block`).  A
task returns only the per-VM mean bandwidths and its perf spans; the
parent seals each shard once all its rows are in.  A retried or killed
job rewrites the same bytes at the same offsets, and the inline mode
runs the same task.  Each process memoises the time axes and season
cache of the last scenario it rendered, and worker-side perf spans ride
back with each task and are merged by the parent (merged ``cpu_s`` sums
across processes and can exceed the parent's wall time).

Supervision
-----------

The parent watches its workers under a
:class:`~repro.resilience.SupervisionConfig`.  Every worker carries a
heartbeat thread stamping a shared clock slot; the watchdog detects
(a) workers that exited or broke their pipe (OOM kill, SIGKILL,
crash), (b) tasks that exceed the per-task timeout and (c) wedged
workers whose heartbeat goes stale.  In all three cases it kills the
worker, journals a ``worker_restart``, respawns a fresh worker and
re-dispatches the lost task after a seeded backoff.  Tasks that fail
with a transient error (:data:`~repro.resilience.retry.DEFAULT_TRANSIENT`:
an injected chaos fault or an ``OSError``) are retried the same way,
inline or pooled.  A genuine error is never retried: it comes back as a
failed outcome carrying ``"Type: message"``.  A task still failing when
its attempt budget is spent is quarantined (``job_quarantined``).
Because every task is a pure function of its argument, a retried task
reproduces the bytes of a first-try success, so supervision changes
timings, never results; the recovery events are volatile
(:data:`repro.obs.VOLATILE_EVENT_TYPES`) and chaos runs canonicalise
bit-identical to clean ones.  The ``pool.kill_worker`` chaos site kills
the worker a task was just dispatched to.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import Scenario
from .core.chunks import block_row_stats
from .errors import ConfigurationError, ParallelError, QuarantineError
from .perf import PerfRegistry
from .resilience import DEFAULT_TRANSIENT, SupervisionConfig, fire
from .workload.patterns import time_axis_minutes
from .workload.series import (
    SeasonCache,
    SeriesBlock,
    SeriesJob,
    SeriesRecipe,
    job_rng,
    render_series_job,
)
from .workload.streaming import WorkloadSink, write_block


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


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """The fork context, or ``None`` where fork is unavailable.

    Workers require fork: they start cheaply without re-importing the
    package and inherit the parent's failpoint registry.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one farmed task: a value or a one-line error."""

    task_id: str
    ok: bool
    value: object = None
    error: str | None = None
    #: The task kept failing transiently until its attempt budget ran
    #: out (as opposed to one genuine error).
    quarantined: bool = False


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


#: Parent watchdog poll and worker heartbeat stamp intervals (seconds).
_POLL_S = 0.05
_HEARTBEAT_STAMP_S = 0.2

#: Message telling a worker to exit cleanly (a task is never empty).
_STOP = b""


def _worker_main(index: int, conn, heartbeats, parent_pid: int) -> None:
    """Worker main loop: run pickled ``(fn, arg)`` tasks until stopped.

    A daemon thread stamps ``heartbeats[index]`` so the parent can tell
    a busy worker from a wedged one, and exits the process once the
    parent is gone (sibling workers hold the parent's pipe ends, so an
    orphan would otherwise wait for work forever).  Every reply is
    ``(ok, value or error, transient)``; task errors never end the loop.
    """
    def stamp() -> None:  # pragma: no cover - timing-dependent thread
        while os.getppid() == parent_pid:
            heartbeats[index] = time.monotonic()
            time.sleep(_HEARTBEAT_STAMP_S)
        os._exit(1)

    threading.Thread(target=stamp, daemon=True).start()
    while True:
        message = conn.recv_bytes()
        if message == _STOP:
            return
        fn, arg = pickle.loads(message)
        try:
            reply = (True, fn(arg), False)
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            reply = (False, _describe(exc),
                     isinstance(exc, DEFAULT_TRANSIENT))
        try:
            conn.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            conn.send((False, f"unpicklable result: {_describe(exc)}",
                       False))


@dataclass
class _Task:
    """Supervisor-side state of one submitted task."""

    task_id: str
    fn: Callable
    arg: object
    #: ``pickle((fn, arg))`` for the workers; ``None`` inline.
    payload: bytes | None
    attempts: int = 0
    ready_at: float = 0.0
    deadline: float | None = None


@dataclass
class _Worker:
    """One worker process, the parent's end of its pipe, its task."""

    index: int
    proc: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    task: _Task | None = None


def _stop_workers(pool: list[_Worker]) -> None:
    """Stop idle workers cleanly and kill busy ones, then reap all."""
    for worker in pool:
        if worker.task is not None:
            worker.proc.kill()
            continue
        try:
            worker.conn.send_bytes(_STOP)
        except OSError:
            pass
    for worker in pool:
        worker.proc.join(timeout=1.0)
        if worker.proc.exitcode is None:
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()
    pool.clear()


class TaskFarm:
    """Run independent tasks on supervised persistent workers.

    Tasks are submitted as ``(task_id, fn, arg)`` and collected with
    :meth:`next_outcome` in completion order, which lets a scheduler
    unlock dependent work (a sweep group's followers) the moment its
    prerequisite finishes.  Inline (``n_jobs == 1`` or no ``fork``),
    :meth:`next_outcome` runs the oldest waiting task in the calling
    process, so scheduling semantics are identical either way.  See the
    module docstring for supervision; ``supervision`` defaults to
    :class:`~repro.resilience.SupervisionConfig`'s stock limits.
    """

    def __init__(self, n_jobs: int = 1, journal=None,
                 supervision: SupervisionConfig | None = None) -> None:
        n_jobs = resolve_jobs(n_jobs)
        self.journal = journal
        self.supervision = (supervision if supervision is not None
                            else SupervisionConfig())
        ctx = _pool_context() if n_jobs > 1 else None
        if n_jobs > 1 and ctx is None and journal is not None:
            journal.warn("fork start method unavailable on this platform; "
                         "running tasks inline", jobs=n_jobs)
        self._ctx = ctx
        #: Worker processes the farm may fork; 0 in the inline mode.
        self.workers = n_jobs if ctx is not None else 0
        self._pool: list[_Worker] = []
        self._tasks: dict[str, _Task] = {}
        self._waiting: deque[_Task] = deque()
        self._done: deque[TaskOutcome] = deque()
        self._heartbeats = None
        if self.workers:
            self._heartbeats = ctx.Array("d", self.workers, lock=False)
            # Runs at interpreter exit before multiprocessing joins its
            # non-daemonic children, so a farm never closed cannot hang
            # the exit on idle workers.
            self._finalizer = multiprocessing.util.Finalize(
                self, _stop_workers, args=(self._pool,), exitpriority=10)

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet returned by :meth:`next_outcome`."""
        return len(self._tasks)

    def submit(self, task_id: str, fn: Callable, arg: object) -> None:
        """Enqueue one task; it starts at once if a worker is free.

        Raises:
            ConfigurationError: when ``task_id`` is already outstanding.
            ParallelError: when ``fn`` or ``arg`` cannot be pickled for
                a worker.
        """
        if task_id in self._tasks:
            raise ConfigurationError(
                f"task id {task_id!r} is already outstanding")
        payload = None
        if self.workers:
            try:
                payload = pickle.dumps((fn, arg),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise ParallelError(
                    f"task {task_id!r} cannot be sent to a worker: "
                    f"{_describe(exc)}") from exc
        task = _Task(task_id, fn, arg, payload)
        self._tasks[task_id] = task
        self._waiting.append(task)
        self._fill(time.monotonic())

    def next_outcome(self) -> TaskOutcome:
        """Block until any outstanding task finishes; return its outcome.

        Raises:
            ConfigurationError: when no task is outstanding.
        """
        if not self._tasks:
            raise ConfigurationError("no outstanding tasks to wait for")
        while not self._done:
            if self.workers:
                self._poll()
            else:
                self._run_inline(self._waiting.popleft())
        outcome = self._done.popleft()
        del self._tasks[outcome.task_id]
        return outcome

    def ordered(self, fn: Callable,
                tasks: Iterable[tuple[str, object]]) -> Iterator[object]:
        """Run ``fn`` on every ``(task_id, arg)``; yield values in order.

        Every task is submitted before the first value is awaited, and
        values come back in submission order whatever order the tasks
        finish in, so a fold over them is independent of the worker
        count.

        Raises:
            QuarantineError: when a task exhausts its retry budget.
            ParallelError: when a task fails with a genuine error, or
                cannot be sent to a worker.
        """
        order = []
        for task_id, arg in tasks:
            self.submit(task_id, fn, arg)
            order.append(task_id)
        finished: dict[str, object] = {}
        for task_id in order:
            while task_id not in finished:
                outcome = self.next_outcome()
                if not outcome.ok:
                    error = (QuarantineError if outcome.quarantined
                             else ParallelError)
                    raise error(f"task {outcome.task_id!r}: {outcome.error}")
                finished[outcome.task_id] = outcome.value
            yield finished.pop(task_id)

    def close(self) -> None:
        """Stop the workers and drop every outstanding task."""
        if self.workers:
            self._finalizer()
        self._tasks.clear()
        self._waiting.clear()
        self._done.clear()

    def __enter__(self) -> "TaskFarm":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---- one task's lifecycle --------------------------------------

    def _emit(self, etype: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.emit(etype, **fields)

    def _settle(self, task: _Task, ok: bool, payload: object,
                transient: bool, now: float) -> None:
        """Record one attempt's result: done, failed, or retried."""
        if ok:
            self._done.append(TaskOutcome(task.task_id, True, value=payload))
        elif transient:
            self._retry(task, str(payload), now)
        else:
            self._done.append(TaskOutcome(task.task_id, False,
                                          error=str(payload)))

    def _retry(self, task: _Task, reason: str, now: float) -> None:
        """Re-queue a task after seeded backoff, or quarantine it."""
        policy = self.supervision.retry
        if task.attempts >= policy.max_attempts:
            self._emit("job_quarantined", task=task.task_id,
                       attempts=task.attempts, error=reason)
            self._done.append(TaskOutcome(
                task.task_id, False, quarantined=True,
                error=f"failed after {task.attempts} attempts; "
                      f"last error: {reason}"))
            return
        delay = policy.delay(task.task_id, task.attempts)
        self._emit("job_retry", task=task.task_id, attempt=task.attempts,
                   delay_s=round(delay, 6), error=reason)
        task.ready_at = now + delay
        self._waiting.appendleft(task)

    def _run_inline(self, task: _Task) -> None:
        time.sleep(max(0.0, task.ready_at - time.monotonic()))
        task.attempts += 1
        try:
            value = task.fn(task.arg)
        except Exception as exc:  # noqa: BLE001 - the worker path's twin
            self._settle(task, False, _describe(exc),
                         isinstance(exc, DEFAULT_TRANSIENT),
                         time.monotonic())
        else:
            self._settle(task, True, value, False, time.monotonic())

    # ---- the worker pool -------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        self._heartbeats[index] = time.monotonic()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, child_conn, self._heartbeats, os.getpid()),
            daemon=False)
        try:
            proc.start()
        except OSError as exc:
            raise ParallelError(
                f"could not start worker {index} of {self.workers} "
                f"(fork): {exc}") from exc
        finally:
            child_conn.close()
        return _Worker(index, proc, parent_conn)

    def _fill(self, now: float) -> None:
        """Dispatch ready tasks to idle workers, forking up to the limit."""
        while self.workers:
            task = next((t for t in self._waiting if t.ready_at <= now),
                        None)
            if task is None:
                return
            worker = next((w for w in self._pool if w.task is None), None)
            if worker is None:
                if len(self._pool) == self.workers:
                    return
                worker = self._spawn(len(self._pool))
                self._pool.append(worker)
            self._waiting.remove(task)
            task.attempts += 1
            timeout = self.supervision.job_timeout_s
            task.deadline = now + timeout if timeout is not None else None
            worker.task = task
            try:
                worker.conn.send_bytes(task.payload)
            except OSError:
                worker.proc.kill()  # the watchdog re-dispatches the task
            if fire("pool.kill_worker"):
                # Supervisor-side chaos: kill at dispatch, exercising
                # the dead-worker path.
                worker.proc.kill()

    def _receive(self, worker: _Worker, now: float) -> bool:
        """Settle a worker's reply; ``False`` when its pipe broke."""
        try:
            ok, payload, transient = worker.conn.recv()
        except (EOFError, OSError):
            return False
        task, worker.task = worker.task, None
        self._settle(task, ok, payload, transient, now)
        return True

    def _restart(self, worker: _Worker, reason: str | None,
                 now: float) -> None:
        """Reap a dead or killed worker, respawn it, retry its task."""
        worker.proc.join(timeout=1.0)
        if worker.proc.exitcode is None:
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()
        reason = reason or f"exit code {worker.proc.exitcode}"
        task = worker.task
        self._emit("worker_restart", worker=worker.index, reason=reason,
                   task=task.task_id if task is not None else "")
        self._pool[worker.index] = self._spawn(worker.index)
        if task is not None:
            self._retry(task, f"worker died without reporting ({reason})",
                        now)

    def _poll(self) -> None:
        """Wait one poll interval for replies, then run the watchdog."""
        busy = {w.conn: w for w in self._pool if w.task is not None}
        if busy:
            ready = wait(list(busy), timeout=_POLL_S)
        else:  # every waiting task is backing off
            ready = []
            time.sleep(_POLL_S)
        now = time.monotonic()
        for conn in ready:
            if not self._receive(busy[conn], now):
                self._restart(busy[conn], None, now)
        stale_s = self.supervision.heartbeat_timeout_s
        for worker in list(self._pool):
            if worker.proc.exitcode is not None:
                # A reply flushed just before death still counts.
                if worker.task is not None and worker.conn.poll():
                    self._receive(worker, now)
                self._restart(worker, None, now)
            elif worker.task is not None \
                    and worker.task.deadline is not None \
                    and now > worker.task.deadline:
                worker.proc.kill()
                self._restart(worker, "job timeout", now)
            elif stale_s is not None \
                    and now - self._heartbeats[worker.index] > stale_s:
                worker.proc.kill()
                self._restart(worker, "heartbeat stale", now)
        self._fill(now)


# ---- series rendering ----------------------------------------------------


@dataclass(frozen=True)
class _SeriesSetup:
    """What rendering any job of one series run needs besides the job."""

    seed: int
    recipe: SeriesRecipe
    trace_days: int
    cpu_interval_minutes: int
    bw_interval_minutes: int


#: This process's time axes and season cache, keyed by the axis knobs
#: of the last setup rendered (see :func:`_axes`).
_AXES: tuple | None = None


def _axes(setup: _SeriesSetup) -> tuple[np.ndarray, np.ndarray, SeasonCache]:
    """CPU and bandwidth time axes plus a season cache, memoised."""
    global _AXES
    key = (setup.trace_days, setup.cpu_interval_minutes,
           setup.bw_interval_minutes)
    if _AXES is None or _AXES[0] != key:
        _AXES = (key,
                 time_axis_minutes(setup.trace_days,
                                   setup.cpu_interval_minutes),
                 time_axis_minutes(setup.trace_days,
                                   setup.bw_interval_minutes),
                 SeasonCache())
    return _AXES[1:]


def _render(setup: _SeriesSetup, job: SeriesJob) -> SeriesBlock:
    """Render one job with a private perf registry."""
    cpu_minutes, bw_minutes, seasons = _axes(setup)
    perf = PerfRegistry()
    rng = job_rng(setup.seed, setup.recipe, job.app_id)
    block = render_series_job(job, setup.recipe, cpu_minutes, bw_minutes,
                              rng, seasons=seasons, perf=perf)
    block.perf = perf
    return block


def _render_task(arg: tuple,
                 ) -> tuple[np.ndarray, tuple[np.ndarray, ...], PerfRegistry]:
    """Farm task: render one job, write its rows in place and reduce
    them while they are hot.

    Returns only what the parent needs besides the rows: the per-VM
    mean bandwidths, the rows' reductions
    (:func:`~repro.core.chunks.block_row_stats`) and the render's perf
    spans.
    """
    setup, job, row, targets = arg
    block = _render(setup, job)
    write_block(targets, row, block)
    return (block.mean_bws, block_row_stats(block.cpu_rows, block.bw_rows),
            block.perf)


def run_series_jobs(jobs_list: Sequence[SeriesJob], scenario: Scenario,
                    recipe: SeriesRecipe, sink: WorkloadSink,
                    n_jobs: int = 1, perf: PerfRegistry | None = None,
                    supervision: SupervisionConfig | None = None,
                    ) -> Iterator[SeriesBlock]:
    """Render series jobs on a :class:`TaskFarm` into ``sink``'s shard
    files, yielding blocks in submission order.

    Job ``i`` owns the rows from the sum of the ``vm_count`` of the jobs
    before it; its task writes them there (see
    :func:`~repro.workload.streaming.write_block`), so every job is
    submitted at once.  ``sink`` must have begun, and the caller
    consumes each yielded block into it in order; closing the generator
    stops the farm, so no task writes into the sink after that.  A
    yielded block's rows are read-only views of the rows on disk (see
    :meth:`~repro.shards.ShardTarget.view`).

    The farm gets ``min(n_jobs, len(jobs_list))`` workers (one job, or
    ``n_jobs == 1``, renders inline); ``supervision`` is passed to it.

    Raises:
        ConfigurationError: on a bad ``n_jobs`` value.
        ParallelError: when a worker cannot be created, or a job fails
            with a genuine error.
        QuarantineError: when one job exhausts its retry budget.
    """
    journal = perf.journal if perf is not None else None
    setup = _SeriesSetup(
        seed=scenario.seed, recipe=recipe,
        trace_days=scenario.trace_days,
        cpu_interval_minutes=scenario.cpu_interval_minutes,
        bw_interval_minutes=scenario.bw_interval_minutes,
    )
    targets = sink.targets
    rows = np.cumsum([0] + [job.vm_count for job in jobs_list]).tolist()
    workers = max(1, min(resolve_jobs(n_jobs), len(jobs_list)))
    with TaskFarm(workers, journal=journal,
                  supervision=supervision) as farm:
        if journal is not None:
            # Dispatch events all come before any render, so the
            # journal is identical across --jobs.
            for job in jobs_list:
                journal.emit("job_dispatch", app_id=job.app_id,
                             vm_count=job.vm_count)
        values = farm.ordered(_render_task, (
            (job.app_id, (setup, job, row, targets))
            for row, job in zip(rows, jobs_list)))
        for row, job, (mean_bws, stats, block_perf) in zip(
                rows, jobs_list, values):
            # Inline and pooled renders both merge a private perf
            # registry, so their journals cannot tell them apart.
            if perf is not None:
                perf.merge(block_perf)
            if journal is not None:
                journal.emit("job_complete", app_id=job.app_id,
                             vms=job.vm_count, wall_s=round(
                                 block_perf.wall_s("series_render"), 6))
            views = {kind: target.view(row, job.vm_count)
                     for kind, target in targets.items()}
            yield SeriesBlock(app_id=job.app_id, mean_bws=mean_bws,
                              cpu_rows=views["cpu"], bw_rows=views["bw"],
                              private_rows=views.get("private"),
                              stats=stats)
