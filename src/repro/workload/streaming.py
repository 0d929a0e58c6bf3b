"""Workload sinks: the one way generated series reach storage.

Every generator streams its rendered rows into a :class:`WorkloadSink`'s
shard files.  The process that renders a block also checks it and
writes it in place (:func:`write_block`, at the block's global row
offset, through the sink's picklable :attr:`WorkloadSink.targets`); the
parent's per-block step, :meth:`WorkloadSink.consume`, only checks the
VM ids and seals the shards the block completed.  Nothing holds a shard
in memory, whatever the VM count.

Two backings share one class:

* ``WorkloadSink.for_cache(...)`` writes shards directly into an
  :class:`~repro.cache.ArtifactCache` staging directory; ``finalize``
  seals the entry with the usual meta-last + atomic-rename protocol, so
  a generating run *is* its own cache population pass.  A seal that
  keeps failing degrades the run to uncached: a ``cache_write_error``
  event, no entry, and the staged shards move out of the cache's
  staging namespace to serve this run as a spill.
* ``WorkloadSink.spill(...)`` targets a temporary spill directory for
  cache-less runs; it is what a generator uses when given no sink.

``finalize`` then attaches lazy :class:`~repro.shards.ShardedSeriesMap`
views to the dataset, so every downstream analysis sees the familiar
``Mapping[vm_id, row]`` interface over the on-disk shards.  The
per-VM row reductions the farm tasks computed while the rows were hot
(:func:`~repro.core.chunks.block_row_stats`) travel with the blocks;
``finalize`` joins them into the dataset's
:class:`~repro.core.chunks.RowStats` before the entry is pickled, so a
warm load reads them instead of scanning the shards.
"""

from __future__ import annotations

import shutil
import tempfile
from multiprocessing.util import Finalize
from pathlib import Path

import numpy as np

from ..config import Scenario
from ..core.chunks import RowStats
from ..errors import InjectedFault, TraceError
from ..shards import (
    DEFAULT_SHARD_ROWS,
    ShardTarget,
    ShardWriter,
    load_sharded_series,
    write_shard_index,
)
from .series import SeriesBlock


def write_block(targets: dict[str, ShardTarget], row: int,
                block: SeriesBlock) -> None:
    """Check one rendered block and write its rows at global row ``row``.

    The checks mirror :meth:`TraceDataset.add_vm` (CPU utilisation in
    [0, 1], non-negative bandwidth) vectorised over the block, plus
    private rows whenever the sink stores them.

    Raises:
        TraceError: on a failed check.
    """
    cpu, bw = block.cpu_rows, block.bw_rows
    if np.any(cpu < 0) or np.any(cpu > 1.0 + 1e-6):
        raise TraceError(
            f"block {block.app_id!r}: CPU utilisation outside [0, 1]")
    if np.any(bw < 0):
        raise TraceError(f"block {block.app_id!r}: negative bandwidth")
    if "private" in targets and block.private_rows is None:
        raise TraceError(f"block {block.app_id!r}: missing private rows")
    targets["cpu"].write(row, cpu)
    targets["bw"].write(row, bw)
    if "private" in targets:
        targets["private"].write(row, block.private_rows)


class SpillLifetime:
    """Owns one spill directory: removes it once nothing holds this token.

    A sink holds the token until :meth:`WorkloadSink.finalize` hands it
    to the series maps it attaches, so the directory goes when the last
    map is released, or at process exit.  ``multiprocessing``'s
    finalizer also runs when a worker process leaves (through
    ``os._exit``, skipping ``atexit``), and never in a forked child for
    its parent's directory.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        Finalize(self, shutil.rmtree, args=(str(self.path),),
                 kwargs={"ignore_errors": True}, exitpriority=0)


class WorkloadSink:
    """Routes one workload's rendered series blocks to sharded disk.

    Single-use: one sink serves exactly one generator call.  The
    generator drives the protocol — :meth:`begin` once, then per block
    a :func:`write_block` into :attr:`targets` (done by the farm task
    that rendered it) and :meth:`consume` in row order, then
    :meth:`finalize` (or :meth:`abort` on failure).
    """

    def __init__(self, root: Path, *, entry_writer=None, journal=None,
                 shard_rows: int = DEFAULT_SHARD_ROWS,
                 lifetime: SpillLifetime | None = None) -> None:
        self.root = Path(root)
        #: Cache staging handle (``ArtifactCache.workload_writer``), or
        #: ``None`` for a plain spill directory.
        self._entry_writer = entry_writer
        self.journal = journal
        self.shard_rows = shard_rows
        #: Removal token of a temporary spill directory, handed to the
        #: attached series maps at :meth:`finalize`.
        self._lifetime = lifetime
        self._writers: dict[str, ShardWriter] = {}
        self._order: list[str] = []
        #: Each consumed block's :attr:`SeriesBlock.stats`, in order.
        self._stats: list[tuple[np.ndarray, ...]] = []
        self._seen: set[str] = set()
        self._began = False
        self._done = False
        self._aborted = False

    # ---- constructors ----------------------------------------------------

    @classmethod
    def for_cache(cls, cache, artifact: str, scenario: Scenario,
                  shard_rows: int = DEFAULT_SHARD_ROWS) -> "WorkloadSink":
        """A sink writing straight into a new cache entry's staging dir."""
        writer = cache.workload_writer(artifact, scenario)
        return cls(writer.staging, entry_writer=writer,
                   journal=cache.journal, shard_rows=shard_rows)

    @classmethod
    def spill(cls, directory: Path | str | None = None, journal=None,
              shard_rows: int = DEFAULT_SHARD_ROWS) -> "WorkloadSink":
        """A sink backed by a temporary spill directory (no cache).

        A created temp dir lives as long as the series read from it
        (:class:`SpillLifetime`); an explicit ``directory`` is the
        caller's to manage.
        """
        lifetime = None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-spill-")
            lifetime = SpillLifetime(directory)
        return cls(Path(directory), journal=journal, shard_rows=shard_rows,
                   lifetime=lifetime)

    # ---- streaming protocol ----------------------------------------------

    def begin(self, cpu_points: int, bw_points: int, private: bool) -> None:
        """Open the per-kind shard writers for this workload's shape."""
        if self._began:
            raise TraceError("workload sink already began")
        self._began = True
        kinds = [("cpu", cpu_points), ("bw", bw_points)]
        if private:
            kinds.append(("private", bw_points))
        for kind, points in kinds:
            self._writers[kind] = ShardWriter(
                self.root, kind, points, shard_rows=self.shard_rows,
                on_flush=self._flush_hook(kind))

    @property
    def targets(self) -> dict[str, ShardTarget]:
        """Per-kind :class:`~repro.shards.ShardTarget`: where rows go."""
        return {kind: writer.target for kind, writer in self._writers.items()}

    def _flush_hook(self, kind: str):
        def hook(shard: int, rows: int, nbytes: int) -> None:
            if self.journal is not None:
                self.journal.emit("chunk_spill", kind=kind, shard=shard,
                                  rows=rows, bytes=nbytes)
        return hook

    def consume(self, vm_ids: list[str], block: SeriesBlock) -> None:
        """Take the next block, already written at the next free row.

        Checks the VM ids (no duplicates, one per row), keeps the
        block's row stats and seals the shards whose rows are now all
        in.
        """
        if not self._began or self._done:
            raise TraceError("workload sink is not accepting blocks")
        if len(vm_ids) != block.cpu_rows.shape[0]:
            raise TraceError(
                f"block {block.app_id!r}: {block.cpu_rows.shape[0]} rows "
                f"for {len(vm_ids)} VM ids")
        for vm_id in vm_ids:
            if vm_id in self._seen:
                raise TraceError(f"duplicate VM id {vm_id!r}")
            self._seen.add(vm_id)
        for writer in self._writers.values():
            writer.advance(len(self._order), len(vm_ids))
        self._order.extend(vm_ids)
        self._stats.append(block.stats)

    def finalize(self, platform, dataset) -> None:
        """Seal the store and attach lazy series maps to ``dataset``.

        The blocks' row stats attach first.  For a cache-backed sink
        this then pickles the platform and the dataset (its tables and
        row stats) into the entry and commits via the atomic-rename
        protocol; the series attach only afterwards, so the pickle
        holds no rows.  Either way the dataset's series become
        :class:`~repro.shards.ShardedSeriesMap` views over the final
        on-disk location.
        """
        if not self._began or self._done:
            raise TraceError("workload sink cannot finalize")
        self._done = True
        if list(dataset.vms) != self._order:
            raise TraceError(
                "sink row order does not match the dataset VM table")
        dataset.attach_row_stats(RowStats.of_blocks(self._order, self._stats))
        layouts = [writer.finalize() for writer in self._writers.values()]
        write_shard_index(self.root, layouts)
        if self._entry_writer is not None:
            self._commit(platform, dataset,
                         sum(layout.n_shards for layout in layouts))
        orders = {kind: self._order for kind in self._writers}
        maps = load_sharded_series(self.root, orders, owner=self._lifetime)
        dataset.attach_series(maps["cpu"], maps["bw"], maps.get("private"))
        self._lifetime = None

    def _commit(self, platform, dataset, shard_count: int) -> None:
        """Seal the cache entry, or degrade to serving this run uncached.

        A seal that still fails after its retry budget (disk full, a
        persistent fault) costs the next run a render, never this run
        its result: the staged shards become this run's spill.
        """
        try:
            self.root = self._entry_writer.commit(
                {"platform.pkl": platform, "dataset.pkl": dataset},
                shards=shard_count)
        except (InjectedFault, OSError) as exc:
            self.root = self._entry_writer.detach(exc)
            self._lifetime = SpillLifetime(self.root)

    def abort(self) -> None:
        """Discard all partial output (failed generation).

        Idempotent: the generator aborts on a mid-stream failure and the
        study aborts again when the exception reaches it (covering
        failures *before* the generator's own try block, e.g. during
        placement) — the second call must not touch the already-removed
        directory.  Same ENOSPC hygiene as the cache's staging dirs: a
        failed spill never waits for its lifetime to end to free its
        disk.
        """
        if self._aborted:
            return
        self._aborted = True
        self._done = True
        if self._entry_writer is not None:
            self._entry_writer.abort()
        else:
            shutil.rmtree(self.root, ignore_errors=True)
