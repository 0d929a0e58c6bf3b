"""Streaming workload sinks: series blocks to sharded storage, not RAM.

The in-core generation path accumulates every rendered row in
:class:`~repro.trace.dataset.TraceDataset` dictionaries — fine up to
paper scale, impossible at the city tier (~1M VMs would be hundreds of
gigabytes).  A :class:`WorkloadSink` gives the generators a third
destination: each :class:`~repro.workload.series.SeriesBlock` is
validated and appended to per-kind :class:`~repro.shards.ShardWriter`
streams, so the parent process only ever holds one shard buffer per
kind plus the block in flight.

Two backings share one class:

* ``WorkloadSink.for_cache(...)`` writes shards directly into an
  :class:`~repro.cache.ArtifactCache` staging directory; ``finalize``
  seals the entry with the usual meta-last + atomic-rename protocol, so
  a streamed run *is* its own cache population pass.
* ``WorkloadSink.spill(...)`` targets a temporary spill directory for
  cache-less runs (cleaned up at process exit).

``finalize`` then attaches lazy :class:`~repro.shards.ShardedSeriesMap`
views to the dataset, so every downstream analysis sees the familiar
``Mapping[vm_id, row]`` interface over the on-disk shards.

Streaming is an *execution* knob, like ``--jobs``: it changes where
bytes live, never what they are.  The golden-digest equivalence tests
pin that streamed output is bit-identical to the in-core path.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..config import Scenario
from ..errors import ConfigurationError, TraceError
from ..shards import (
    DEFAULT_SHARD_ROWS,
    ShardWriter,
    load_sharded_series,
    write_shard_index,
)
from .series import SeriesBlock

#: ``--streaming auto`` switches the sink on at or above this VM count.
STREAMING_THRESHOLD_VMS = 100_000

#: Accepted ``--streaming`` modes.
STREAMING_MODES = ("auto", "on", "off")


def resolve_streaming(mode: str, scenario: Scenario) -> bool:
    """Whether a study at ``scenario`` should stream its workloads.

    ``"on"``/``"off"`` force the path; ``"auto"`` enables it when either
    platform's VM count reaches :data:`STREAMING_THRESHOLD_VMS` (the
    point where in-core matrices stop fitting in commodity RAM).

    Raises:
        ConfigurationError: on an unknown mode.
    """
    if mode not in STREAMING_MODES:
        raise ConfigurationError(
            f"unknown streaming mode {mode!r}, expected one of "
            f"{STREAMING_MODES}")
    if mode != "auto":
        return mode == "on"
    return max(scenario.nep_vm_count,
               scenario.azure_vm_count) >= STREAMING_THRESHOLD_VMS


def _cleanup_spill(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class WorkloadSink:
    """Routes one workload's rendered series blocks to sharded disk.

    Single-use: one sink serves exactly one generator call.  The
    generator drives the protocol — :meth:`begin` once, :meth:`consume`
    per block, then :meth:`finalize` (or :meth:`abort` on failure).
    """

    def __init__(self, root: Path, *, entry_writer=None, journal=None,
                 shard_rows: int = DEFAULT_SHARD_ROWS) -> None:
        self.root = Path(root)
        #: Cache staging handle (``ArtifactCache.workload_writer``), or
        #: ``None`` for a plain spill directory.
        self._entry_writer = entry_writer
        self.journal = journal
        self.shard_rows = shard_rows
        self._writers: dict[str, ShardWriter] = {}
        self._order: list[str] = []
        self._seen: set[str] = set()
        self._began = False
        self._done = False
        self._aborted = False

    # ---- constructors ----------------------------------------------------

    @classmethod
    def for_cache(cls, cache, artifact: str, scenario: Scenario,
                  journal=None,
                  shard_rows: int = DEFAULT_SHARD_ROWS) -> "WorkloadSink":
        """A sink writing straight into a new cache entry's staging dir."""
        writer = cache.workload_writer(artifact, scenario)
        return cls(writer.staging, entry_writer=writer,
                   journal=journal if journal is not None else cache.journal,
                   shard_rows=shard_rows)

    @classmethod
    def spill(cls, directory: Path | str | None = None, journal=None,
              shard_rows: int = DEFAULT_SHARD_ROWS) -> "WorkloadSink":
        """A sink backed by a temporary spill directory (no cache).

        A created temp dir is removed at interpreter exit; an explicit
        ``directory`` is the caller's to manage.
        """
        if directory is None:
            directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            atexit.register(_cleanup_spill, directory)
        return cls(Path(directory), journal=journal, shard_rows=shard_rows)

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
                on_flush=self._flush_hook(kind),
                on_retry=self._retry_hook(kind))

    def _flush_hook(self, kind: str):
        def hook(shard: int, rows: int, nbytes: int) -> None:
            if self.journal is not None:
                self.journal.emit("chunk_spill", kind=kind, shard=shard,
                                  rows=rows, bytes=nbytes)
        return hook

    def _retry_hook(self, kind: str):
        def hook(shard: int, attempt: int, delay_s: float,
                 exc: BaseException) -> None:
            if self.journal is not None:
                self.journal.emit("io_retry", kind=kind, shard=shard,
                                  attempt=attempt,
                                  delay_s=round(delay_s, 6),
                                  error=f"{type(exc).__name__}: {exc}")
        return hook

    def consume(self, vm_ids: list[str], block: SeriesBlock) -> None:
        """Validate and append one rendered block's rows.

        Mirrors :meth:`TraceDataset.add_vm` semantics (duplicate ids,
        CPU range, non-negative bandwidth) vectorised over the block.
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
        cpu, bw = block.cpu_rows, block.bw_rows
        if np.any(cpu < 0) or np.any(cpu > 1.0 + 1e-6):
            raise TraceError(
                f"block {block.app_id!r}: CPU utilisation outside [0, 1]")
        if np.any(bw < 0):
            raise TraceError(f"block {block.app_id!r}: negative bandwidth")
        self._writers["cpu"].append(cpu.astype(np.float32, copy=False))
        self._writers["bw"].append(bw.astype(np.float32, copy=False))
        if "private" in self._writers:
            if block.private_rows is None:
                raise TraceError(
                    f"block {block.app_id!r}: missing private rows")
            self._writers["private"].append(
                block.private_rows.astype(np.float32, copy=False))
        self._order.extend(vm_ids)

    def finalize(self, platform, dataset) -> None:
        """Seal the store and attach lazy series maps to ``dataset``.

        For a cache-backed sink this writes the entry tables and commits
        via the atomic-rename protocol; either way the dataset's series
        become :class:`~repro.shards.ShardedSeriesMap` views over the
        final on-disk location.
        """
        if not self._began or self._done:
            raise TraceError("workload sink cannot finalize")
        self._done = True
        if list(dataset.vms) != self._order:
            raise TraceError(
                "sink row order does not match the dataset VM table")
        layouts = [writer.finalize() for writer in self._writers.values()]
        write_shard_index(self.root, layouts)
        shard_count = sum(layout.n_shards for layout in layouts)
        if self._entry_writer is not None:
            from ..cache import workload_tables

            tables = workload_tables(dataset)
            # Private rows are not attached to the dataset yet; their
            # order is the sink's row order whenever the kind exists.
            tables["private_ids"] = (list(self._order)
                                     if "private" in self._writers else [])
            final_root = self._entry_writer.commit(
                {"platform.pkl": platform, "tables.pkl": tables},
                shards=shard_count)
        else:
            final_root = self.root
        orders = {kind: self._order for kind in self._writers}
        maps = load_sharded_series(final_root, orders)
        dataset.attach_series(maps["cpu"], maps["bw"], maps.get("private"))

    def abort(self) -> None:
        """Discard all partial output (failed generation).

        Idempotent: the generator aborts on a mid-stream failure and the
        study aborts again when the exception reaches it (covering
        failures *before* the generator's own try block, e.g. during
        placement) — the second call must not touch the already-removed
        directory.  Same ENOSPC hygiene as the cache's staging dirs: a
        failed spill never waits for interpreter exit to free its disk.
        """
        if self._aborted:
            return
        self._aborted = True
        self._done = True
        if self._entry_writer is not None:
            self._entry_writer.abort()
        else:
            shutil.rmtree(self.root, ignore_errors=True)
