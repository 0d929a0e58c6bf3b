"""Sharded on-disk series storage: the out-of-core trace backbone.

A city-scale trace (~1M VMs at 92 days of 1-minute readings) is half a
terabyte of float32 rows per series kind — far beyond what any single
process should materialise.  This module stores such a series as a
directory of fixed-size ``.npy`` *shards* (one per contiguous VM-row
range) plus a tiny ``shards.json`` index, and reads it back through
:class:`ShardedSeriesMap`: a lazy, read-only ``Mapping[vm_id, row]``
that memory-maps one shard at a time and can iterate bounded
``(vm_ids, rows)`` windows for the chunked analyses in
:mod:`repro.core.chunks`.

The writer half (:class:`ShardWriter`) is stream-oriented: callers
append row blocks as they are rendered and each filled shard is flushed
to disk immediately, so the writer's working set never exceeds one
shard regardless of the total VM count.  Writers always target a
staging directory (a :class:`~repro.cache.ArtifactCache` entry
being staged, or a workload spill directory), so crash atomicity is
inherited from the entry-level atomic rename.

Every load verifies the store before serving from it: shard count,
per-shard header dtype/shape, and on-disk payload size must all match
the index.  A mismatch raises :class:`~repro.errors.TraceError`, which
the cache layer treats as a corrupt entry (evict + miss).

Self-healing extensions (see :mod:`repro.resilience`): every flushed
shard records a sha256 of its payload bytes in the index, so ``repro
cache verify`` can *deep*-check stores for silent corruption (structural
header/size checks stay the default load path — hashing half a terabyte
per warm city-tier load would defeat the cache).  Shard flushes retry
transient failures (ENOSPC bursts, injected ``shard.write`` faults)
under a bounded seeded-backoff policy before propagating — and a
propagated failure unwinds through the sink's ``abort``, removing the
staging directory so the store is never left torn.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import TraceError
from .resilience import RetryPolicy, failpoint
from .resilience.retry import call_with_retry

#: Rows per shard file.  At paper resolution (92 d / 1 min = 132480
#: points) one shard is ~2 GiB of float32 at 4096 rows; the default
#: keeps shards near 512 MiB so a windowed pass touches at most one
#: shard's pages at a time.
DEFAULT_SHARD_ROWS = 1024

#: Index file describing every sharded series kind inside a store dir.
SHARD_INDEX_NAME = "shards.json"

#: Row dtype of every shard (the dtype TraceDataset series use).
SHARD_DTYPE = np.float32


@dataclass(frozen=True)
class ShardLayout:
    """Shape of one sharded series kind: how rows map to shard files."""

    kind: str
    rows: int
    points: int
    shard_rows: int
    #: Per-shard sha256 hexdigests of the payload bytes, in shard order.
    #: Empty for stores written before checksums existed (loads stay
    #: structural; deep verification reports them as unverifiable).
    checksums: tuple[str, ...] = ()

    @property
    def n_shards(self) -> int:
        return (self.rows + self.shard_rows - 1) // self.shard_rows

    def shard_extent(self, index: int) -> tuple[int, int]:
        """The ``[start, stop)`` global row range of shard ``index``."""
        start = index * self.shard_rows
        return start, min(start + self.shard_rows, self.rows)

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "kind": self.kind, "rows": self.rows, "points": self.points,
            "shard_rows": self.shard_rows}
        if self.checksums:
            payload["checksums"] = list(self.checksums)
        return payload


def shard_path(root: Path, kind: str, index: int) -> Path:
    """The file holding shard ``index`` of series kind ``kind``."""
    return Path(root) / kind / f"shard-{index:05d}.npy"


def write_shard_index(root: Path, layouts: list[ShardLayout]) -> None:
    """Write ``shards.json`` describing every kind stored under ``root``."""
    payload = {
        "format": 1,
        "series": {layout.kind: layout.as_dict() for layout in layouts},
    }
    with (Path(root) / SHARD_INDEX_NAME).open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def read_shard_index(root: Path) -> dict[str, ShardLayout]:
    """Load and validate ``shards.json``; raises TraceError when absent
    or malformed."""
    index_path = Path(root) / SHARD_INDEX_NAME
    try:
        payload = json.loads(index_path.read_text())
    except FileNotFoundError:
        raise TraceError(f"no shard index at {index_path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"unreadable shard index {index_path}: {exc}") \
            from exc
    layouts = {}
    for kind, entry in payload.get("series", {}).items():
        try:
            layout = ShardLayout(
                kind=kind, rows=int(entry["rows"]),
                points=int(entry["points"]),
                shard_rows=int(entry["shard_rows"]),
                checksums=tuple(str(c)
                                for c in entry.get("checksums", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"malformed shard index entry for {kind!r}") from exc
        if layout.checksums and len(layout.checksums) != layout.n_shards:
            raise TraceError(
                f"shard index for {kind!r} lists {len(layout.checksums)} "
                f"checksums for {layout.n_shards} shards")
        layouts[kind] = layout
    return layouts


class ShardWriter:
    """Streams row blocks of one series kind into shard files.

    Rows are buffered into a single preallocated shard-sized float32
    array; each time the buffer fills, one ``.npy`` shard lands on
    disk.  :meth:`finalize` flushes the tail shard and returns the
    resulting :class:`ShardLayout`.  The caller owns directory
    atomicity (write into a staging dir, rename at the end).
    """

    def __init__(self, root: Path, kind: str, points: int,
                 shard_rows: int = DEFAULT_SHARD_ROWS,
                 on_flush=None, retry: RetryPolicy | None = None,
                 on_retry=None) -> None:
        if points <= 0:
            raise TraceError(f"points must be positive, got {points}")
        if shard_rows <= 0:
            raise TraceError(f"shard_rows must be positive, got {shard_rows}")
        self.root = Path(root)
        self.kind = kind
        self.points = int(points)
        self.shard_rows = int(shard_rows)
        #: Optional callback ``(shard_index, rows, nbytes)`` per flush —
        #: the journal's ``chunk_spill`` hook.
        self.on_flush = on_flush
        #: Transient flush failures retry under this policy before
        #: propagating (and unwinding the owning sink's staging dir).
        self.retry = retry if retry is not None else RetryPolicy()
        #: Optional callback ``(shard_index, attempt, delay_s, exc)``
        #: per flush retry — the journal's ``io_retry`` hook.
        self.on_retry = on_retry
        self._dir = self.root / kind
        self._dir.mkdir(parents=True, exist_ok=True)
        self._buffer = np.empty((self.shard_rows, self.points),
                                dtype=SHARD_DTYPE)
        self._fill = 0
        self._rows = 0
        self._shards = 0
        self._checksums: list[str] = []
        self._finalized = False

    def append(self, rows: np.ndarray) -> None:
        """Buffer a ``(n, points)`` block, flushing filled shards."""
        if self._finalized:
            raise TraceError(f"shard writer for {self.kind!r} is finalized")
        block = np.asarray(rows)
        if block.ndim != 2 or block.shape[1] != self.points:
            raise TraceError(
                f"{self.kind} shard block has shape {block.shape}, expected "
                f"(*, {self.points})")
        offset = 0
        remaining = block.shape[0]
        while remaining:
            take = min(remaining, self.shard_rows - self._fill)
            self._buffer[self._fill:self._fill + take] = \
                block[offset:offset + take]
            self._fill += take
            offset += take
            remaining -= take
            if self._fill == self.shard_rows:
                self._flush()
        self._rows += block.shape[0]

    def _flush(self) -> None:
        if not self._fill:
            return
        path = shard_path(self.root, self.kind, self._shards)
        filled = self._buffer[:self._fill]
        # Hash the payload before writing: zero-copy over the contiguous
        # buffer slice, and the digest the index records is by
        # construction what a clean write put on disk.
        digest = hashlib.sha256(filled).hexdigest()

        def write() -> None:
            failpoint("shard.write", path.name)
            np.save(path, filled)

        def retried(attempt: int, delay_s: float, exc: BaseException) -> None:
            # A failed np.save can leave a torn partial file; remove it
            # so the retry starts from a clean slate.
            path.unlink(missing_ok=True)
            if self.on_retry is not None:
                self.on_retry(self._shards, attempt, delay_s, exc)

        try:
            call_with_retry(write, policy=self.retry,
                            token=f"{self.kind}/{self._shards}",
                            on_retry=retried)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        self._checksums.append(digest)
        if self.on_flush is not None:
            self.on_flush(self._shards, self._fill, int(filled.nbytes))
        self._shards += 1
        self._fill = 0

    def finalize(self) -> ShardLayout:
        """Flush the partial tail shard and seal the writer."""
        if not self._finalized:
            self._flush()
            self._finalized = True
        return ShardLayout(kind=self.kind, rows=self._rows,
                           points=self.points, shard_rows=self.shard_rows,
                           checksums=tuple(self._checksums))


def _verify_shard(path: Path, expected_rows: int, points: int,
                  checksum: str | None = None,
                  deep: bool = False) -> None:
    """Check one shard's header and payload size without loading it.

    With ``deep=True`` and a recorded ``checksum``, the payload bytes
    are additionally hashed and compared — the full-integrity pass
    behind ``repro cache verify`` (too expensive for the default load
    path at city scale).

    Raises:
        TraceError: missing file, wrong dtype/shape, truncation, or
            (deep only) a payload checksum mismatch.
    """
    failpoint("shard.read", path.name)
    try:
        with path.open("rb") as handle:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_2_0(handle)
            else:
                raise ValueError(f"unsupported .npy version {version}")
            data_start = handle.tell()
    except FileNotFoundError:
        raise TraceError(f"missing shard {path.name}") from None
    except (OSError, ValueError) as exc:
        raise TraceError(f"unreadable shard {path.name}: {exc}") from exc
    if dtype != np.dtype(SHARD_DTYPE) or fortran:
        raise TraceError(
            f"shard {path.name}: dtype/layout mismatch (got {dtype})")
    if shape != (expected_rows, points):
        raise TraceError(
            f"shard {path.name}: shape {shape}, expected "
            f"({expected_rows}, {points})")
    expected_bytes = data_start + expected_rows * points * \
        np.dtype(SHARD_DTYPE).itemsize
    actual = path.stat().st_size
    if actual != expected_bytes:
        raise TraceError(
            f"shard {path.name}: {actual} bytes on disk, expected "
            f"{expected_bytes} (truncated or padded)")
    if deep and checksum:
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            handle.seek(data_start)
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
        if digest.hexdigest() != checksum:
            raise TraceError(
                f"shard {path.name}: payload checksum mismatch")


def verify_layout(root: Path, layout: ShardLayout,
                  deep: bool = False) -> None:
    """Check every shard of one series kind with :func:`_verify_shard`.

    Raises:
        TraceError: on the first shard that fails.
    """
    checksums = layout.checksums
    for shard in range(layout.n_shards):
        start, stop = layout.shard_extent(shard)
        _verify_shard(shard_path(root, layout.kind, shard), stop - start,
                      layout.points,
                      checksum=(checksums[shard]
                                if shard < len(checksums) else None),
                      deep=deep)


class ShardedSeriesMap(Mapping):
    """Read-only ``{vm_id: row}`` view over a sharded series store.

    ``__getitem__`` returns a float32 row *view* into the shard's
    memory map while keeping at most a small number of shard maps open.
    :meth:`iter_windows` is the bulk path: shard-bounded, zero-copy
    ``(vm_ids, rows)`` windows in trace order for the chunked analyses.
    """

    def __init__(self, root: Path, layout: ShardLayout,
                 order: list[str], index: dict[str, int] | None = None,
                 verify: bool = True) -> None:
        self.root = Path(root)
        self.layout = layout
        self._order = order
        if len(order) != layout.rows:
            raise TraceError(
                f"{layout.kind} store holds {layout.rows} rows for "
                f"{len(order)} VM ids")
        #: vm_id -> global row.  Shareable across kinds with one order.
        self._index = (index if index is not None
                       else {vm_id: i for i, vm_id in enumerate(order)})
        self._maps: dict[int, np.ndarray] = {}
        if verify:
            self.verify()

    def verify(self, deep: bool = False) -> None:
        """Validate every shard header/size against the layout.

        ``deep=True`` additionally hashes each shard's payload against
        the recorded checksum (when the index carries one).
        """
        verify_layout(self.root, self.layout, deep=deep)

    def _shard(self, index: int) -> np.ndarray:
        cached = self._maps.get(index)
        if cached is None:
            cached = np.load(shard_path(self.root, self.layout.kind, index),
                             mmap_mode="r")
            start, stop = self.layout.shard_extent(index)
            if cached.shape != (stop - start, self.layout.points):
                raise TraceError(
                    f"{self.layout.kind} shard {index}: shape "
                    f"{cached.shape} does not match layout")
            self._maps[index] = cached
        return cached

    # ---- Mapping protocol ------------------------------------------------

    def __getitem__(self, vm_id: str) -> np.ndarray:
        row = self._index[vm_id]
        shard, offset = divmod(row, self.layout.shard_rows)
        return self._shard(shard)[offset]

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, vm_id: object) -> bool:
        return vm_id in self._index

    # ---- bulk access -----------------------------------------------------

    def iter_windows(self, rows: int | None = None,
                     ) -> Iterator[tuple[list[str], np.ndarray]]:
        """Yield ``(vm_ids, rows_2d)`` windows in trace order.

        Windows never cross a shard boundary, so each yielded 2-D array
        is a contiguous zero-copy slice of one shard's memory map.
        ``rows`` caps the window height (default: whole shards).
        """
        step = self.layout.shard_rows if rows is None \
            else min(int(rows), self.layout.shard_rows)
        if step <= 0:
            raise TraceError(f"window rows must be positive, got {rows}")
        for shard in range(self.layout.n_shards):
            start, stop = self.layout.shard_extent(shard)
            data = self._shard(shard)
            for lo in range(0, stop - start, step):
                hi = min(lo + step, stop - start)
                yield (self._order[start + lo:start + hi], data[lo:hi])


def load_sharded_series(root: Path, orders: dict[str, list[str]],
                        ) -> dict[str, ShardedSeriesMap]:
    """Open every kind in a store dir, sharing per-order row indexes.

    ``orders`` maps kind -> VM-id order; kinds present in the index but
    absent from ``orders`` are an inconsistency and raise.
    """
    layouts = read_shard_index(root)
    if set(layouts) != set(orders):
        raise TraceError(
            f"shard index kinds {sorted(layouts)} do not match expected "
            f"{sorted(orders)}")
    shared: dict[int, dict[str, int]] = {}
    maps = {}
    for kind, layout in layouts.items():
        order = orders[kind]
        index = shared.get(id(order))
        if index is None:
            index = {vm_id: i for i, vm_id in enumerate(order)}
            shared[id(order)] = index
        maps[kind] = ShardedSeriesMap(root, layout, order, index=index)
    return maps
