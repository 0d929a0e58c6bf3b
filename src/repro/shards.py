"""Sharded on-disk series storage: the out-of-core trace backbone.

A city-scale trace (~1M VMs at 92 days of 1-minute readings) is half a
terabyte of float32 rows per series kind — far beyond what any single
process should materialise.  This module stores such a series as a
directory of fixed-size ``.npy`` *shards* (one per contiguous VM-row
range) plus a tiny ``shards.json`` index, and reads it back through
:class:`ShardedSeriesMap`: a lazy, read-only ``Mapping[vm_id, row]``
that reads each row, or each bounded ``(vm_ids, rows)`` window for the
chunked analyses in :mod:`repro.core.chunks`, into a fresh array with
``os.preadv``.  Nothing is memory-mapped: the process holds only the
window it is working on (at most :data:`WINDOW_BYTES`), never the
shard pages it has already read, and a shard truncated under a live
map raises :class:`~repro.errors.TraceError` instead of killing the
process with ``SIGBUS``.

The writer half holds no rows at all.  Any process writes a block at
its global row offset straight into the final shard files through a
picklable :class:`ShardTarget`; the :class:`ShardWriter` counts the
rows reported written and seals each shard once all its rows are in.
Writers always target a staging directory (a
:class:`~repro.cache.ArtifactCache` entry being staged, or a workload
spill directory), so crash atomicity is inherited from the entry-level
atomic rename.

Every load verifies the store before serving from it: shard count,
per-shard header dtype/shape, and on-disk payload size must all match
the index.  A mismatch raises :class:`~repro.errors.TraceError`, which
the cache layer treats as a corrupt entry (evict + miss).

Self-healing extensions (see :mod:`repro.resilience`): every sealed
shard records a sha256 of its payload bytes in the index, so ``repro
cache verify`` can *deep*-check stores for silent corruption (structural
header/size checks stay the default load path — hashing half a terabyte
per warm city-tier load would defeat the cache).  A failed write
(ENOSPC, an injected ``shard.write`` fault) propagates; the series farm
retries the whole job, which rewrites the same bytes at the same
offsets, and a failure that outlasts the retry budget unwinds through
the sink's ``abort``, removing the staging directory so the store is
never left torn.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import TraceError
from .resilience import failpoint

#: Rows per shard file.  At paper resolution (92 d / 1 min = 132480
#: points) one shard is ~2 GiB of float32 at 4096 rows; the default
#: keeps shards near 512 MiB so a windowed pass touches at most one
#: shard's pages at a time.
DEFAULT_SHARD_ROWS = 1024

#: Bytes one bulk read brings in: a window holds as many whole rows as
#: fit (at least one).  At paper resolution (132 480 float32 points, 518
#: KiB a row) that is 15 rows; a window never crosses a shard boundary.
WINDOW_BYTES = 8 << 20

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


def window_rows(row_bytes: int, rows: int | None = None) -> int:
    """Rows per bulk window: as many whole rows as fit in
    :data:`WINDOW_BYTES` (at least one), capped at ``rows`` when given.

    Raises:
        TraceError: on a non-positive ``rows``.
    """
    if rows is not None and rows <= 0:
        raise TraceError(f"window rows must be positive, got {rows}")
    budget = max(WINDOW_BYTES // max(int(row_bytes), 1), 1)
    return budget if rows is None else min(int(rows), budget)


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


def _npy_header(rows: int, points: int) -> bytes:
    """The ``.npy`` header :func:`numpy.save` writes for a shard's shape."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(SHARD_DTYPE)),
        "fortran_order": False, "shape": (int(rows), int(points))})
    return buffer.getvalue()


def _pwrite_all(fd: int, data: np.ndarray, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view = view[written:]
        offset += written


def _payload_sha256(handle, start: int) -> str:
    """sha256 of an open shard's bytes from ``start`` to the end."""
    handle.seek(start)
    digest = hashlib.sha256()
    while True:
        chunk = handle.read(1 << 20)
        if not chunk:
            return digest.hexdigest()
        digest.update(chunk)


@dataclass(frozen=True)
class ShardTarget:
    """Where the rows of one series kind land, as a small picklable value.

    A farm task gets one per kind and writes its block in place: global
    row ``r`` lives in shard ``r // shard_rows`` at byte ``header_bytes +
    (r % shard_rows) * points * 4``.  ``numpy`` pads a header for the
    row count to grow, so its length does not depend on the rows a
    shard ends up holding.
    """

    root: Path
    kind: str
    points: int
    shard_rows: int

    @cached_property
    def header_bytes(self) -> int:
        return len(_npy_header(self.shard_rows, self.points))

    def pieces(self, row: int, count: int) -> Iterator[tuple[int, int, int]]:
        """``(shard, row within it, rows)`` for each shard a range touches."""
        stop = row + count
        while row < stop:
            shard, local = divmod(row, self.shard_rows)
            take = min(stop - row, self.shard_rows - local)
            yield shard, local, take
            row += take

    def write(self, row: int, rows: np.ndarray) -> None:
        """Write a ``(n, points)`` block at global row ``row``.

        Rewriting a block writes the same bytes at the same offsets, so
        a retried task needs no cleanup.

        Raises:
            TraceError: when the block is not ``(n, points)``.
        """
        block = np.ascontiguousarray(rows, dtype=SHARD_DTYPE)
        if block.ndim != 2 or block.shape[1] != self.points:
            raise TraceError(
                f"{self.kind} shard block has shape {block.shape}, expected "
                f"(*, {self.points})")
        stride = self.points * block.itemsize
        done = 0
        for shard, local, take in self.pieces(row, block.shape[0]):
            path = shard_path(self.root, self.kind, shard)
            failpoint("shard.write", path.name)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                _pwrite_all(fd, block[done:done + take],
                            self.header_bytes + local * stride)
            finally:
                os.close(fd)
            done += take

    def view(self, row: int, count: int) -> np.ndarray:
        """Rows ``[row, row + count)`` as written, read-only.

        A memory map while the rows lie in one shard file, a copy when
        they span several.
        """
        stride = self.points * np.dtype(SHARD_DTYPE).itemsize
        pieces = [np.memmap(shard_path(self.root, self.kind, shard),
                            dtype=SHARD_DTYPE, mode="r",
                            offset=self.header_bytes + local * stride,
                            shape=(take, self.points))
                  for shard, local, take in self.pieces(row, count)]
        if len(pieces) == 1:
            return pieces[0]
        if not pieces:
            return np.empty((0, self.points), dtype=SHARD_DTYPE)
        return np.concatenate(pieces)


class ShardWriter:
    """Seals the shard files of one series kind as their rows come in.

    Rows reach the files through :attr:`target`, from any process and in
    any order.  The writer counts the rows reported written
    (:meth:`advance`) and seals each shard, in shard order, once all its
    rows are in: it writes the ``.npy`` header, hashes the payload while
    its pages are still cached, and calls ``on_flush``.  :meth:`append`
    is the one-process shorthand (write at the end, then report) and
    :meth:`finalize` seals the tail shard.  The caller owns directory
    atomicity (write into a staging dir, rename at the end).
    """

    def __init__(self, root: Path, kind: str, points: int,
                 shard_rows: int = DEFAULT_SHARD_ROWS,
                 on_flush=None) -> None:
        if points <= 0:
            raise TraceError(f"points must be positive, got {points}")
        if shard_rows <= 0:
            raise TraceError(f"shard_rows must be positive, got {shard_rows}")
        self.target = ShardTarget(Path(root), kind, int(points),
                                  int(shard_rows))
        #: Optional callback ``(shard_index, rows, nbytes)`` per sealed
        #: shard — the journal's ``chunk_spill`` hook.
        self.on_flush = on_flush
        (self.target.root / kind).mkdir(parents=True, exist_ok=True)
        #: Rows reported written, per shard.
        self._filled: list[int] = []
        #: One past the last row reported written.
        self._rows = 0
        self._checksums: list[str] = []
        self._finalized = False

    def append(self, rows: np.ndarray) -> None:
        """Write a ``(n, points)`` block after the last row and report it."""
        self._check_open()
        self.target.write(self._rows, rows)
        self.advance(self._rows, len(rows))

    def advance(self, row: int, count: int) -> None:
        """Report rows ``[row, row + count)`` written; seal full shards.

        Raises:
            TraceError: when the writer is finalized or a row is
                reported twice.
        """
        self._check_open()
        shard_rows = self.target.shard_rows
        for shard, _, take in self.target.pieces(row, count):
            if shard >= len(self._filled):
                self._filled.extend([0] * (shard + 1 - len(self._filled)))
            self._filled[shard] += take
            if self._filled[shard] > shard_rows:
                raise TraceError(f"{self.target.kind} shard {shard}: rows "
                                 f"reported written twice")
        self._rows = max(self._rows, row + count)
        sealed = len(self._checksums)
        while sealed < len(self._filled) \
                and self._filled[sealed] == shard_rows:
            self._seal(sealed, shard_rows)
            sealed += 1

    def _check_open(self) -> None:
        if self._finalized:
            raise TraceError(
                f"shard writer for {self.target.kind!r} is finalized")

    def _seal(self, shard: int, rows: int) -> None:
        """Write shard ``shard``'s header and record its checksum.

        Raises:
            TraceError: when rows of the shard were never reported, or
                its file is missing or has the wrong size.
        """
        target = self.target
        path = shard_path(target.root, target.kind, shard)
        if self._filled[shard] != rows:
            raise TraceError(
                f"{target.kind} shard {shard}: {self._filled[shard]} of "
                f"{rows} rows written")
        header = _npy_header(rows, target.points)
        nbytes = rows * target.points * np.dtype(SHARD_DTYPE).itemsize
        if len(header) != target.header_bytes:
            raise TraceError(f"{path.name}: header length depends on rows")
        try:
            with path.open("r+b") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size != len(header) + nbytes:
                    raise TraceError(
                        f"{path.name}: {size} bytes written, expected "
                        f"{len(header) + nbytes}")
                handle.write(header)
                digest = _payload_sha256(handle, len(header))
        except FileNotFoundError:
            raise TraceError(f"missing shard {path.name}") from None
        self._checksums.append(digest)
        if self.on_flush is not None:
            self.on_flush(shard, rows, nbytes)

    def finalize(self) -> ShardLayout:
        """Seal every shard not yet sealed and return the layout.

        Raises:
            TraceError: when a shard has rows that were never reported.
        """
        target = self.target
        if not self._finalized:
            for shard in range(len(self._checksums), len(self._filled)):
                start = shard * target.shard_rows
                self._seal(shard, min(target.shard_rows, self._rows - start))
            self._finalized = True
        return ShardLayout(kind=target.kind, rows=self._rows,
                           points=target.points,
                           shard_rows=target.shard_rows,
                           checksums=tuple(self._checksums))


def _verify_shard(path: Path, expected_rows: int, points: int,
                  checksum: str | None = None,
                  deep: bool = False) -> int:
    """Check one shard's header and payload size without loading it;
    return the byte offset of its payload.

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
        with path.open("rb") as handle:
            digest = _payload_sha256(handle, data_start)
        if digest != checksum:
            raise TraceError(
                f"shard {path.name}: payload checksum mismatch")
    return data_start


def verify_layout(root: Path, layout: ShardLayout,
                  deep: bool = False) -> list[int]:
    """Check every shard of one series kind with :func:`_verify_shard`;
    return each shard's payload offset, in shard order.

    Raises:
        TraceError: on the first shard that fails.
    """
    checksums = layout.checksums
    offsets = []
    for shard in range(layout.n_shards):
        start, stop = layout.shard_extent(shard)
        offsets.append(_verify_shard(
            shard_path(root, layout.kind, shard), stop - start,
            layout.points,
            checksum=checksums[shard] if shard < len(checksums) else None,
            deep=deep))
    return offsets


class ShardedSeriesMap(Mapping):
    """Read-only ``{vm_id: row}`` view over a sharded series store.

    ``__getitem__`` reads one float32 row from its shard into a fresh
    read-only array.  :meth:`iter_windows` is the bulk path: bounded,
    shard-aligned ``(vm_ids, rows)`` windows in trace order for the
    chunked analyses, each read into a fresh array of at most
    :data:`WINDOW_BYTES`.  Every read is an ``os.preadv`` into that
    array; no shard is ever memory-mapped, so the process holds only
    the arrays its caller keeps.
    """

    def __init__(self, root: Path, layout: ShardLayout,
                 order: list[str], index: dict[str, int] | None = None,
                 verify: bool = True, owner: object = None) -> None:
        self.root = Path(root)
        self.layout = layout
        self._order = order
        #: Kept alive as long as this map: the lifetime token of a spill
        #: directory (:class:`repro.workload.streaming.SpillLifetime`).
        self._owner = owner
        if len(order) != layout.rows:
            raise TraceError(
                f"{layout.kind} store holds {layout.rows} rows for "
                f"{len(order)} VM ids")
        #: vm_id -> global row.  Shareable across kinds with one order.
        self._index = (index if index is not None
                       else {vm_id: i for i, vm_id in enumerate(order)})
        self._paths = [os.fspath(shard_path(self.root, layout.kind, shard))
                       for shard in range(layout.n_shards)]
        #: Per-shard payload offset from its ``.npy`` header; ``None``
        #: until the shard is verified (at load, or before its first
        #: read when verification was deferred).
        self._offsets: list[int | None] = [None] * layout.n_shards
        if verify:
            self.verify()

    def verify(self, deep: bool = False) -> None:
        """Validate every shard header/size against the layout.

        ``deep=True`` additionally hashes each shard's payload against
        the recorded checksum (when the index carries one).
        """
        self._offsets = verify_layout(self.root, self.layout, deep=deep)

    def _read(self, shard: int, local: int,
              shape: tuple[int, ...]) -> np.ndarray:
        """The rows of shard ``shard`` from row ``local`` on, read into a
        fresh read-only array of ``shape`` (``(points,)`` for one row,
        ``(count, points)`` for a window).

        Raises:
            TraceError: when the shard is missing or ends before the
                rows (truncated after the map was opened).
        """
        layout = self.layout
        path = self._paths[shard]
        payload = self._offsets[shard]
        if payload is None:
            first, stop = layout.shard_extent(shard)
            payload = _verify_shard(Path(path), stop - first,
                                    layout.points)
            self._offsets[shard] = payload
        out = np.empty(shape, dtype=SHARD_DTYPE)
        view = memoryview(out).cast("B")
        offset = payload + local * layout.points * out.itemsize
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            raise TraceError(
                f"missing shard {os.path.basename(path)}") from None
        try:
            while view:
                got = os.preadv(fd, [view], offset)
                if not got:
                    raise TraceError(
                        f"shard {os.path.basename(path)}: ends before "
                        f"byte {offset + len(view)} (truncated)")
                view = view[got:]
                offset += got
        finally:
            os.close(fd)
        out.flags.writeable = False
        return out

    # ---- Mapping protocol ------------------------------------------------

    def __getitem__(self, vm_id: str) -> np.ndarray:
        shard, local = divmod(self._index[vm_id], self.layout.shard_rows)
        return self._read(shard, local, (self.layout.points,))

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

        Each window is as many rows as fit in :data:`WINDOW_BYTES`,
        capped at ``rows`` when given, and never crosses a shard
        boundary.  Every window is a fresh array, so a caller may keep
        any of them.
        """
        layout = self.layout
        step = window_rows(
            layout.points * np.dtype(SHARD_DTYPE).itemsize, rows)
        for shard in range(layout.n_shards):
            start, stop = layout.shard_extent(shard)
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                window = self._read(shard, lo - start,
                                    (hi - lo, layout.points))
                yield self._order[lo:hi], window


def load_sharded_series(root: Path, orders: dict[str, list[str]],
                        owner: object = None,
                        ) -> dict[str, ShardedSeriesMap]:
    """Open every kind in a store dir, sharing per-order row indexes.

    ``orders`` maps kind -> VM-id order; kinds present in the index but
    absent from ``orders`` are an inconsistency and raise.  ``owner`` is
    kept alive by every map (see :class:`ShardedSeriesMap`).
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
        maps[kind] = ShardedSeriesMap(root, layout, order, index=index,
                                      owner=owner)
    return maps
