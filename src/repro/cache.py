"""Content-addressed on-disk cache of expensive study artifacts.

Paper-scale workload generation takes minutes even parallelised; the
artifacts it produces are pure functions of the scenario and the code.
:class:`ArtifactCache` memoises them across *process invocations*: a
second ``repro run`` / benchmark with the same scenario loads the
generated workloads and campaign results from disk instead of
regenerating them.

Keys and invalidation
---------------------

An entry's key is ``sha256(format | code_version | artifact name |
scenario token)``.  The scenario token (:func:`artifact_token`) holds
only the :class:`~repro.config.Scenario` fields the artifact depends on
(:data:`ARTIFACT_FIELDS`), so a fault-profile sweep, or a rerun with
other QoE or live-engine knobs, shares the multi-minute trace render.
``code_version`` digests every ``*.py`` file of the installed ``repro``
package.  Any source change therefore invalidates the whole cache —
deliberately conservative: a stale artifact can silently skew every
downstream figure, an unnecessary regeneration only costs time.

Layout and atomicity
--------------------

Each entry is a directory ``<root>/<key[:2]>/<key>/`` holding
``meta.json`` plus its payload: pickled files (``object.pkl``, or a
workload's ``platform.pkl`` and ``dataset.pkl``) and, for workloads,
per-kind shard directories (``cpu/shard-00000.npy``, ...) indexed by
``shards.json`` — see :mod:`repro.shards`.  Every store goes through one
:class:`StreamedEntryWriter`: payload files are filled into a ``.tmp-*``
staging directory, and :meth:`StreamedEntryWriter.commit` pickles the
objects, writes ``meta.json`` last and renames the directory into
place with ``os.rename``.  The rename is atomic, so readers only ever
see complete entries; a run killed mid-write leaves at most an ignored
staging directory that the next ``clear`` sweeps.  Corrupt entries (truncated
payloads, unpicklable bytes) are treated as misses and removed.

Workload entries
----------------

A workload has one on-disk layout and one writer: the generating
run's :class:`~repro.workload.streaming.WorkloadSink` streams shards
into the staging directory as blocks are rendered
(:meth:`ArtifactCache.workload_writer`) and seals the entry when the
last block lands.  ``get_workload`` returns lazy windowed
:class:`~repro.shards.ShardedSeriesMap` views over the entry's shards,
so a warm hit on a paper-scale trace returns in milliseconds and reads
rows and bounded windows from disk only as analyses ask for them; any
shard whose header or size fails verification turns the whole entry
into an evicted miss.
"""

from __future__ import annotations

import calendar
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import shutil
import time
import uuid
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .config import Scenario
from .errors import ConfigurationError, InjectedFault, TraceError
from .resilience import RetryPolicy, failpoint
from .resilience.retry import call_with_retry
from .shards import (
    SHARD_INDEX_NAME,
    load_sharded_series,
    read_shard_index,
    verify_layout,
)
from .workload.generator import GeneratedWorkload

#: Bump when the on-disk entry layout changes.
CACHE_FORMAT = 3

#: Files above this size record only their byte count in the entry
#: manifest, not a sha256 — hashing a large pickled artifact (a
#: paper-scale VM table or campaign result) at store time would
#: dominate the write, and torn writes (the realistic corruption) are
#: caught by the size check alone.
DIGEST_MAX_BYTES = 64 << 20

#: Commit retry budget.  At the ci chaos profile's 5% injected failure
#: rate, five attempts leave a ~3e-7 chance per entry of degrading to
#: an uncached run — far below observable flake.
COMMIT_RETRY = RetryPolicy(max_attempts=5)


def _file_sha256(path: Path) -> str:
    """The sha256 hexdigest of a file's bytes (chunked read)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(staging: Path) -> dict[str, dict]:
    """The integrity manifest of a staged entry: size (and, for files
    under :data:`DIGEST_MAX_BYTES`, sha256) per top-level file.

    Shard payloads live in subdirectories and carry per-shard checksums
    in ``shards.json``, so hashing them here would double the commit
    cost.
    """
    files: dict[str, dict] = {}
    for path in sorted(staging.iterdir()):
        if not path.is_file():
            continue
        size = path.stat().st_size
        info: dict[str, object] = {"bytes": size}
        if size <= DIGEST_MAX_BYTES:
            info["sha256"] = _file_sha256(path)
        files[path.name] = info
    return files

#: The ``kind`` of every workload entry, in ``meta.json``, journal
#: events and ``repro cache ls``.
WORKLOAD_KIND = "workload"

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ALL_FIELDS = tuple(spec.name for spec in dataclasses.fields(Scenario))
_PLATFORM_FIELDS = ("seed", "nep_site_count", "nep_servers_per_site_min",
                    "nep_servers_per_site_max")
_TRACE_FIELDS = ("trace_days", "cpu_interval_minutes", "bw_interval_minutes")
_NEP_FIELDS = _PLATFORM_FIELDS + ("nep_vm_count",) + _TRACE_FIELDS
_CAMPAIGN_FIELDS = _NEP_FIELDS + ("fault_profile", "participant_count",
                                  "city_count")

#: Cached artifact -> the :class:`~repro.config.Scenario` fields its
#: result depends on, its inputs' included; ``tests/test_cache_fields.py``
#: checks each entry against the fields a cold run of the phase reads.
ARTIFACT_FIELDS: dict[str, tuple[str, ...]] = {
    "workload_nep": _NEP_FIELDS,
    "workload_azure": ("seed", "azure_vm_count") + _TRACE_FIELDS,
    "campaign_latency": _CAMPAIGN_FIELDS + ("pings_per_target",),
    "campaign_throughput": _CAMPAIGN_FIELDS + ("throughput_participants",
                                               "throughput_edge_vms"),
    "qoe_sessions": ("seed", "nep_site_count") + tuple(
        name for name in _ALL_FIELDS if name.startswith("qoe_")),
    "live": _PLATFORM_FIELDS + ("fault_profile", "trace_days") + tuple(
        name for name in _ALL_FIELDS if name.startswith("live_")),
}


def artifact_token(artifact: str, scenario: Scenario) -> str:
    """The scenario token an artifact's cache key is built on.

    The canonical JSON of the fields :data:`ARTIFACT_FIELDS` lists for
    ``artifact`` (every field for an artifact it does not list), so
    scenarios differing only in other fields share one entry.  This is
    the one function that turns a scenario into a key; entry metadata
    and sweep dedup groups use it too.
    """
    names = ARTIFACT_FIELDS.get(artifact, _ALL_FIELDS)
    return json.dumps({name: getattr(scenario, name) for name in names},
                      sort_keys=True, separators=(",", ":"))


def default_cache_dir() -> Path:
    """The conventional cache root: ``$REPRO_CACHE_DIR`` or XDG."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the installed ``repro`` sources (the cache's code key)."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CacheEntry:
    """One materialised artifact, as listed by ``repro cache ls``."""

    key: str
    artifact: str
    kind: str
    created_at: str
    bytes: int
    path: Path
    #: Shard-file count for sharded workload entries (0 otherwise).
    shards: int = 0


def _unpickle(path: Path) -> object:
    """Load one pickled payload with the garbage collector paused.

    A platform pickle is a large graph of fresh container objects, and
    every allocation batch would otherwise start a collection pass over
    them although none is garbage.  The caller's collector state is
    restored whatever the load does.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    finally:
        if was_enabled:
            gc.enable()


class ArtifactCache:
    """A content-addressed store of study artifacts under one root.

    With a :class:`~repro.obs.journal.RunJournal` attached (``journal=``,
    or assigned later — :class:`~repro.study.EdgeStudy` does this when it
    is given both), every lookup and store emits a structured event
    (``cache_hit`` / ``cache_miss`` / ``cache_store`` / ``cache_evict``)
    carrying the artifact name and content key, so ``repro trace`` can
    explain exactly why a run regenerated what it did.
    """

    def __init__(self, root: Path | str, journal=None) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use cache directory {self.root}: "
                f"{exc.strerror}") from exc
        #: Optional :class:`repro.obs.journal.RunJournal` receiving events.
        self.journal = journal

    def _emit(self, etype: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.emit(etype, **fields)

    # ---- keys ------------------------------------------------------------

    def key(self, artifact: str, scenario: Scenario) -> str:
        """The content-addressed entry key for ``artifact`` + scenario.

        The scenario part is :func:`artifact_token`, so scenarios
        differing only in fields the artifact ignores map to the same
        entry.
        """
        if not artifact:
            raise ConfigurationError("artifact name must be non-empty")
        payload = "|".join((str(CACHE_FORMAT), code_version(), artifact,
                            artifact_token(artifact, scenario)))
        return hashlib.sha256(payload.encode()).hexdigest()

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    # ---- generic pickled artifacts ---------------------------------------

    def get_object(self, artifact: str, scenario: Scenario) -> object | None:
        """Load a pickled artifact, or ``None`` on miss/corruption."""
        return self._get(artifact, scenario, "object",
                         lambda entry: _unpickle(entry / "object.pkl"))

    def put_object(self, artifact: str, scenario: Scenario,
                   value: object) -> None:
        """Store a pickled artifact (no-op if already present).

        A store that cannot commit (disk full, persistent fault)
        degrades to a ``cache_write_error`` event: it costs recompute
        time on the next run, never correctness of this one.  The
        staging directory is removed either way, so the cache stays
        readable.
        """
        key = self.key(artifact, scenario)
        if (self._entry_dir(key) / "meta.json").exists():
            return
        try:
            writer = StreamedEntryWriter(self, artifact, scenario, "object")
            try:
                writer.commit({"object.pkl": value})
            except BaseException:
                writer.abort()
                raise
        except (InjectedFault, OSError) as exc:
            self._emit("cache_write_error", artifact=artifact, key=key,
                       error=f"{type(exc).__name__}: {exc}")

    # ---- workload artifacts (sharded, disk-backed series) ----------------

    def get_workload(self, artifact: str,
                     scenario: Scenario) -> GeneratedWorkload | None:
        """Load a generated workload, series read from its shards on
        demand, or ``None``."""
        return self._get(artifact, scenario, WORKLOAD_KIND,
                         self._load_workload)

    def put_workload(self, *_args, **_kwargs) -> None:
        """Removed: a workload is stored only by the sink that renders it.

        Generate with a :meth:`WorkloadSink.for_cache
        <repro.workload.streaming.WorkloadSink.for_cache>` sink instead.
        The name stays because the benchmark's span table
        (``bench/spans.py``) still resolves it; it goes at the next
        benchmark change.

        Raises:
            ConfigurationError: always.
        """
        raise ConfigurationError(
            "ArtifactCache.put_workload was removed; generate the "
            "workload through WorkloadSink.for_cache")

    def workload_writer(self, artifact: str,
                        scenario: Scenario) -> "StreamedEntryWriter":
        """A staging handle for streaming a workload entry.

        The caller (a :class:`~repro.workload.streaming.WorkloadSink`)
        writes shard files into :attr:`StreamedEntryWriter.staging` as
        blocks arrive, then calls :meth:`StreamedEntryWriter.commit` to
        seal the entry.
        """
        return StreamedEntryWriter(self, artifact, scenario, WORKLOAD_KIND)

    @staticmethod
    def _load_workload(entry: Path) -> GeneratedWorkload:
        """Open a workload entry: pickled dataset plus windowed shard maps.

        Every kind in ``shards.json`` holds one row per VM, in the
        dataset's VM-table order.  Shard verification (headers, sizes,
        counts) happens inside :func:`repro.shards.load_sharded_series`;
        a failure propagates to :meth:`get_workload`, which evicts the
        entry and misses.
        """
        dataset = _unpickle(entry / "dataset.pkl")
        order = list(dataset.vms)
        maps = load_sharded_series(
            entry, dict.fromkeys(read_shard_index(entry), order))
        dataset.attach_series(maps["cpu"], maps["bw"], maps.get("private"))
        return GeneratedWorkload(platform=_unpickle(entry / "platform.pkl"),
                                 dataset=dataset)

    # ---- entry lifecycle --------------------------------------------------

    def _get(self, artifact: str, scenario: Scenario, kind: str, load):
        """``load(entry_dir)`` of a committed entry, or ``None``.

        A missing entry is a miss; one whose load raises anything is
        corrupt, so it is evicted and also reported as a miss.
        """
        key = self.key(artifact, scenario)
        entry = self._entry_dir(key)
        if not (entry / "meta.json").exists():
            self._emit("cache_miss", artifact=artifact, key=key)
            return None
        try:
            failpoint("cache.read", artifact)
            value = load(entry)
        except Exception:
            self._discard(entry)
            self._emit("cache_evict", artifact=artifact, key=key,
                       reason="corrupt entry")
            self._emit("cache_miss", artifact=artifact, key=key)
            return None
        self._emit("cache_hit", artifact=artifact, kind=kind, key=key)
        return value

    @staticmethod
    def _discard(entry: Path) -> None:
        shutil.rmtree(entry, ignore_errors=True)

    @staticmethod
    def _entry_size(entry_dir: Path) -> int:
        """Total on-disk bytes of an entry, shard subdirectories included.

        Tolerates files vanishing mid-walk: a concurrent eviction (or a
        racing ``clear``) must degrade a size report, never crash the
        reader that happened to be summing it.
        """
        total = 0
        try:
            # The walk itself can raise too: scandir() of a directory the
            # evictor already removed, not just stat() of a gone file.
            for p in entry_dir.rglob("*"):
                try:
                    if p.is_file():
                        total += p.stat().st_size
                except OSError:
                    continue
        except OSError:
            pass
        return total

    # ---- maintenance (the `repro cache` subcommand) ----------------------

    def entries(self) -> list[CacheEntry]:
        """All complete entries, newest first."""
        found = []
        for meta_path in sorted(self.root.glob("??/*/meta.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except Exception:
                continue
            entry_dir = meta_path.parent
            found.append(CacheEntry(
                key=meta.get("key", entry_dir.name),
                artifact=meta.get("artifact", "?"),
                kind=meta.get("kind", "?"),
                created_at=meta.get("created_at", "?"),
                bytes=self._entry_size(entry_dir),
                path=entry_dir,
                shards=int(meta.get("shards", 0)),
            ))
        found.sort(key=lambda e: e.created_at, reverse=True)
        return found

    def stale_entries(self,
                      older_than_days: float | None = None
                      ) -> list[CacheEntry]:
        """Entries a ``clear`` with the same cutoff would remove.

        ``None`` selects everything; otherwise entries created more than
        ``older_than_days`` days ago.  An entry whose ``created_at``
        does not parse counts as stale — its meta is damaged and a
        warm load would evict it anyway.
        """
        entries = self.entries()
        if older_than_days is None:
            return entries
        cutoff = time.time() - older_than_days * 86_400
        stale = []
        for entry in entries:
            try:
                created = calendar.timegm(time.strptime(
                    entry.created_at, "%Y-%m-%dT%H:%M:%SZ"))
            except ValueError:
                created = 0.0
            if created < cutoff:
                stale.append(entry)
        return stale

    def clear(self, older_than_days: float | None = None,
              dry_run: bool = False) -> int:
        """Remove entries (and stale staging dirs); returns entries removed.

        ``older_than_days`` limits removal to entries older than the
        cutoff — the pruning mode behind ``repro cache clear
        --older-than`` for long-lived sweep caches, which keeps warm
        recent artifacts while reclaiming abandoned ones.  ``dry_run``
        counts without deleting.  Staging directories are swept too:
        all of them on a full clear, only ones older than the cutoff
        otherwise (a live writer may own a fresh one).  A full clear
        also removes entries whose ``meta.json`` no longer parses, which
        :meth:`entries` cannot list.
        """
        stale = self.stale_entries(older_than_days)
        if dry_run:
            return len(stale)
        doomed = (list(self.root.glob("??/*")) if older_than_days is None
                  else [entry.path for entry in stale])
        for path in doomed:
            shutil.rmtree(path, ignore_errors=True)
        cutoff = (None if older_than_days is None
                  else time.time() - older_than_days * 86_400)
        for staging in self.root.glob(".tmp-*"):
            try:
                if cutoff is not None and staging.stat().st_mtime >= cutoff:
                    continue
            except OSError:
                pass
            shutil.rmtree(staging, ignore_errors=True)
        return len(stale)

    def info(self) -> dict[str, object]:
        """Summary stats for ``repro cache info``."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(e.bytes for e in entries),
            "sharded_entries": sum(1 for e in entries if e.shards),
            "shard_files": sum(e.shards for e in entries),
            "code_version": code_version(),
        }

    # ---- integrity (the `repro cache verify` subcommand) -----------------

    def verify(self, repair: bool = False,
               deep: bool = True) -> dict[str, object]:
        """Integrity-check every entry; optionally evict the damaged ones.

        Each entry's manifest (sizes + sha256 for small files) is
        checked, and sharded entries additionally get their per-shard
        payload checksums verified (``deep=False`` downgrades both to
        structural checks: presence, sizes, shard headers).  With
        ``repair=True``, damaged entries are evicted — the next run
        regenerates them — and abandoned staging directories older than
        an hour are swept.

        Returns a report dict: ``checked``, ``ok``, ``problems`` (one
        ``{key, artifact, issues}`` row per damaged entry),
        ``stale_staging``, and ``repaired``.
        """
        problems: list[dict[str, object]] = []
        checked = 0
        for meta_path in sorted(self.root.glob("??/*/meta.json")):
            entry_dir = meta_path.parent
            checked += 1
            artifact, issues = self._verify_entry(entry_dir, deep=deep)
            if not issues:
                continue
            problems.append({"key": entry_dir.name, "artifact": artifact,
                             "issues": issues})
            if repair:
                self._discard(entry_dir)
                self._emit("cache_evict", artifact=artifact,
                           key=entry_dir.name,
                           reason=f"verify: {issues[0]}")
        stale_staging = 0
        cutoff = time.time() - 3600
        for staging in self.root.glob(".tmp-*"):
            try:
                if staging.stat().st_mtime >= cutoff:
                    continue  # possibly a live writer's staging dir
            except OSError:
                continue
            stale_staging += 1
            if repair:
                shutil.rmtree(staging, ignore_errors=True)
        return {
            "root": str(self.root),
            "checked": checked,
            "ok": checked - len(problems),
            "problems": problems,
            "stale_staging": stale_staging,
            "repaired": (len(problems) + stale_staging) if repair else 0,
        }

    def _verify_entry(self, entry_dir: Path,
                      deep: bool) -> tuple[str, list[str]]:
        """One entry's integrity issues (empty list = healthy)."""
        try:
            meta = json.loads((entry_dir / "meta.json").read_text())
        except Exception as exc:  # noqa: BLE001 - any damage counts
            return "?", [f"unreadable meta.json: {type(exc).__name__}"]
        artifact = str(meta.get("artifact", "?"))
        issues: list[str] = []
        for rel, info in sorted(meta.get("files", {}).items()):
            path = entry_dir / rel
            try:
                size = path.stat().st_size
            except OSError:
                issues.append(f"missing file {rel}")
                continue
            if size != info.get("bytes"):
                issues.append(
                    f"size mismatch {rel}: {size} != {info.get('bytes')}")
                continue
            want = info.get("sha256")
            if deep and want and _file_sha256(path) != want:
                issues.append(f"checksum mismatch {rel}")
        if (entry_dir / SHARD_INDEX_NAME).exists():
            try:
                layouts = read_shard_index(entry_dir)
                for kind in sorted(layouts):
                    verify_layout(entry_dir, layouts[kind], deep=deep)
            except TraceError as exc:
                issues.append(str(exc))
        return artifact, issues


class StreamedEntryWriter:
    """A live staging directory for one cache entry: the only commit path.

    Created by :meth:`ArtifactCache.workload_writer` (shards streamed in
    while generation runs) and by :meth:`ArtifactCache.put_object`;
    payload files are written into :attr:`staging`, and :meth:`commit`
    seals the entry (pickled objects + ``meta.json`` last, then one
    atomic rename).  :meth:`abort` discards everything; :meth:`detach`
    keeps the staged files for the caller after a failed commit.
    """

    def __init__(self, cache: ArtifactCache, artifact: str,
                 scenario: Scenario, kind: str) -> None:
        self.cache = cache
        self.key = cache.key(artifact, scenario)
        self.artifact = artifact
        self.scenario = scenario
        self.kind = kind
        self.staging = cache.root / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        self.staging.mkdir(parents=True)
        self.final = cache._entry_dir(self.key)

    def commit(self, payload: dict[str, object], shards: int = 0) -> Path:
        """Seal the staged entry; returns the entry directory.

        ``payload`` maps file names to objects pickled into the entry
        beside what the caller already staged.  If another process
        materialised the same key first, the staged copy yields to it:
        entries are pure functions of their key, so the winner holds the
        same bytes.

        A commit that keeps failing *raises* after its retry budget and
        leaves the staging dir to the caller:
        :meth:`ArtifactCache.put_object` aborts it, and a workload sink,
        whose dataset needs these shards, keeps it with :meth:`detach`.
        Both degrade to a ``cache_write_error``.  Only the seal (pickles +
        meta + rename) retries — the shard payload is already on disk
        and is not rewritten.
        """

        def seal() -> None:
            failpoint("cache.commit", self.artifact)
            for name, value in payload.items():
                with (self.staging / name).open("wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
            meta = {
                "format": CACHE_FORMAT,
                "key": self.key,
                "artifact": self.artifact,
                "kind": self.kind,
                "shards": int(shards),
                "code_version": code_version(),
                "scenario": json.loads(
                    artifact_token(self.artifact, self.scenario)),
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime()),
                "files": _manifest(self.staging),
            }
            # meta.json lands last inside the staging dir, and the
            # rename below is atomic: a reader can never observe a
            # partial entry.
            with (self.staging / "meta.json").open("w") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
            self.final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(self.staging, self.final)
            except OSError:
                if not (self.final / "meta.json").exists():
                    raise
                shutil.rmtree(self.staging, ignore_errors=True)

        def retried(attempt_no: int, delay_s: float,
                    exc: BaseException) -> None:
            self.cache._emit("cache_retry", artifact=self.artifact,
                             key=self.key, attempt=attempt_no,
                             delay_s=round(delay_s, 6),
                             error=f"{type(exc).__name__}: {exc}")

        call_with_retry(seal, policy=COMMIT_RETRY,
                        token=f"{self.artifact}|{self.key}",
                        on_retry=retried)
        self.cache._emit(
            "cache_store", artifact=self.artifact, kind=self.kind,
            key=self.key, shards=int(shards),
            bytes=ArtifactCache._entry_size(self.final))
        return self.final

    def abort(self) -> None:
        """Discard the staged entry without publishing anything."""
        shutil.rmtree(self.staging, ignore_errors=True)

    def detach(self, exc: BaseException) -> Path:
        """Give up publishing after ``exc`` failed the commit; keep the files.

        Emits ``cache_write_error`` and renames the staging directory to
        a ``repro-spill-*`` directory beside the entries, out of the
        ``.tmp-*`` namespace that ``clear`` and ``verify --repair``
        sweep.  Returns it; the caller owns its removal.
        """
        self.cache._emit("cache_write_error", artifact=self.artifact,
                         key=self.key, error=f"{type(exc).__name__}: {exc}")
        spill = self.cache.root / f"repro-spill-{self.staging.name[5:]}"
        os.rename(self.staging, spill)
        return spill
