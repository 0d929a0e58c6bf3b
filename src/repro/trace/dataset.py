"""The in-memory trace dataset: VM tables plus usage time series.

A :class:`TraceDataset` is what every §4 analysis consumes.  CPU series
hold per-interval utilisation of the VM's allocated cores in [0, 1];
bandwidth series hold per-interval public egress in Mbps.  Series are
stored as float32 arrays keyed by VM id, all aligned to the same clock
(interval index 0 = trace start).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..errors import TraceError
from .schema import AppRecord, ServerRecord, SiteRecord, VMRecord

if TYPE_CHECKING:
    from ..core.chunks import RowStats

MINUTES_PER_DAY = 24 * 60


@dataclass
class TraceDataset:
    """One platform's trace: inventory tables plus aligned usage series."""

    platform_name: str
    trace_days: int
    cpu_interval_minutes: int
    bw_interval_minutes: int
    vms: dict[str, VMRecord] = field(default_factory=dict)
    apps: dict[str, AppRecord] = field(default_factory=dict)
    sites: dict[str, SiteRecord] = field(default_factory=dict)
    servers: dict[str, ServerRecord] = field(default_factory=dict)
    #: Series are ``Mapping[vm_id, row]``: plain dicts for traces
    #: loaded from outside (:meth:`add_vm`), lazy
    #: :class:`repro.shards.ShardedSeriesMap` views for generated or
    #: cached workloads (see :meth:`attach_series`).
    cpu_series: Mapping[str, np.ndarray] = field(default_factory=dict)
    bw_series: Mapping[str, np.ndarray] = field(default_factory=dict)
    #: Intra-site ("private") traffic, also reported by NEP's collector.
    bw_private_series: Mapping[str, np.ndarray] = field(default_factory=dict)
    #: Lazy reverse indexes (site/server/app -> vm ids); rebuilt after any
    #: add_vm.  The §4 analyses query these per site/server in loops, and
    #: a paper-scale fleet makes the naive full-table scan quadratic.
    _site_index: dict[str, list[str]] | None = field(
        default=None, repr=False, compare=False)
    _server_index: dict[str, list[str]] | None = field(
        default=None, repr=False, compare=False)
    _app_index: dict[str, list[str]] | None = field(
        default=None, repr=False, compare=False)
    #: Per-VM row reductions (see :meth:`row_stats`): set by the
    #: workload sink from the render, or filled on first use.
    _row_stats: RowStats | None = field(
        default=None, repr=False, compare=False)

    # ---- structure -------------------------------------------------------

    @property
    def cpu_points(self) -> int:
        """Expected number of CPU readings per VM."""
        return self.trace_days * MINUTES_PER_DAY // self.cpu_interval_minutes

    @property
    def bw_points(self) -> int:
        """Expected number of bandwidth readings per VM."""
        return self.trace_days * MINUTES_PER_DAY // self.bw_interval_minutes

    @property
    def cpu_points_per_day(self) -> int:
        return MINUTES_PER_DAY // self.cpu_interval_minutes

    @property
    def bw_points_per_day(self) -> int:
        return MINUTES_PER_DAY // self.bw_interval_minutes

    def add_vm(self, record: VMRecord, cpu: np.ndarray,
               bw: np.ndarray, bw_private: np.ndarray | None = None) -> None:
        """Register a VM row together with its usage series.

        Raises:
            TraceError: on duplicate ids or series/clock length mismatch.
        """
        if record.vm_id in self.vms:
            raise TraceError(f"duplicate VM id {record.vm_id!r}")
        if cpu.shape != (self.cpu_points,):
            raise TraceError(
                f"VM {record.vm_id!r}: CPU series has {cpu.shape[0]} points, "
                f"expected {self.cpu_points}"
            )
        if bw.shape != (self.bw_points,):
            raise TraceError(
                f"VM {record.vm_id!r}: bandwidth series has {bw.shape[0]} "
                f"points, expected {self.bw_points}"
            )
        if np.any(cpu < 0) or np.any(cpu > 1.0 + 1e-6):
            raise TraceError(
                f"VM {record.vm_id!r}: CPU utilisation outside [0, 1]"
            )
        if np.any(bw < 0):
            raise TraceError(f"VM {record.vm_id!r}: negative bandwidth")
        self.vms[record.vm_id] = record
        self._site_index = self._server_index = self._app_index = None
        self._row_stats = None
        self.cpu_series[record.vm_id] = cpu.astype(np.float32)
        self.bw_series[record.vm_id] = bw.astype(np.float32)
        if bw_private is not None:
            if bw_private.shape != (self.bw_points,):
                raise TraceError(
                    f"VM {record.vm_id!r}: private bandwidth length mismatch"
                )
            self.bw_private_series[record.vm_id] = bw_private.astype(np.float32)

    def add_vm_record(self, record: VMRecord) -> None:
        """Register a VM row *without* series (the generated path).

        The rendered rows travel through a
        :class:`~repro.workload.streaming.WorkloadSink` instead and are
        attached afterwards via :meth:`attach_series`; value/shape
        validation happens in the sink, in the same terms as
        :meth:`add_vm`.

        Raises:
            TraceError: on duplicate ids.
        """
        if record.vm_id in self.vms:
            raise TraceError(f"duplicate VM id {record.vm_id!r}")
        self.vms[record.vm_id] = record
        self._site_index = self._server_index = self._app_index = None
        self._row_stats = None

    def attach_series(self, cpu: Mapping[str, np.ndarray],
                      bw: Mapping[str, np.ndarray],
                      bw_private: Mapping[str, np.ndarray] | None = None,
                      ) -> None:
        """Attach complete series mappings (streamed or cache-loaded).

        Replaces the series wholesale; callers guarantee the mappings
        cover every registered VM (checked by :meth:`validate`).
        """
        self.cpu_series = cpu
        self.bw_series = bw
        self.bw_private_series = bw_private if bw_private is not None else {}

    def attach_row_stats(self, stats: RowStats) -> None:
        """Set the row stats of the attached series, computed elsewhere
        (the render, via the workload sink).

        Raises:
            TraceError: when ``stats`` are not for this VM table.
        """
        if stats.vm_ids != tuple(self.vms):
            raise TraceError("row stats do not match the VM table")
        self._row_stats = stats

    def row_stats(self) -> RowStats:
        """Per-VM CPU mean/p95/std and bandwidth mean/total, VM order.

        The one source of per-VM scalars for the §4 analyses.  A
        generated trace carries the stats its render computed (also
        through the cache); any other trace fills them with one chunked
        pass over each store on first use, and :meth:`add_vm` clears
        them.
        """
        if self._row_stats is None:
            from ..core.chunks import RowStats
            self._row_stats = RowStats.of_series(
                self.vms, self.cpu_series, self.bw_series)
        return self._row_stats

    # ---- lookups ----------------------------------------------------------

    def vm_ids(self) -> list[str]:
        return list(self.vms)

    def _index(self, attr: str) -> dict[str, list[str]]:
        """One lazy reverse index over the VM table (vm attr -> vm ids)."""
        slot = f"_{attr}_index"
        index = getattr(self, slot)
        if index is None:
            index = {}
            key = f"{attr}_id"
            for vm_id, vm in self.vms.items():
                index.setdefault(getattr(vm, key), []).append(vm_id)
            setattr(self, slot, index)
        return index

    def vms_of_app(self, app_id: str) -> list[VMRecord]:
        if app_id not in self.apps:
            raise TraceError(f"unknown app {app_id!r}")
        return [self.vms[vm_id]
                for vm_id in self._index("app").get(app_id, ())]

    def vms_on_server(self, server_id: str) -> list[VMRecord]:
        return [self.vms[vm_id]
                for vm_id in self._index("server").get(server_id, ())]

    def vms_on_site(self, site_id: str) -> list[VMRecord]:
        return [self.vms[vm_id]
                for vm_id in self._index("site").get(site_id, ())]

    def app_ids_with_vms(self) -> list[str]:
        present = self._index("app")
        return [app_id for app_id in self.apps if app_id in present]

    # ---- aggregations ------------------------------------------------------

    def mean_cpu(self, vm_id: str) -> float:
        return float(self.cpu_series[vm_id].mean())

    def p95_max_cpu(self, vm_id: str) -> float:
        """95th percentile of the CPU readings (the paper's "P95 Max").

        The trace reports the max utilisation within each interval; the
        95th percentile of those maxima is the paper's tail-load metric.
        """
        return float(np.percentile(self.cpu_series[vm_id], 95))

    def cpu_cv(self, vm_id: str) -> float:
        series = self.cpu_series[vm_id]
        mean = float(series.mean())
        if mean == 0.0:
            return 0.0
        return float(series.std() / mean)

    def server_cpu_usage(self, server_id: str) -> np.ndarray:
        """Requested-core-weighted CPU usage of a server's VMs (Fig 11)."""
        vms = self.vms_on_server(server_id)
        if not vms:
            return np.zeros(self.cpu_points, dtype=np.float32)
        total_cores = sum(vm.cpu_cores for vm in vms)
        usage = np.zeros(self.cpu_points, dtype=np.float64)
        for vm in vms:
            usage += self.cpu_series[vm.vm_id].astype(np.float64) * vm.cpu_cores
        return (usage / total_cores).astype(np.float32)

    def site_bandwidth(self, site_id: str) -> np.ndarray:
        """Summed public bandwidth of all VMs hosted at a site (Fig 11)."""
        usage = np.zeros(self.bw_points, dtype=np.float64)
        for vm in self.vms_on_site(site_id):
            usage += self.bw_series[vm.vm_id].astype(np.float64)
        return usage.astype(np.float32)

    def server_bandwidth(self, server_id: str) -> np.ndarray:
        usage = np.zeros(self.bw_points, dtype=np.float64)
        for vm in self.vms_on_server(server_id):
            usage += self.bw_series[vm.vm_id].astype(np.float64)
        return usage.astype(np.float32)

    def app_bandwidth(self, app_id: str) -> np.ndarray:
        usage = np.zeros(self.bw_points, dtype=np.float64)
        for vm in self.vms_of_app(app_id):
            usage += self.bw_series[vm.vm_id].astype(np.float64)
        return usage.astype(np.float32)

    def validate(self) -> None:
        """Consistency checks across the four tables.

        Raises:
            TraceError: on dangling references or missing series.
        """
        for vm in self.vms.values():
            if vm.app_id not in self.apps:
                raise TraceError(f"VM {vm.vm_id!r}: dangling app {vm.app_id!r}")
            if vm.site_id not in self.sites:
                raise TraceError(f"VM {vm.vm_id!r}: dangling site {vm.site_id!r}")
            if vm.server_id not in self.servers:
                raise TraceError(
                    f"VM {vm.vm_id!r}: dangling server {vm.server_id!r}"
                )
            if vm.vm_id not in self.cpu_series:
                raise TraceError(f"VM {vm.vm_id!r}: missing CPU series")
            if vm.vm_id not in self.bw_series:
                raise TraceError(f"VM {vm.vm_id!r}: missing bandwidth series")
        for server in self.servers.values():
            if server.site_id not in self.sites:
                raise TraceError(
                    f"server {server.server_id!r}: dangling site "
                    f"{server.site_id!r}"
                )


def merge_days(series: np.ndarray, points_per_day: int,
               reducer: str = "max") -> np.ndarray:
    """Collapse a series into one value per day (``max`` or ``mean``).

    Used by billing (daily peak bandwidth) and the Figure 12 weekly view.

    Raises:
        TraceError: if the series length is not a whole number of days.
    """
    if series.size % points_per_day:
        raise TraceError(
            f"series of {series.size} points is not a whole number of "
            f"{points_per_day}-point days"
        )
    daily = series.reshape(-1, points_per_day)
    if reducer == "max":
        return daily.max(axis=1)
    if reducer == "mean":
        return daily.mean(axis=1)
    raise TraceError(f"unknown reducer {reducer!r}")
