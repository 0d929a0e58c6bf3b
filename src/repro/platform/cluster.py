"""Platform inventory: the container tying sites, servers, VMs, and apps.

:class:`Platform` is the single source of truth for topology queries used by
placement, scheduling, trace generation, and the §4 analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import TopologyError
from ..geo.coords import GeoPoint, haversine_km_many
from .entities import App, Customer, PlatformKind, Server, Site, VM


class ServerTable:
    """Free capacity of every server on a platform, as flat arrays.

    Servers are flattened in site order, so one site is a contiguous
    index range.  :meth:`Server.attach` and :meth:`Server.detach`, the
    only code that changes an allocation, keep a server's entries
    current through its back-reference, so placement slices these
    arrays by scope instead of walking the servers on every call.
    """

    def __init__(self, sites: list[Site]) -> None:
        servers = [server for site in sites for server in site.servers]
        self.servers = servers
        self.cap_cpu = np.array([s.capacity.cpu_cores for s in servers])
        self.free_cpu = np.array(
            [s.capacity.cpu_cores - s.allocated.cpu_cores for s in servers])
        self.free_mem = np.array(
            [s.capacity.memory_gb - s.allocated.memory_gb for s in servers])
        self.free_disk = np.array(
            [s.capacity.disk_gb - s.allocated.disk_gb for s in servers])
        self._ranges: dict[str, tuple[int, int]] = {}
        start = 0
        for site in sites:
            self._ranges[site.site_id] = (start, start + len(site.servers))
            start += len(site.servers)
        for index, server in enumerate(servers):
            server._table_slot = (self, index)

    def unhook(self) -> None:
        """Stop the servers updating this table."""
        # Delete the attribute rather than set it to None: a server
        # then pickles exactly as one no table ever saw.
        for server in self.servers:
            server.__dict__.pop("_table_slot", None)

    def refresh(self, index: int) -> None:
        """Re-read server ``index``'s free capacity from its ledger."""
        server = self.servers[index]
        capacity, allocated = server.capacity, server.allocated
        self.free_cpu[index] = capacity.cpu_cores - allocated.cpu_cores
        self.free_mem[index] = capacity.memory_gb - allocated.memory_gb
        self.free_disk[index] = capacity.disk_gb - allocated.disk_gb

    def scope(self, sites: list[Site]) -> np.ndarray:
        """Indices of the servers of ``sites``, in site order."""
        return np.concatenate([np.arange(*self._ranges[site.site_id])
                               for site in sites])


@dataclass
class Platform:
    """A named edge or cloud platform with its full inventory."""

    name: str
    kind: PlatformKind
    sites: list[Site] = field(default_factory=list)
    vms: dict[str, VM] = field(default_factory=dict)
    apps: dict[str, App] = field(default_factory=dict)
    customers: dict[str, Customer] = field(default_factory=dict)
    # Derived lookup caches, rebuilt whenever the site list changes.
    _site_index: dict[str, Site] | None = field(default=None, init=False,
                                                repr=False, compare=False)
    _server_index: dict[str, Server] | None = field(default=None, init=False,
                                                    repr=False, compare=False)
    _site_coords: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    # Placement's free-capacity arrays: built lazily, never pickled.
    _server_table: ServerTable | None = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The table is a cache: drop it rather than pickle it (or its
        # servers' references to it); the next placement rebuilds it.
        self._drop_server_table()
        state = self.__dict__.copy()
        state.pop("_server_table", None)
        return state

    def _drop_server_table(self) -> None:
        if self._server_table is not None:
            self._server_table.unhook()
            self._server_table = None

    # ---- registration --------------------------------------------------

    def add_site(self, site: Site) -> None:
        if any(s.site_id == site.site_id for s in self.sites):
            raise TopologyError(f"duplicate site id {site.site_id!r}")
        self.sites.append(site)
        self._site_index = None
        self._server_index = None
        self._site_coords = None
        self._drop_server_table()

    def register_customer(self, customer: Customer) -> None:
        self.customers[customer.customer_id] = customer

    def register_app(self, app: App) -> None:
        if app.customer_id not in self.customers:
            raise TopologyError(
                f"app {app.app_id!r} references unknown customer "
                f"{app.customer_id!r}"
            )
        self.apps[app.app_id] = app

    def register_vm(self, vm: VM) -> None:
        if vm.app_id not in self.apps:
            raise TopologyError(
                f"VM {vm.vm_id!r} references unknown app {vm.app_id!r}"
            )
        self.vms[vm.vm_id] = vm

    # ---- lookups -------------------------------------------------------

    @property
    def is_edge(self) -> bool:
        return self.kind is PlatformKind.EDGE

    def site(self, site_id: str) -> Site:
        if self._site_index is None:
            self._site_index = {s.site_id: s for s in self.sites}
        try:
            return self._site_index[site_id]
        except KeyError:
            raise TopologyError(
                f"unknown site {site_id!r} on {self.name}"
            ) from None

    def server(self, server_id: str) -> Server:
        if self._server_index is None:
            self._server_index = {
                server.server_id: server
                for s in self.sites for server in s.servers
            }
        try:
            return self._server_index[server_id]
        except KeyError:
            raise TopologyError(
                f"unknown server {server_id!r} on {self.name}"
            ) from None

    def server_table(self) -> ServerTable:
        """The platform's :class:`ServerTable`, built on first use."""
        if self._server_table is None:
            self._server_table = ServerTable(self.sites)
        return self._server_table

    def iter_servers(self) -> Iterable[Server]:
        for s in self.sites:
            yield from s.servers

    @property
    def server_count(self) -> int:
        return sum(s.server_count for s in self.sites)

    def vms_of_app(self, app_id: str) -> list[VM]:
        if app_id not in self.apps:
            raise TopologyError(f"unknown app {app_id!r} on {self.name}")
        return [vm for vm in self.vms.values() if vm.app_id == app_id]

    def vms_on_server(self, server_id: str) -> list[VM]:
        server = self.server(server_id)
        return [self.vms[vid] for vid in server.vm_ids]

    def vms_on_site(self, site_id: str) -> list[VM]:
        """VMs hosted at a site, straight from the server ledgers.

        Walks ``server.vm_ids`` of the site's own servers instead of
        scanning every VM on the platform, so the cost is proportional to
        the site, not the fleet — and it stays correct through
        migrations, which update the ledgers.
        """
        return [
            self.vms[vm_id]
            for server in self.site(site_id).servers
            for vm_id in server.vm_ids
            if vm_id in self.vms
        ]

    def sites_in_province(self, province: str) -> list[Site]:
        return [s for s in self.sites if s.province == province]

    def nearest_sites(self, point: GeoPoint, count: int = 1) -> list[Site]:
        """The ``count`` sites geographically nearest to ``point``.

        Distances to every site come from one vectorised haversine over
        the platform's cached lat/lon arrays.
        """
        if count <= 0:
            raise TopologyError(f"count must be positive, got {count}")
        if self._site_coords is None:
            self._site_coords = (
                np.array([s.location.lat for s in self.sites]),
                np.array([s.location.lon for s in self.sites]),
            )
        lats, lons = self._site_coords
        distances = haversine_km_many(point, lats, lons)
        order = np.argsort(distances, kind="stable")[:count]
        return [self.sites[i] for i in order]

    def live_inventory(self, cores_per_slot: int = 4
                       ) -> tuple[np.ndarray, np.ndarray,
                                  tuple[str, ...], tuple[str, ...]]:
        """The flat per-server array view the live engine advances.

        Returns ``(site_of_server, base_slots, site_ids, server_ids)``:
        servers flattened in site order (so one site is a contiguous
        index range), ``site_of_server[j]`` the owning site's index,
        and ``base_slots[j]`` the server's VM capacity in
        ``cores_per_slot``-core slots (at least one).  Pure topology —
        current VM placement is deliberately not consulted, since the
        live engine owns its own population.

        Raises:
            TopologyError: when ``cores_per_slot`` is not positive.
        """
        if cores_per_slot <= 0:
            raise TopologyError(
                f"cores_per_slot must be positive, got {cores_per_slot}")
        site_of: list[int] = []
        slots: list[int] = []
        server_ids: list[str] = []
        for index, site in enumerate(self.sites):
            for server in site.servers:
                site_of.append(index)
                slots.append(max(
                    1, int(server.capacity.cpu_cores) // cores_per_slot))
                server_ids.append(server.server_id)
        return (np.asarray(site_of, dtype=np.int64),
                np.asarray(slots, dtype=np.int64),
                tuple(s.site_id for s in self.sites),
                tuple(server_ids))

    # ---- platform-wide statistics (§4.1 sales rates) --------------------

    def site_cpu_sales_rates(self) -> list[float]:
        return [s.cpu_sales_rate() for s in self.sites]

    def site_memory_sales_rates(self) -> list[float]:
        return [s.memory_sales_rate() for s in self.sites]

    def validate(self) -> None:
        """Cross-check the inventory ledgers; raise on inconsistency.

        Raises:
            TopologyError: if any VM's placement disagrees with the server
                ledgers, or allocation bookkeeping drifted.
        """
        placed_ids = set()
        for server in self.iter_servers():
            for vm_id in server.vm_ids:
                if vm_id not in self.vms:
                    raise TopologyError(
                        f"server {server.server_id} lists unknown VM {vm_id!r}"
                    )
                vm = self.vms[vm_id]
                if vm.server_id != server.server_id:
                    raise TopologyError(
                        f"VM {vm_id} thinks it is on {vm.server_id!r} but "
                        f"server {server.server_id} lists it"
                    )
                placed_ids.add(vm_id)
        for vm in self.vms.values():
            if vm.placed and vm.vm_id not in placed_ids:
                raise TopologyError(
                    f"VM {vm.vm_id} claims placement on {vm.server_id!r} "
                    f"but no server lists it"
                )
