"""Platform entities: sites, servers, VMs, apps, customers.

Terminology follows §2 of the paper exactly: a *site* is a datacenter at
one location; a site hosts many *servers*; a server hosts many *VMs*; the
VMs sharing one system image and one customer form an *edge app*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import CapacityError
from ..geo.coords import GeoPoint


class PlatformKind(enum.Enum):
    """Whether a platform is an edge platform or a centralised cloud."""

    EDGE = "edge"
    CLOUD = "cloud"


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of (cpu cores, memory GB, disk GB) used for capacity math."""

    cpu_cores: float
    memory_gb: float
    disk_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_cores < 0 or self.memory_gb < 0 or self.disk_gb < 0:
            raise CapacityError(f"negative resource vector: {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu_cores + other.cpu_cores,
                              self.memory_gb + other.memory_gb,
                              self.disk_gb + other.disk_gb)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu_cores - other.cpu_cores,
                              self.memory_gb - other.memory_gb,
                              self.disk_gb - other.disk_gb)

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits inside ``capacity`` on every dimension."""
        return (self.cpu_cores <= capacity.cpu_cores
                and self.memory_gb <= capacity.memory_gb
                and self.disk_gb <= capacity.disk_gb)

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class VMSpec:
    """The resources a customer subscribes for one VM (§2.1.2 item 2)."""

    cpu_cores: int
    memory_gb: int
    disk_gb: int = 0
    bandwidth_mbps: float = 0.0  # subscribed public egress bandwidth

    def __post_init__(self) -> None:
        if self.cpu_cores <= 0:
            raise CapacityError(f"VM needs at least 1 core, got {self.cpu_cores}")
        if self.memory_gb <= 0:
            raise CapacityError(f"VM needs memory, got {self.memory_gb} GB")
        if self.disk_gb < 0 or self.bandwidth_mbps < 0:
            raise CapacityError(f"negative disk or bandwidth in {self}")

    @property
    def resources(self) -> ResourceVector:
        return ResourceVector(float(self.cpu_cores), float(self.memory_gb),
                              float(self.disk_gb))


@dataclass(frozen=True)
class Customer:
    """A platform tenant."""

    customer_id: str
    name: str
    segment: str = "business"  # "business" or "individual" (§4.1)


@dataclass(frozen=True)
class App:
    """An application = one customer + one system image (§2 terminology)."""

    app_id: str
    customer_id: str
    category: str
    image_id: str


@dataclass
class VM:
    """One IaaS virtual machine placed on a server."""

    vm_id: str
    spec: VMSpec
    customer_id: str
    app_id: str
    image_id: str
    os_type: str = "linux"
    kernel: str = "5.4"
    server_id: str | None = None
    site_id: str | None = None

    @property
    def placed(self) -> bool:
        return self.server_id is not None


@dataclass
class Server:
    """A physical machine inside a site."""

    server_id: str
    site_id: str
    capacity: ResourceVector
    vm_ids: list[str] = field(default_factory=list)
    allocated: ResourceVector = field(default_factory=ResourceVector.zero)
    #: ``(table, index)`` of the platform
    #: :class:`~repro.platform.cluster.ServerTable` entry mirroring this
    #: server's free capacity while the table exists.  Not a field.
    _table_slot = None

    def _sync_table(self) -> None:
        if self._table_slot is not None:
            table, index = self._table_slot
            table.refresh(index)

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.allocated

    def can_host(self, spec: VMSpec) -> bool:
        return spec.resources.fits_within(self.free)

    def attach(self, vm: VM) -> None:
        """Place ``vm`` on this server, updating the allocation ledger.

        Raises:
            CapacityError: if the VM does not fit in the free capacity.
        """
        if not self.can_host(vm.spec):
            raise CapacityError(
                f"VM {vm.vm_id} ({vm.spec.cpu_cores}C/{vm.spec.memory_gb}G) "
                f"does not fit on server {self.server_id} "
                f"(free {self.free.cpu_cores:.0f}C/{self.free.memory_gb:.0f}G)"
            )
        self.vm_ids.append(vm.vm_id)
        self.allocated = self.allocated + vm.spec.resources
        self._sync_table()
        vm.server_id = self.server_id
        vm.site_id = self.site_id

    def detach(self, vm: VM) -> None:
        """Remove ``vm`` from this server (used by migration).

        Raises:
            CapacityError: if the VM is not hosted here.
        """
        if vm.vm_id not in self.vm_ids:
            raise CapacityError(
                f"VM {vm.vm_id} is not hosted on server {self.server_id}"
            )
        self.vm_ids.remove(vm.vm_id)
        self.allocated = self.allocated - vm.spec.resources
        self._sync_table()
        vm.server_id = None
        vm.site_id = None

    def cpu_sales_rate(self) -> float:
        """Fraction of CPU cores sold to customers (§4.1 "sales rate")."""
        if self.capacity.cpu_cores == 0:
            return 0.0
        return self.allocated.cpu_cores / self.capacity.cpu_cores

    def memory_sales_rate(self) -> float:
        """Fraction of memory sold to customers."""
        if self.capacity.memory_gb == 0:
            return 0.0
        return self.allocated.memory_gb / self.capacity.memory_gb


@dataclass
class Site:
    """A datacenter at one geographical location."""

    site_id: str
    name: str
    city: str
    province: str
    location: GeoPoint
    servers: list[Server] = field(default_factory=list)
    #: Subscribed egress capacity available at the site gateway, Mbps.
    gateway_bandwidth_mbps: float = 10_000.0

    @property
    def server_count(self) -> int:
        return len(self.servers)

    @property
    def capacity(self) -> ResourceVector:
        total = ResourceVector.zero()
        for server in self.servers:
            total = total + server.capacity
        return total

    @property
    def allocated(self) -> ResourceVector:
        total = ResourceVector.zero()
        for server in self.servers:
            total = total + server.allocated
        return total

    def cpu_sales_rate(self) -> float:
        cap = self.capacity
        if cap.cpu_cores == 0:
            return 0.0
        return self.allocated.cpu_cores / cap.cpu_cores

    def memory_sales_rate(self) -> float:
        cap = self.capacity
        if cap.memory_gb == 0:
            return 0.0
        return self.allocated.memory_gb / cap.memory_gb
