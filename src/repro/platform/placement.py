"""VM placement: subscription requests and placement policies.

§2 describes NEP's operation: a customer submits "10 VMs in Guangdong
province, each with 16 cores and 32 GB"; NEP returns one feasible
allocation, favouring servers that are **low in sales ratio and actual CPU
usage (mean and max)**.  :class:`NepPlacementPolicy` implements exactly
that; the classic bin-packing baselines the paper contrasts with
("resource fragmentation, i.e., the bin-packing problem", §4.1) are
provided for the ablation benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import PlacementError
from .cluster import Platform, ServerTable
from .entities import Server, Site, VM, VMSpec


@dataclass(frozen=True)
class SubscriptionRequest:
    """A customer's resource requirement at a geographic scope (§2)."""

    customer_id: str
    app_id: str
    image_id: str
    spec: VMSpec
    vm_count: int
    province: str | None = None   # None = anywhere on the platform
    city: str | None = None       # narrows the province further

    def __post_init__(self) -> None:
        if self.vm_count <= 0:
            raise PlacementError(f"vm_count must be positive, got {self.vm_count}")


#: Optional provider of historical CPU usage per server: maps server_id to
#: (mean_usage, max_usage) in [0, 1].  :class:`NepPlacementPolicy` takes
#: one at construction; during initial platform build-out there is no
#: history yet.
UsageProvider = Callable[[str], tuple[float, float]]


class _ScopedTable:
    """One request's slice of its platform's :class:`ServerTable`.

    Feasibility checks and scoring run over these flat columns instead
    of `Server.free` / `ResourceVector` object churn.  The columns are
    copied once per request; :meth:`commit` re-reads an entry after
    ``Server.attach`` updated the platform table.
    """

    def __init__(self, table: ServerTable, index: np.ndarray) -> None:
        self._table = table
        self._index = index
        self.cap_cpu = table.cap_cpu[index]
        self.free_cpu = table.free_cpu[index]
        self.free_mem = table.free_mem[index]
        self.free_disk = table.free_disk[index]

    def server(self, i: int) -> Server:
        return self._table.servers[self._index[i]]

    def feasible_indices(self, spec: VMSpec) -> np.ndarray:
        return np.flatnonzero(
            (self.free_cpu >= spec.cpu_cores)
            & (self.free_mem >= spec.memory_gb)
            & (self.free_disk >= spec.disk_gb)
        )

    def cpu_sales_rates(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = (self.cap_cpu - self.free_cpu) / self.cap_cpu
        return np.where(self.cap_cpu > 0, rates, 0.0)

    def commit(self, i: int) -> None:
        j = self._index[i]
        self.free_cpu[i] = self._table.free_cpu[j]
        self.free_mem[i] = self._table.free_mem[j]
        self.free_disk[i] = self._table.free_disk[j]


class PlacementPolicy(abc.ABC):
    """Strategy interface: pick the table row that hosts one VM."""

    name: str = "abstract"

    @abc.abstractmethod
    def _choose_index(self, table: _ScopedTable, feasible: np.ndarray) -> int:
        """Pick the row of ``table`` that hosts the next VM.

        ``feasible`` holds the non-empty, ascending row indices whose
        free capacity already fits the VM's spec; the result is one of
        them.
        """

    def place(self, platform: Platform, request: SubscriptionRequest,
              specs: list[VMSpec] | None = None,
              allow_partial: bool = False) -> list[VM]:
        """Place all VMs of a subscription request; returns the new VMs.

        Placement is transactional in spirit: if any VM cannot be placed,
        a :class:`PlacementError` is raised after rolling back the VMs
        already attached for this request.

        Args:
            platform: the target platform.
            request: the subscription request.
            specs: optional per-VM spec overrides (e.g. per-VM disk sizes);
                must have ``request.vm_count`` entries.
            allow_partial: when True, a saturated scope stops placement and
                the VMs placed so far are kept and returned instead of
                rolled back — the behaviour of issuing one request per VM,
                without rebuilding the candidate table each time.

        Raises:
            PlacementError: when the scoped sites lack feasible capacity
                (unless ``allow_partial``), or ``specs`` is mis-sized.
        """
        per_vm_specs = specs if specs is not None \
            else [request.spec] * request.vm_count
        if len(per_vm_specs) != request.vm_count:
            raise PlacementError(
                f"got {len(per_vm_specs)} specs for "
                f"{request.vm_count} VMs of request {request.app_id!r}"
            )
        platform_table = platform.server_table()
        table = _ScopedTable(platform_table, platform_table.scope(
            _scoped_sites(platform, request)))
        placed: list[tuple[Server, VM]] = []
        try:
            for index, spec in enumerate(per_vm_specs):
                feasible = table.feasible_indices(spec)
                if feasible.size == 0:
                    if allow_partial:
                        break
                    raise PlacementError(
                        f"no feasible server for request {request.app_id!r} "
                        f"(VM {index + 1}/{request.vm_count}, scope "
                        f"province={request.province!r} city={request.city!r})"
                    )
                choice = self._choose_index(table, feasible)
                server = table.server(choice)
                vm = VM(
                    vm_id=f"{request.app_id}-vm{len(platform.vms) + index:05d}",
                    spec=spec,
                    customer_id=request.customer_id,
                    app_id=request.app_id,
                    image_id=request.image_id,
                )
                server.attach(vm)
                table.commit(choice)
                placed.append((server, vm))
        except PlacementError:
            for server, vm in placed:
                server.detach(vm)
            raise
        for _, vm in placed:
            platform.register_vm(vm)
        return [vm for _, vm in placed]


def _scoped_sites(platform: Platform,
                  request: SubscriptionRequest) -> list[Site]:
    sites = platform.sites
    if request.province is not None:
        sites = [s for s in sites if s.province == request.province]
    if request.city is not None:
        sites = [s for s in sites if s.city == request.city]
    if not sites:
        raise PlacementError(
            f"no sites in scope province={request.province!r} "
            f"city={request.city!r} on {platform.name}"
        )
    return sites


class NepPlacementPolicy(PlacementPolicy):
    """NEP's production policy: prefer low sales ratio and low CPU usage.

    The score is the sum of the CPU sales ratio and, when a usage provider
    is supplied, the historical mean and max CPU usage — exactly the three
    signals §2 lists.  Lowest score wins; ties break on free cores.
    """

    name = "nep-low-usage"

    def __init__(self, usage: UsageProvider | None = None) -> None:
        self._usage = usage

    def _choose_index(self, table: _ScopedTable, feasible: np.ndarray) -> int:
        score = table.cpu_sales_rates()[feasible]
        if self._usage is not None:
            extra = np.empty(feasible.size)
            for j, i in enumerate(feasible):
                mean_u, max_u = self._usage(table.server(i).server_id)
                extra[j] = mean_u + max_u
            score = score + extra
        # lexsort: last key is primary — lowest score, then most free cores.
        order = np.lexsort((-table.free_cpu[feasible], score))
        return int(feasible[order[0]])


class FirstFitPolicy(PlacementPolicy):
    """Classic first-fit: the first feasible server in inventory order."""

    name = "first-fit"

    def _choose_index(self, table: _ScopedTable, feasible: np.ndarray) -> int:
        return int(feasible[0])


class BestFitPolicy(PlacementPolicy):
    """Bin-packing best-fit: the feasible server with least remaining CPU.

    Maximises consolidation (the opposite of NEP's spreading), useful for
    the fragmentation ablation (§4.1 implications).
    """

    name = "best-fit"

    def _choose_index(self, table: _ScopedTable, feasible: np.ndarray) -> int:
        order = np.lexsort((table.free_mem[feasible],
                            table.free_cpu[feasible]))
        return int(feasible[order[0]])


class RandomPolicy(PlacementPolicy):
    """Uniform random feasible server; the null baseline."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def _choose_index(self, table: _ScopedTable, feasible: np.ndarray) -> int:
        return int(feasible[int(self._rng.integers(0, feasible.size))])
