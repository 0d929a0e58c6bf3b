"""§4.5 analysis: monetary cost of edge apps, NEP vs virtual clouds.

Builds per-app usage bundles from the NEP trace, bills them on NEP and on
the two virtual cloud baselines under each network billing model, and
summarises the cost ratios of Table 3 plus the hardware/network breakdown
the paper discusses in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..billing.baseline import CloudRegion, cluster_usage_to_cloud
from ..billing.cloud import CloudBilling, NetworkModel
from ..billing.models import BillingBreakdown
from ..billing.nep import NepBilling
from ..billing.usage import AppUsage, HardwareSubscription
from ..errors import BillingError
from ..geo.coords import GeoPoint
from ..trace.dataset import TraceDataset
# Unused here since ``heaviest_apps`` reads ``TraceDataset.row_stats``,
# but the benchmark's span wrappers (``bench/spans.py``) resolve it
# through this module.
from .chunks import per_vm_totals  # noqa: F401


def build_app_usage(dataset: TraceDataset, app_id: str) -> AppUsage:
    """Assemble one app's billable usage bundle from the trace.

    Raises:
        BillingError: if the app has no VMs in the trace.
    """
    vms = dataset.vms_of_app(app_id)
    if not vms:
        raise BillingError(f"app {app_id!r} has no VMs")
    usage = AppUsage(
        app_id=app_id,
        trace_days=dataset.trace_days,
        interval_minutes=dataset.bw_interval_minutes,
    )
    for vm in vms:
        usage.hardware.append(HardwareSubscription(
            cpu_cores=vm.cpu_cores, memory_gb=vm.memory_gb,
            disk_gb=vm.disk_gb,
        ))
        usage.add_location_series(
            vm.site_id, vm.city,
            dataset.bw_series[vm.vm_id].astype(np.float64),
        )
    return usage


def heaviest_apps(dataset: TraceDataset, count: int) -> list[str]:
    """The ``count`` apps with the most total public traffic (§4.5).

    Per-VM totals come from the dataset's
    :meth:`~repro.trace.dataset.TraceDataset.row_stats`; the per-app
    sums then run in the same VM order as the original row-at-a-time
    loop, so the ranking is bit-identical.
    """
    if count <= 0:
        raise BillingError(f"count must be positive, got {count}")
    vm_totals = dataset.row_stats().bw_totals_by_vm()
    totals = []
    for app_id in dataset.app_ids_with_vms():
        total = sum(vm_totals[vm.vm_id]
                    for vm in dataset.vms_of_app(app_id))
        totals.append((total, app_id))
    totals.sort(reverse=True)
    return [app_id for _, app_id in totals[:count]]


def site_locations(dataset: TraceDataset) -> dict[str, GeoPoint]:
    """Site id -> coordinates, for the virtual-baseline clustering."""
    return {
        site_id: GeoPoint(record.lat, record.lon)
        for site_id, record in dataset.sites.items()
    }


def cloud_regions_from_platform(platform) -> list[CloudRegion]:
    """Adapt a cloud :class:`~repro.platform.Platform` into billing regions."""
    return [
        CloudRegion(region_id=site.site_id, city=site.city,
                    location=site.location)
        for site in platform.sites
    ]


@dataclass(frozen=True)
class AppCostComparison:
    """One app's bills on NEP and one virtual cloud (all network models)."""

    app_id: str
    nep: BillingBreakdown
    cloud_bills: dict[NetworkModel, BillingBreakdown]

    def ratio(self, model: NetworkModel) -> float:
        """Cloud total over NEP total (Table 3's normalisation)."""
        nep_total = self.nep.total_rmb
        if nep_total == 0.0:
            raise BillingError(f"app {self.app_id}: zero NEP bill")
        return self.cloud_bills[model].total_rmb / nep_total

    @property
    def hardware_ratio(self) -> float:
        """NEP hardware over cloud hardware (paper: NEP +3%..20%)."""
        cloud_hw = next(iter(self.cloud_bills.values())).hardware_rmb
        if cloud_hw == 0.0:
            raise BillingError(f"app {self.app_id}: zero cloud hardware bill")
        return self.nep.hardware_rmb / cloud_hw


@dataclass(frozen=True)
class CostStudyResult:
    """Table 3 for one virtual cloud: ratio stats per network model."""

    cloud_name: str
    comparisons: list[AppCostComparison]

    def ratios(self, model: NetworkModel) -> np.ndarray:
        return np.array([c.ratio(model) for c in self.comparisons])

    def summary(self, model: NetworkModel) -> dict[str, float]:
        """Range / mean / median of the cost ratios, as Table 3 reports."""
        ratios = self.ratios(model)
        return {
            "min": float(ratios.min()),
            "max": float(ratios.max()),
            "mean": float(ratios.mean()),
            "median": float(np.median(ratios)),
        }

    @property
    def mean_saving_by_bandwidth(self) -> float:
        """Average saving vs on-demand-by-bandwidth: 1 - 1/mean-ratio."""
        mean_ratio = float(self.ratios(
            NetworkModel.ON_DEMAND_BANDWIDTH).mean())
        return 1.0 - 1.0 / mean_ratio

    def network_share_of_nep_cost(self) -> dict[str, float]:
        """Mean/max network share of NEP bills (paper: 76% avg, 96% max)."""
        shares = np.array([c.nep.network_share for c in self.comparisons])
        return {"mean": float(shares.mean()), "max": float(shares.max())}


def run_cost_studies(dataset: TraceDataset,
                     clouds: Sequence[CloudBilling],
                     regions: list[CloudRegion], nep_billing: NepBilling,
                     app_count: int = 50) -> list[CostStudyResult]:
    """Bill the heaviest apps on NEP and on each virtual cloud baseline.

    Each app's usage, its clustering onto ``regions`` and its NEP bill
    are computed once and billed against every cloud, in ``clouds``
    order.  The NEP bills draw ``nep_billing``'s city prices in the
    order one :func:`run_cost_study` per cloud would.
    """
    locations = site_locations(dataset)
    apps = []
    for app_id in heaviest_apps(dataset, app_count):
        usage = build_app_usage(dataset, app_id)
        apps.append((app_id, nep_billing.bill(usage),
                     cluster_usage_to_cloud(usage, locations, regions)))
    if not apps:
        raise BillingError("no apps to compare")
    return [
        CostStudyResult(cloud_name=cloud.provider, comparisons=[
            AppCostComparison(
                app_id=app_id, nep=nep,
                cloud_bills={model: cloud.bill(clustered, model)
                             for model in NetworkModel})
            for app_id, nep, clustered in apps])
        for cloud in clouds
    ]


def run_cost_study(dataset: TraceDataset, cloud_billing: CloudBilling,
                   regions: list[CloudRegion], nep_billing: NepBilling,
                   app_count: int = 50) -> CostStudyResult:
    """Bill the heaviest apps on NEP and one virtual cloud baseline."""
    result, = run_cost_studies(dataset, [cloud_billing], regions,
                               nep_billing, app_count)
    return result
