"""§4.1-§4.2 analyses: VM subscription, sales rates, CPU utilisation.

Covers Figure 8 (VM size CDFs), Figure 9 (per-app VM counts), Figure 10
(CPU utilisation and its across-time variance), and the sales-rate
skew statistics the paper describes in prose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# ``np.median`` reaches ``numpy.ma`` (through ``_median_nancheck``),
# which numpy 2 loads lazily; load it with the library instead of inside
# the first median of a timed run.
import numpy.ma  # noqa: F401

from ..errors import TraceError
from ..platform.cluster import Platform
from ..trace.dataset import TraceDataset
# ``iter_series_chunks`` is unused here, but the benchmark's span
# wrappers (``bench/spans.py``) resolve it through this module.
from .chunks import (  # noqa: F401
    cpu_row_stats,
    iter_series_chunks,
    per_vm_totals,
)
from .stats import ECDF, percentile

#: Figure 8 size buckets: small <= 4, medium 5-16, large > 16 (cores/GB).
SIZE_BUCKETS = ((0, 4), (5, 16), (17, 10**9))
SIZE_BUCKET_NAMES = ("small", "medium", "large")


@dataclass(frozen=True)
class VMSizeSummary:
    """Figure 8 artefacts for one platform."""

    platform: str
    cpu_cdf: ECDF
    memory_cdf: ECDF
    cpu_bucket_shares: dict[str, float]
    memory_bucket_shares: dict[str, float]
    median_cpu: float
    median_memory_gb: float
    median_disk_gb: float
    mean_disk_gb: float


def _bucket_shares(values: np.ndarray) -> dict[str, float]:
    shares = {}
    for name, (low, high) in zip(SIZE_BUCKET_NAMES, SIZE_BUCKETS):
        shares[name] = float(np.mean((values >= low) & (values <= high)))
    return shares


def vm_size_summary(dataset: TraceDataset) -> VMSizeSummary:
    """Figure 8: the VM-size distributions of one platform's trace."""
    if not dataset.vms:
        raise TraceError("dataset has no VMs")
    cpu = np.array([vm.cpu_cores for vm in dataset.vms.values()], dtype=float)
    mem = np.array([vm.memory_gb for vm in dataset.vms.values()], dtype=float)
    disk = np.array([vm.disk_gb for vm in dataset.vms.values()], dtype=float)
    return VMSizeSummary(
        platform=dataset.platform_name,
        cpu_cdf=ECDF.from_samples(cpu),
        memory_cdf=ECDF.from_samples(mem),
        cpu_bucket_shares=_bucket_shares(cpu),
        memory_bucket_shares=_bucket_shares(mem),
        median_cpu=float(np.median(cpu)),
        median_memory_gb=float(np.median(mem)),
        median_disk_gb=float(np.median(disk)),
        mean_disk_gb=float(disk.mean()),
    )


@dataclass(frozen=True)
class AppVmCountSummary:
    """Figure 9 artefacts for one platform."""

    platform: str
    counts_cdf: ECDF
    fraction_at_least_50: float
    max_vms: int


def app_vm_count_summary(dataset: TraceDataset) -> AppVmCountSummary:
    """Figure 9: VMs per app on one platform."""
    counts = np.array([len(dataset.vms_of_app(app_id))
                       for app_id in dataset.app_ids_with_vms()], dtype=float)
    if counts.size == 0:
        raise TraceError("dataset has no apps with VMs")
    return AppVmCountSummary(
        platform=dataset.platform_name,
        counts_cdf=ECDF.from_samples(counts),
        fraction_at_least_50=float(np.mean(counts >= 50)),
        max_vms=int(counts.max()),
    )


@dataclass(frozen=True)
class CpuUtilizationSummary:
    """Figure 10 artefacts for one platform."""

    platform: str
    mean_cdf: ECDF
    p95_max_cdf: ECDF
    cv_cdf: ECDF
    fraction_mean_below_10pct: float
    median_cv: float
    overall_mean_utilization: float


def cpu_utilization_summary(dataset: TraceDataset) -> CpuUtilizationSummary:
    """Figure 10: per-VM mean, P95-max, and across-time CV of CPU usage.

    Runs as one chunked pass over the CPU series (the out-of-core bulk
    path), producing exactly the values the per-VM
    :meth:`~repro.trace.dataset.TraceDataset.mean_cpu` /
    ``p95_max_cpu`` / ``cpu_cv`` accessors give.
    """
    if not dataset.vms:
        raise TraceError("dataset has no VMs")
    vm_ids = dataset.vm_ids()
    mean_map, p95_map, cv_map = cpu_row_stats(dataset.cpu_series)
    means = np.array([mean_map[v] for v in vm_ids])
    p95s = np.array([p95_map[v] for v in vm_ids])
    cvs = np.array([cv_map[v] for v in vm_ids])
    return CpuUtilizationSummary(
        platform=dataset.platform_name,
        mean_cdf=ECDF.from_samples(means),
        p95_max_cdf=ECDF.from_samples(p95s),
        cv_cdf=ECDF.from_samples(cvs),
        fraction_mean_below_10pct=float(np.mean(means < 0.10)),
        median_cv=float(np.median(cvs)),
        overall_mean_utilization=float(means.mean()),
    )


@dataclass(frozen=True)
class SalesRateSummary:
    """§4.1 sales-rate skew: p95/p5 across sites, CPU-vs-memory ratio."""

    platform: str
    site_cpu_p95_over_p5: float
    median_site_cpu_rate: float
    median_site_memory_rate: float

    @property
    def cpu_over_memory_ratio(self) -> float:
        if self.median_site_memory_rate == 0.0:
            return float("inf")
        return self.median_site_cpu_rate / self.median_site_memory_rate


def sales_rate_summary(platform: Platform,
                       floor: float = 1e-3) -> SalesRateSummary:
    """Sales-rate statistics from a live platform inventory.

    Only sites with any sold capacity enter the p95/p5 skew (a brand-new
    empty site is not a sales-rate observation, it is inventory).
    """
    cpu_rates = np.array([r for r in platform.site_cpu_sales_rates() if r > 0])
    mem_rates = np.array([r for r in platform.site_memory_sales_rates()
                          if r > 0])
    if cpu_rates.size == 0:
        raise TraceError(f"platform {platform.name} has no sold capacity")
    return SalesRateSummary(
        platform=platform.name,
        site_cpu_p95_over_p5=(percentile(cpu_rates, 95)
                              / max(percentile(cpu_rates, 5), floor)),
        median_site_cpu_rate=float(np.median(cpu_rates)),
        median_site_memory_rate=float(np.median(mem_rates))
        if mem_rates.size else 0.0,
    )


@dataclass(frozen=True)
class CategoryBreakdown:
    """§4.1's application-type view: who the platform's customers are."""

    platform: str
    #: category -> (app count, VM count, share of total public traffic).
    categories: dict[str, tuple[int, int, float]]

    def traffic_share(self, category: str) -> float:
        if category not in self.categories:
            raise TraceError(f"unknown category {category!r}")
        return self.categories[category][2]

    @property
    def video_centric_share(self) -> float:
        """Traffic share of the video-dominated categories (§4.5's
        "current edge apps are mostly video-centric")."""
        video = {"live_streaming", "cdn", "video_communication",
                 "video_surveillance", "cloud_gaming"}
        return sum(share for cat, (_, _, share) in self.categories.items()
                   if cat in video)


def category_breakdown(dataset: TraceDataset) -> CategoryBreakdown:
    """Apps, VMs, and traffic share per application category (§4.1).

    Raises:
        TraceError: if the dataset has no VMs.
    """
    if not dataset.vms:
        raise TraceError("dataset has no VMs")
    apps_per_category: dict[str, set[str]] = {}
    vms_per_category: dict[str, int] = {}
    traffic_per_category: dict[str, float] = {}
    total_traffic = 0.0
    vm_traffic = per_vm_totals(dataset.bw_series)
    for vm in dataset.vms.values():
        apps_per_category.setdefault(vm.category, set()).add(vm.app_id)
        vms_per_category[vm.category] = \
            vms_per_category.get(vm.category, 0) + 1
        traffic = vm_traffic[vm.vm_id]
        traffic_per_category[vm.category] = \
            traffic_per_category.get(vm.category, 0.0) + traffic
        total_traffic += traffic
    categories = {
        category: (
            len(apps_per_category[category]),
            vms_per_category[category],
            traffic_per_category[category] / total_traffic
            if total_traffic else 0.0,
        )
        for category in sorted(apps_per_category)
    }
    return CategoryBreakdown(platform=dataset.platform_name,
                             categories=categories)
