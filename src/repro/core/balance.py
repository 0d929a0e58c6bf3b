"""§4.3 analyses: load balance across servers, sites, and an app's VMs.

Covers Figure 11 (normalised CPU/bandwidth usage across the machines of
one site and the sites of one province), Figure 12 (weekly-averaged
bandwidth of sample VMs), and Figure 13 (the per-app cross-VM usage gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import TraceError
from ..trace.dataset import TraceDataset, merge_days
from .chunks import per_vm_means
from .stats import ECDF, fairness_index, quantile_ratio


@dataclass(frozen=True)
class ImbalanceView:
    """One Figure 11 panel: normalised usage over a set of units."""

    label: str                      # e.g. "machines/cpu", "sites/bw"
    unit_ids: tuple[str, ...]
    normalized_usage: np.ndarray    # each unit / the smallest non-zero unit

    @property
    def max_gap(self) -> float:
        """Largest-over-smallest usage (the paper's headline gaps)."""
        return float(self.normalized_usage.max())

    @property
    def fairness(self) -> float:
        """Jain's fairness index of the usage allocation (1.0 = even)."""
        return fairness_index(self.normalized_usage)


def _normalize(values: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    positive = values[values > floor]
    if positive.size == 0:
        raise TraceError("all units have zero usage")
    return values / positive.min()


def machine_imbalance(dataset: TraceDataset, site_id: str,
                      metric: str) -> ImbalanceView:
    """Figure 11(a)/(c): usage across the machines of one site.

    ``metric`` is ``"cpu"`` (requested-core-weighted mean usage) or
    ``"bw"`` (summed bandwidth).

    Raises:
        TraceError: for an unknown metric or a site with no loaded servers.
    """
    server_ids = sorted({vm.server_id for vm in dataset.vms_on_site(site_id)})
    if not server_ids:
        raise TraceError(f"site {site_id!r} hosts no VMs")
    if metric == "cpu":
        values = np.array([
            float(dataset.server_cpu_usage(s).mean()) for s in server_ids
        ])
    elif metric == "bw":
        values = np.array([
            float(dataset.server_bandwidth(s).mean()) for s in server_ids
        ])
    else:
        raise TraceError(f"unknown metric {metric!r}")
    return ImbalanceView(
        label=f"machines/{metric}",
        unit_ids=tuple(server_ids),
        normalized_usage=_normalize(values),
    )


def site_imbalance(dataset: TraceDataset, province: str,
                   metric: str, max_sites: int = 11,
                   rng: np.random.Generator | None = None) -> ImbalanceView:
    """Figure 11(b)/(d): usage across (sampled) sites of one province.

    The paper samples 11 sites from Guangdong; ``max_sites`` mirrors that.
    """
    province_sites = sorted(
        site_id for site_id, record in dataset.sites.items()
        if record.province == province and dataset.vms_on_site(site_id)
    )
    if not province_sites:
        raise TraceError(f"no loaded sites in province {province!r}")
    if len(province_sites) > max_sites:
        if rng is None:
            province_sites = province_sites[:max_sites]
        else:
            idx = rng.choice(len(province_sites), size=max_sites,
                             replace=False)
            province_sites = [province_sites[int(i)] for i in sorted(idx)]
    if metric == "cpu":
        values = []
        for site_id in province_sites:
            server_ids = sorted({vm.server_id
                                 for vm in dataset.vms_on_site(site_id)})
            usage = np.mean([
                float(dataset.server_cpu_usage(s).mean()) for s in server_ids
            ])
            values.append(usage)
        values = np.array(values)
    elif metric == "bw":
        values = np.array([
            float(dataset.site_bandwidth(s).mean()) for s in province_sites
        ])
    else:
        raise TraceError(f"unknown metric {metric!r}")
    return ImbalanceView(
        label=f"sites/{metric}",
        unit_ids=tuple(province_sites),
        normalized_usage=_normalize(values),
    )


@dataclass(frozen=True)
class WeeklyBandwidthView:
    """Figure 12: weekly-averaged bandwidth of a handful of VMs."""

    vm_ids: tuple[str, ...]
    weekly_mbps: dict[str, np.ndarray]

    def variability(self, vm_id: str) -> float:
        """CV of the weekly averages: high = 'dramatic and unpredictable'."""
        series = self.weekly_mbps[vm_id]
        mean = float(series.mean())
        if mean == 0.0:
            return 0.0
        return float(series.std() / mean)


def weekly_bandwidth_view(dataset: TraceDataset, vm_ids: list[str],
                          ) -> WeeklyBandwidthView:
    """Collapse selected VMs' bandwidth to weekly averages (Figure 12).

    Raises:
        TraceError: if a VM is unknown or the trace is shorter than a week.
    """
    weeks = dataset.trace_days // 7
    if weeks < 1:
        raise TraceError("trace shorter than one week")
    points_per_week = 7 * dataset.bw_points_per_day
    weekly = {}
    for vm_id in vm_ids:
        if vm_id not in dataset.bw_series:
            raise TraceError(f"unknown VM {vm_id!r}")
        series = dataset.bw_series[vm_id][: weeks * points_per_week]
        weekly[vm_id] = series.reshape(weeks, points_per_week).mean(axis=1)
    return WeeklyBandwidthView(vm_ids=tuple(vm_ids), weekly_mbps=weekly)


@dataclass(frozen=True)
class AppBalanceSummary:
    """Figure 13(a): cross-VM usage gap per app on one platform."""

    platform: str
    gaps_cdf: ECDF
    fraction_above_50x: float
    app_count: int


def app_balance_summary(dataset: TraceDataset, min_vms: int = 3,
                        means: Mapping[str, float] | None = None,
                        ) -> AppBalanceSummary:
    """The per-app usage-gap distribution (P95/P5 of per-VM mean CPU).

    Apps with fewer than ``min_vms`` placed VMs cannot exhibit a
    meaningful gap and are excluded, as a plot over apps "using multiple
    VMs" implies.  Per-VM means are ``means`` when the caller already
    has them (``per_vm_means(dataset.cpu_series)``), else they come from
    one chunked pass over the CPU series, so the analysis works
    unchanged on an out-of-core trace.
    """
    mean_map = per_vm_means(dataset.cpu_series) if means is None else means
    gaps = []
    for app_id in dataset.app_ids_with_vms():
        vms = dataset.vms_of_app(app_id)
        if len(vms) < min_vms:
            continue
        means = [mean_map[vm.vm_id] for vm in vms]
        gaps.append(quantile_ratio(means, floor=1e-4))
    if not gaps:
        raise TraceError(f"no apps with >= {min_vms} VMs")
    gaps_array = np.array(gaps)
    return AppBalanceSummary(
        platform=dataset.platform_name,
        gaps_cdf=ECDF.from_samples(gaps_array),
        fraction_above_50x=float(np.mean(gaps_array > 50.0)),
        app_count=int(gaps_array.size),
    )


def hottest_app_day_view(dataset: TraceDataset, app_id: str,
                         day_index: int = 0,
                         max_vms: int = 11) -> dict[str, np.ndarray]:
    """Figure 13(b): one day of CPU usage for up to 11 VMs of one app.

    Raises:
        TraceError: for an unknown app or out-of-range day.
    """
    if day_index < 0 or day_index >= dataset.trace_days:
        raise TraceError(f"day {day_index} outside trace of "
                         f"{dataset.trace_days} days")
    vms = dataset.vms_of_app(app_id)[:max_vms]
    if not vms:
        raise TraceError(f"app {app_id!r} has no VMs")
    per_day = dataset.cpu_points_per_day
    start = day_index * per_day
    return {
        vm.vm_id: dataset.cpu_series[vm.vm_id][start:start + per_day].copy()
        for vm in vms
    }


def find_unbalanced_app(dataset: TraceDataset, min_vms: int = 8,
                        means: Mapping[str, float] | None = None) -> str:
    """The app with the widest cross-VM gap among apps with many VMs.

    Used by the Figure 13(b) bench to pick its showcase app.  ``means``
    are as in :func:`app_balance_summary`.
    """
    mean_map = per_vm_means(dataset.cpu_series) if means is None else means
    best_app, best_gap = None, -1.0
    for app_id in dataset.app_ids_with_vms():
        vms = dataset.vms_of_app(app_id)
        if len(vms) < min_vms:
            continue
        means = [mean_map[vm.vm_id] for vm in vms]
        gap = quantile_ratio(means, floor=1e-4)
        if gap > best_gap:
            best_app, best_gap = app_id, gap
    if best_app is None:
        raise TraceError(f"no app with >= {min_vms} VMs")
    return best_app
