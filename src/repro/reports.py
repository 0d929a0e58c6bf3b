"""Text reports regenerating each of the paper's tables and figures.

Every function takes an :class:`~repro.study.EdgeStudy` and returns the
measured table/series as formatted text.  The pytest benchmarks own the
paper-vs-measured *checks*; these reports are the figure data itself,
exposed as a library/CLI feature so users can regenerate any figure on
their own scenario.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core.balance import (
    app_balance_summary,
    find_unbalanced_app,
    machine_imbalance,
    site_imbalance,
)
from .core.cost_analysis import run_cost_studies, run_cost_study
from .core.deployment import PLATFORM_DEPLOYMENTS, density_of
from .core.latency_analysis import (
    cv_cdfs,
    hop_breakdown,
    hop_count_cdf,
    intersite_summary,
    rtt_cdfs,
)
from .core.prediction_analysis import run_prediction_study
from .core.qoe_analysis import GamingExperiment, StreamingExperiment
from .core.report import format_table, sketch_cdf
from .core.stats import pearson_correlation
from .core.throughput_analysis import all_series
from .core.workload_analysis import (
    app_vm_count_summary,
    category_breakdown,
    cpu_utilization_summary,
    sales_rate_summary,
    vm_size_summary,
)
from .billing.cloud import NetworkModel
from .netsim.access import AccessType
from .study import EdgeStudy

WIRELESS = (AccessType.WIFI, AccessType.LTE, AccessType.FIVE_G)


def table1(study: EdgeStudy) -> str:
    rows = [(r.platform, r.regions, r.coverage, density_of(r))
            for r in PLATFORM_DEPLOYMENTS]
    return format_table(
        ["platform", "regions", "coverage", "density /10^6 mi^2"], rows,
        title="Table 1 — deployment density")


def fig2a(study: EdgeStudy) -> str:
    rows = []
    for access in WIRELESS:
        cdfs = rtt_cdfs(study.per_user, access)
        for name, cdf in cdfs.items():
            rows.append((access.value, name, cdf.median, cdf.mean))
    return format_table(["access", "baseline", "median RTT (ms)",
                         "mean RTT (ms)"], rows,
                        title="Figure 2(a) — mean RTT per baseline")


def fig2b(study: EdgeStudy) -> str:
    rows = []
    for access in WIRELESS:
        cdfs = cv_cdfs(study.per_user, access)
        for name, cdf in cdfs.items():
            rows.append((access.value, name, cdf.median))
    return format_table(["access", "baseline", "median RTT CV"], rows,
                        title="Figure 2(b) — RTT jitter")


def table2(study: EdgeStudy) -> str:
    rows = []
    for access in WIRELESS:
        for target in ("nearest_edge", "nearest_cloud"):
            b = hop_breakdown(study.per_user, access, target)
            rows.append((
                access.value, target,
                "hidden" if b.hop1 is None else f"{b.hop1:.1%}",
                "hidden" if b.hop2 is None else f"{b.hop2:.1%}",
                "hidden" if b.hop3 is None else f"{b.hop3:.1%}",
                f"{b.first3_total:.1%}", f"{b.rest:.1%}",
            ))
    return format_table(["access", "target", "hop1", "hop2", "hop3",
                         "first 3", "rest"], rows,
                        title="Table 2 — per-hop latency shares")


def fig3(study: EdgeStudy) -> str:
    edge = hop_count_cdf(study.per_user, "nearest_edge")
    cloud = hop_count_cdf(study.per_user, "nearest_cloud")
    return "\n".join([
        "Figure 3 — hop counts",
        sketch_cdf(edge, label="nearest edge"),
        sketch_cdf(cloud, label="nearest cloud"),
    ])


def fig4(study: EdgeStudy) -> str:
    summary = intersite_summary(
        study.nep.platform, study.scenario.random.stream("report-fig4"))
    buckets = [(0, 500), (500, 1500), (1500, 2500), (2500, 4000)]
    rows = []
    for low, high in buckets:
        mask = (summary.distances_km >= low) & (summary.distances_km < high)
        if mask.any():
            rows.append((f"{low}-{high} km",
                         float(summary.rtts_ms[mask].mean()),
                         int(mask.sum())))
    rows.append(("sites within 5/10/20 ms",
                 f"{summary.mean_sites_within_5ms:.1f} / "
                 f"{summary.mean_sites_within_10ms:.1f} / "
                 f"{summary.mean_sites_within_20ms:.1f}", ""))
    return format_table(["distance band", "mean RTT (ms)", "pairs"], rows,
                        title="Figure 4 — inter-site RTT vs distance")


def fig5(study: EdgeStudy) -> str:
    rows = [(s.access.value, s.direction, s.mean_mbps, s.correlation,
             "significant" if s.distance_matters else
             "negligible" if s.capacity_limited else "weak")
            for s in all_series(study.throughput_results.throughput)]
    return format_table(["access", "direction", "mean Mbps",
                         "corr(distance)", "class"], rows,
                        title="Figure 5 — throughput vs distance")


def fig6(study: EdgeStudy) -> str:
    experiment = GamingExperiment(
        study.qoe_testbed, study.scenario.random.stream("report-fig6"),
        trials=30)
    rows = [(r.vm_label, r.access.value, r.mean_ms, r.p95_ms)
            for r in experiment.sweep_networks()]
    return format_table(["backend", "network", "mean delay (ms)",
                         "p95 (ms)"], rows,
                        title="Figure 6 — cloud-gaming response delay")


def fig7(study: EdgeStudy) -> str:
    experiment = StreamingExperiment(
        study.qoe_testbed, study.scenario.random.stream("report-fig7"),
        trials=30)
    rows = [(r.vm_label, r.access.value,
             "trans" if r.transcode else "plain", r.mean_ms)
            for r in experiment.sweep_networks()]
    return format_table(["backend", "network", "mode",
                         "streaming delay (ms)"], rows,
                        title="Figure 7 — live-streaming delay")


def fig8(study: EdgeStudy) -> str:
    rows = []
    for dataset in (study.nep.dataset, study.azure.dataset):
        s = vm_size_summary(dataset)
        rows.append((s.platform, s.median_cpu, s.median_memory_gb,
                     s.median_disk_gb, s.mean_disk_gb))
    return format_table(["platform", "median cores", "median mem GB",
                         "median disk GB", "mean disk GB"], rows,
                        title="Figure 8 — VM sizes")


def fig9(study: EdgeStudy) -> str:
    rows = []
    for dataset in (study.nep.dataset, study.azure.dataset):
        s = app_vm_count_summary(dataset)
        rows.append((s.platform, s.counts_cdf.median,
                     s.fraction_at_least_50, s.max_vms))
    return format_table(["platform", "median VMs/app", "share >=50 VMs",
                         "largest app"], rows,
                        title="Figure 9 — per-app VM counts")


def fig10(study: EdgeStudy) -> str:
    rows = []
    for dataset in (study.nep.dataset, study.azure.dataset):
        s = cpu_utilization_summary(dataset)
        rows.append((s.platform, s.fraction_mean_below_10pct,
                     s.median_cv, s.overall_mean_utilization))
    return format_table(["platform", "share <10% mean CPU", "median CV",
                         "overall mean util"], rows,
                        title="Figure 10 — CPU utilisation")


def fig11(study: EdgeStudy) -> str:
    dataset = study.nep.dataset
    by_province: dict[str, set] = {}
    for vm in dataset.vms.values():
        by_province.setdefault(vm.province, set()).add(vm.site_id)
    province = max(by_province, key=lambda p: len(by_province[p]))
    # Sorted, so ties go to the lowest site id, not to set hash order.
    site_id = max(sorted(by_province[province]),
                  key=lambda s: len(dataset.vms_on_site(s)))
    rng = study.scenario.random.stream("report-fig11")
    rows = []
    for label, view in (
        ("machines/cpu", machine_imbalance(dataset, site_id, "cpu")),
        ("machines/bw", machine_imbalance(dataset, site_id, "bw")),
        ("sites/cpu", site_imbalance(dataset, province, "cpu", rng=rng)),
        ("sites/bw", site_imbalance(dataset, province, "bw", rng=rng)),
    ):
        rows.append((label, len(view.unit_ids), view.max_gap))
    return format_table(["view", "units", "max/min gap"], rows,
                        title=f"Figure 11 — imbalance ({province})")


def fig12(study: EdgeStudy) -> str:
    dataset = study.nep.dataset
    bw_means = dataset.row_stats().bw_means_by_vm()
    sample = [v for v in dataset.vm_ids() if bw_means[v] > 1.0][:100]
    # The figure needs several periods to show week-over-week swings; on
    # short (smoke) traces fall back to daily averages so the report
    # stays meaningful instead of printing all-zero weekly CVs.
    if dataset.trace_days >= 14:
        period_label, periods = "weekly", dataset.trace_days // 7
        points_per_period = 7 * dataset.bw_points_per_day
    else:
        period_label, periods = "daily", dataset.trace_days
        points_per_period = dataset.bw_points_per_day

    def period_means(vm_id: str) -> np.ndarray:
        series = dataset.bw_series[vm_id][: periods * points_per_period]
        return series.reshape(periods, points_per_period).mean(axis=1)

    def variability(vm_id: str) -> float:
        means = period_means(vm_id)
        return float(means.std() / means.mean()) if means.mean() else 0.0

    ranked = sorted(sample, key=variability, reverse=True)
    rows = []
    for i, vm_id in enumerate(ranked[:2] + ranked[-2:], start=1):
        means = period_means(vm_id)
        rows.append((f"VM-{i}", float(means.min()), float(means.max()),
                     variability(vm_id)))
    return format_table(
        ["VM", f"{period_label} min Mbps", f"{period_label} max Mbps",
         f"{period_label} CV"], rows,
        title=f"Figure 12 — {period_label} bandwidth of 4 VMs")


def fig13(study: EdgeStudy) -> str:
    rows = []
    for dataset in (study.nep.dataset, study.azure.dataset):
        s = app_balance_summary(dataset)
        rows.append((s.platform, s.app_count, s.gaps_cdf.median,
                     s.fraction_above_50x))
    app_id = find_unbalanced_app(study.nep.dataset, min_vms=8)
    return format_table(
        ["platform", "apps", "median gap", "share >50x"], rows,
        title=f"Figure 13 — cross-VM gap (showcase app: {app_id})")


def fig14(study: EdgeStudy) -> str:
    rows = []
    for dataset, stream in ((study.nep.dataset, "report-fig14-e"),
                            (study.azure.dataset, "report-fig14-c")):
        result = run_prediction_study(
            dataset, vm_sample=8,
            rng=study.scenario.random.stream(stream),
            lstm_epochs=10, lstm_sample=2)
        for model in ("holt-winters", "lstm"):
            for target in ("max", "mean"):
                rows.append((result.platform, model, target,
                             result.median_rmse(model, target)))
        rows.append((result.platform, "seasonality", "-",
                     result.mean_seasonality))
    return format_table(["platform", "model", "target",
                         "median RMSE % / strength"], rows,
                        title="Figure 14 — predictability (sampled)")


def table3(study: EdgeStudy) -> str:
    rows = []
    results = run_cost_studies(
        study.nep.dataset, (study.vcloud1, study.vcloud2),
        study.vcloud_regions, study.nep_billing,
        app_count=min(study.scenario.heaviest_app_count, 20))
    for result in results:
        for model in NetworkModel:
            summary = result.summary(model)
            rows.append((result.cloud_name, model.value, summary["mean"],
                         summary["median"],
                         f"{summary['min']:.2f}-{summary['max']:.2f}"))
    return format_table(["cloud", "network model", "mean ratio",
                         "median", "range"], rows,
                        title="Table 3 — cost ratios (cloud / NEP)")


def table6(study: EdgeStudy) -> str:
    table = study.qoe_testbed.rtt_table(pings=20)
    rows = [(access.value, *(row[vm.label] for vm in
                             study.qoe_testbed.vms))
            for access, row in table.items()]
    return format_table(["access", "Edge", "Cloud-1", "Cloud-2",
                         "Cloud-3"], rows,
                        title="Table 6 — QoE testbed RTTs (ms)")


def sales(study: EdgeStudy) -> str:
    s = sales_rate_summary(study.nep.platform)
    rows = [
        ("site CPU sales rate p95/p5", s.site_cpu_p95_over_p5),
        ("median site CPU sales rate", s.median_site_cpu_rate),
        ("median site memory sales rate", s.median_site_memory_rate),
        ("CPU / memory saturation", s.cpu_over_memory_ratio),
    ]
    return format_table(["metric", "value"], rows,
                        title="§4.1 — sales rates")


def categories(study: EdgeStudy) -> str:
    """§4.1's application-type table: who NEP's customers are."""
    breakdown = category_breakdown(study.nep.dataset)
    rows = [(cat, apps, vms, f"{share:.1%}")
            for cat, (apps, vms, share) in breakdown.categories.items()]
    rows.append(("video-centric total", "", "",
                 f"{breakdown.video_centric_share:.1%}"))
    return format_table(["category", "apps", "VMs", "traffic share"],
                        rows, title="§4.1 — NEP application types")


def findings(study: EdgeStudy) -> str:
    """The paper's eight §1 findings, each with its measured value."""
    lines = ["The paper's findings, measured on this scenario", ""]

    wifi = rtt_cdfs(study.per_user, AccessType.WIFI)
    lines.append(
        f"(1) Network latency: nearest edge median "
        f"{wifi['nearest_edge'].median:.1f} ms vs nearest cloud "
        f"{wifi['nearest_cloud'].median:.1f} ms (WiFi) — "
        f"{wifi['nearest_cloud'].median / wifi['nearest_edge'].median:.2f}x "
        f"faster on the edge, but still "
        f"{hop_count_cdf(study.per_user, 'nearest_edge').median:.0f} hops "
        f"from users, not the 1-2 hop MEC vision.")

    series = {(s.access, s.direction): s
              for s in all_series(study.throughput_results.throughput)}
    fast = series.get((AccessType.FIVE_G, "downlink")) or series[
        (AccessType.WIRED, "downlink")]
    slow = series[(AccessType.WIFI, "downlink")]
    lines.append(
        f"(2) Throughput: distance only matters on fast last miles "
        f"({fast.access.value} downlink corr {fast.correlation:+.2f} vs "
        f"WiFi {slow.correlation:+.2f}) — not yet a primary edge "
        f"incentive.")

    gaming = GamingExperiment(
        study.qoe_testbed, study.scenario.random.stream("findings-g"),
        trials=20)
    edge_game = gaming.run_config("Edge", AccessType.WIFI)
    far_game = gaming.run_config("Cloud-3", AccessType.WIFI)
    streaming = StreamingExperiment(
        study.qoe_testbed, study.scenario.random.stream("findings-s"),
        trials=20)
    edge_stream = streaming.run_config("Edge", AccessType.WIFI)
    lines.append(
        f"(3) QoE: gaming {edge_game.mean_ms:.0f} ms on the edge vs "
        f"{far_game.mean_ms:.0f} ms on the far cloud; streaming stays "
        f"~{edge_stream.mean_ms:.0f} ms because capture/rendering "
        f"({edge_stream.breakdown['capture_ms']:.0f}/"
        f"{edge_stream.breakdown['render_ms']:.0f} ms) dwarf the "
        f"network ({edge_stream.breakdown['network_ms']:.0f} ms).")

    nep_sizes = vm_size_summary(study.nep.dataset)
    azure_sizes = vm_size_summary(study.azure.dataset)
    nep_util = cpu_utilization_summary(study.nep.dataset)
    azure_util = cpu_utilization_summary(study.azure.dataset)
    lines.append(
        f"(4) Edge VMs: {nep_sizes.median_cpu:.0f}C/"
        f"{nep_sizes.median_memory_gb:.0f}G median vs Azure "
        f"{azure_sizes.median_cpu:.0f}C/"
        f"{azure_sizes.median_memory_gb:.0f}G, yet "
        f"{nep_util.fraction_mean_below_10pct:.0%} idle below 10% CPU "
        f"(Azure: {azure_util.fraction_mean_below_10pct:.0%}) — "
        f"over-provisioning.")

    sales_summary = sales_rate_summary(study.nep.platform)
    lines.append(
        f"(5) Resource usage: site sales rates skew "
        f"{sales_summary.site_cpu_p95_over_p5:.0f}x p95/p5; CPU "
        f"saturates {sales_summary.cpu_over_memory_ratio:.1f}x faster "
        f"than memory.")

    nep_balance = app_balance_summary(study.nep.dataset)
    azure_balance = app_balance_summary(study.azure.dataset)
    lines.append(
        f"(6) Load balance: {nep_balance.fraction_above_50x:.0%} of edge "
        f"apps show a >50x cross-VM usage gap "
        f"(cloud: {azure_balance.fraction_above_50x:.1%}).")

    lines.append(
        "(7) Prediction: run `repro run fig14` — edge VMs' stronger "
        "seasonality makes every model more accurate than on the cloud.")

    result = run_cost_study(
        study.nep.dataset, study.vcloud1, study.vcloud_regions,
        study.nep_billing,
        app_count=min(study.scenario.heaviest_app_count, 20))
    saving = result.mean_saving_by_bandwidth
    share = result.network_share_of_nep_cost()["mean"]
    lines.append(
        f"(8) Cost: moving the heaviest apps to the cloud would cost "
        f"{1 / (1 - saving):.2f}x NEP's bill (so the edge saves "
        f"~{saving:.0%}); bandwidth is {share:.0%} of the edge bill.")
    return "\n".join(lines)


def availability(study: EdgeStudy) -> str:
    """Availability/MTTR study; needs fault injection to be enabled."""
    if study.faults is None:
        return ("Availability study skipped: fault injection is off.\n"
                "Rerun with --faults paper (or harsh) to generate the "
                "fault schedule and availability report.")
    return study.availability.format()


def qoe_sessions(study: EdgeStudy) -> str:
    """Session-scale edge-vs-cloud QoE distributions (beyond Figure 7)."""
    return study.qoe_sessions.format()


def live(study: EdgeStudy) -> str:
    """Event-driven live-platform run: fleet series tick by tick."""
    return study.live.format()


#: CLI registry: experiment id -> report function.
REPORTS: dict[str, Callable[[EdgeStudy], str]] = {
    "table1": table1,
    "fig2a": fig2a,
    "fig2b": fig2b,
    "table2": table2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "table3": table3,
    "table6": table6,
    "sales": sales,
    "categories": categories,
    "findings": findings,
    "availability": availability,
    "qoe-sessions": qoe_sessions,
    "live": live,
}
