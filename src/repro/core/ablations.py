"""The six what-if ablations, as library functions.

The sweep orchestrator (:mod:`repro.sweep`) runs them as ordinary
analyses, so one ``repro sweep run`` regenerates the whole campaign,
and the paper-claims registry (``benchmarks/claims.py``) checks them.
Every function takes an :class:`~repro.study.EdgeStudy` and returns an
:class:`AblationOutcome`, the registry's outcome type for every claim:
its :attr:`~AblationOutcome.text` is the claim's EXPERIMENTS.md block.

Ablations that do not need the study's datasets (growth, placement)
still derive their scenario from the study's seed, so a sweep cell's
seed axis reaches every ablation uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import Scenario
from ..geo import CHINA_CITIES, place_edge_sites
from ..netsim.access import AccessType
from ..netsim.latency import LatencyModel
from ..netsim.routing import TargetSiteSpec, UESpec, build_route
from ..platform.entities import App, Customer
from ..platform.growth import simulate_growth
from ..platform.nep import build_nep_platform
from ..platform.placement import (
    BestFitPolicy,
    NepPlacementPolicy,
    RandomPolicy,
    SubscriptionRequest,
)
from ..platform.scheduling import LoadAwareScheduler, NearestSiteScheduler
from ..platform.serverless import FunctionSpec, compare_vm_vs_faas
from ..workload.subscription import sample_nep_spec
from .report import PaperComparison, check_ordering, comparison_block, format_table

#: Site counts swept by the density ablation (cloud-like -> beyond NEP).
DENSITY_SITE_COUNTS = (12, 60, 250, 520, 1000)
_DENSITY_USERS = 40

_MEC_USERS = 30
#: 5GAA end-to-end budget the paper cites for automated driving.
AUTO_DRIVING_BUDGET_MS = 10.0

_GROWTH_EPOCHS = 6
_GROWTH_REQUESTS = 12

_PLACEMENT_REQUESTS = 40
_SCHEDULING_REQUESTS = 400

_FAAS_SPEC = FunctionSpec(name="api-backend", memory_mb=512, exec_ms=60.0,
                          cold_start_ms=450.0)
_VM_MONTHLY_RMB = 260.0   # right-sized 2C/8G-class NEP VM
_VM_CAPACITY_RPS = 50.0
_DUTY_HOURS = (1, 3, 6, 12, 24)


@dataclass(frozen=True)
class AblationOutcome:
    """One ablation's (or paper claim's) report plus machine results.

    ``tables`` are the pre-rendered fixed-width tables (one or more),
    ``checks`` the qualitative paper-vs-measured assertions, and
    ``metrics`` a flat name -> float mapping the sweep report diffs
    across cells (empty for the other paper claims).
    """

    name: str
    tables: tuple[str, ...]
    checks: tuple[PaperComparison, ...]
    metrics: dict[str, float]
    block_title: str

    @property
    def text(self) -> str:
        """Tables followed by the check block — the benchmark rendering."""
        parts = list(self.tables)
        parts.append(comparison_block(self.block_title, list(self.checks)))
        return "\n\n".join(parts)

    @property
    def holds(self) -> bool:
        """True when every qualitative check passed."""
        return all(c.holds for c in self.checks)

    @property
    def checks_ok(self) -> int:
        """How many checks passed."""
        return sum(1 for c in self.checks if c.holds)


def _median_nearest_rtt(site_count: int, rng) -> float:
    sites = place_edge_sites(site_count, rng)
    model = LatencyModel(rng)
    medians = []
    for _ in range(_DENSITY_USERS):
        home = CHINA_CITIES[int(rng.integers(0, len(CHINA_CITIES)))]
        location = home.location.jitter(float(rng.uniform(-0.15, 0.15)),
                                        float(rng.uniform(-0.15, 0.15)))
        ue = UESpec("user", location, AccessType.WIFI)
        nearest = sorted(sites,
                         key=lambda s: s.location.distance_km(location))[:3]
        rtts = []
        for site in nearest:
            route = build_route(
                ue, TargetSiteSpec("edge", site.location, True), rng)
            rtts.append(float(model.sample_many(route, 10).mean()))
        medians.append(min(rtts))
    return float(np.median(medians))


def run_density_ablation(study) -> AblationOutcome:
    """Sweep deployment density and measure the nearest-edge RTT (§3.1/§5)."""
    rng = study.scenario.random.stream("ablation-density")
    rtts = {count: _median_nearest_rtt(count, rng)
            for count in DENSITY_SITE_COUNTS}

    rows = [(count, rtt) for count, rtt in rtts.items()]
    values = [rtts[c] for c in DENSITY_SITE_COUNTS]
    checks = (
        check_ordering("denser deployment lowers the nearest-edge RTT",
                       "RTT non-increasing in site count (to noise)",
                       values[0] > values[-1]
                       and values[1] >= values[-1] - 1.0,
                       " -> ".join(f"{v:.1f}" for v in values)),
        check_ordering("cloud-like density cannot reach edge latency",
                       "12 sites >= 1.3x the RTT of 520 sites",
                       values[0] >= 1.3 * rtts[520],
                       f"{values[0]:.1f} vs {rtts[520]:.1f} ms"),
        check_ordering("diminishing returns past NEP's density",
                       "520 -> 1000 sites saves < 520's absolute RTT x25%",
                       rtts[520] - rtts[1000] < 0.25 * rtts[520],
                       f"saving {rtts[520] - rtts[1000]:.1f} ms"),
        check_ordering("even 1000 sites stay above the MEC vision",
                       "WiFi floor: access+metro ~ 12 ms",
                       rtts[1000] > 10.0, f"{rtts[1000]:.1f} ms"),
    )
    table = format_table(["sites", "median nearest-edge RTT (ms)"], rows,
                         title="Ablation — deployment density (WiFi)")
    metrics = {f"rtt_ms_{count}_sites": rtt for count, rtt in rtts.items()}
    return AblationOutcome("density", (table,), checks, metrics,
                           "Density ablation")


def run_growth_ablation(study) -> AblationOutcome:
    """Replay NEP's build-out vs a static counterfactual (§4.3)."""
    scenario = Scenario.smoke_scale().with_overrides(
        seed=study.scenario.seed)
    grown = simulate_growth(scenario, epochs=_GROWTH_EPOCHS,
                            initial_fraction=0.2,
                            requests_per_epoch=_GROWTH_REQUESTS)
    static = simulate_growth(scenario, epochs=_GROWTH_EPOCHS,
                             initial_fraction=1.0,
                             requests_per_epoch=_GROWTH_REQUESTS)

    rows = [(e.index, e.active_sites, e.placed_vms, e.skew,
             static.epochs[e.index].skew)
            for e in grown.epochs]
    growth_table = format_table(
        ["epoch", "active sites", "VMs", "skew (growth)",
         "skew (static)"], rows,
        title="Ablation — build-out vs static deployment")

    by_epoch = grown.rate_by_activation_epoch()
    age_table = format_table(
        ["activation epoch", "mean final sales rate"],
        [(epoch, rate) for epoch, rate in by_epoch.items()],
        title="Sales rate by site age (growth run)")

    first, last = by_epoch[0], by_epoch[max(by_epoch)]
    checks = (
        check_ordering("growth amplifies across-site skew",
                       "final skew above the static counterfactual",
                       grown.final_skew > static.final_skew,
                       f"{grown.final_skew:.0f}x vs "
                       f"{static.final_skew:.0f}x"),
        check_ordering("young sites sit near-empty",
                       "day-one sites outsell the newest cohort",
                       first > 3 * max(last, 1e-6),
                       f"{first:.4f} vs {last:.4f} mean sales rate"),
        check_ordering("skew grows while the platform builds out",
                       "later epochs more skewed than the first",
                       grown.epochs[-1].skew > grown.epochs[0].skew,
                       f"{grown.epochs[0].skew:.0f}x -> "
                       f"{grown.epochs[-1].skew:.0f}x"),
    )
    metrics = {
        "final_skew_growth": float(grown.final_skew),
        "final_skew_static": float(static.final_skew),
        "day_one_sales_rate": float(first),
        "newest_cohort_sales_rate": float(last),
    }
    return AblationOutcome("growth", (growth_table, age_table), checks,
                           metrics, "Growth ablation")


def _median_rtts(study, access, rng):
    """(median nearest-NEP RTT, median MEC RTT) for one access type."""
    platform = study.nep.platform
    model = LatencyModel(rng)
    nep_rtts, mec_rtts = [], []
    for _ in range(_MEC_USERS):
        home = CHINA_CITIES[int(rng.integers(0, len(CHINA_CITIES)))]
        location = home.location.jitter(float(rng.uniform(-0.1, 0.1)),
                                        float(rng.uniform(-0.1, 0.1)))
        ue = UESpec("user", location, access)
        best = None
        for site in platform.nearest_sites(location, count=3):
            route = build_route(
                ue, TargetSiteSpec(site.site_id, site.location, True), rng)
            rtt = float(model.sample_many(route, 10).mean())
            best = rtt if best is None else min(best, rtt)
        nep_rtts.append(best)
        mec_route = build_route(
            ue, TargetSiteSpec("mec", location, True,
                               colocated_with_access=True), rng)
        mec_rtts.append(float(model.sample_many(mec_route, 10).mean()))
    return float(np.median(nep_rtts)), float(np.median(mec_rtts))


def run_mec_ablation(study) -> AblationOutcome:
    """Deploy a hypothetical access-co-located MEC server (§3.1/§5)."""
    rng = study.scenario.random.stream("ablation-mec")
    results = {access: _median_rtts(study, access, rng)
               for access in (AccessType.WIFI, AccessType.LTE,
                              AccessType.FIVE_G)}

    rows = [(access.value, nep, mec, nep - mec,
             "yes" if mec <= AUTO_DRIVING_BUDGET_MS else "no")
            for access, (nep, mec) in results.items()]
    wifi_nep, wifi_mec = results[AccessType.WIFI]
    lte_nep, lte_mec = results[AccessType.LTE]
    five_g_nep, five_g_mec = results[AccessType.FIVE_G]
    checks = (
        check_ordering("today's NEP misses the 10 ms auto-driving budget",
                       "nearest NEP > 10 ms on every access",
                       all(nep > AUTO_DRIVING_BUDGET_MS
                           for nep, _ in results.values()),
                       " / ".join(f"{a.value}: {nep:.1f} ms"
                                  for a, (nep, _) in results.items())),
        check_ordering("MEC strictly improves on NEP",
                       "co-located server faster everywhere",
                       all(mec < nep for nep, mec in results.values()),
                       " / ".join(f"{a.value}: -{nep - mec:.1f} ms"
                                  for a, (nep, mec) in results.items())),
        check_ordering("WiFi gains the most from MEC",
                       "metro core removed (~40% of WiFi RTT)",
                       (wifi_nep - wifi_mec) > (five_g_nep - five_g_mec),
                       f"WiFi -{wifi_nep - wifi_mec:.1f} ms vs 5G "
                       f"-{five_g_nep - five_g_mec:.1f} ms"),
        check_ordering("LTE stays above the budget even with MEC",
                       "the 26 ms packet core is the floor",
                       lte_mec > AUTO_DRIVING_BUDGET_MS,
                       f"{lte_mec:.1f} ms"),
        check_ordering("MEC approaches the budget on WiFi/5G",
                       "within ~2 ms of the 10 ms line",
                       wifi_mec <= 12.0 and five_g_mec <= 12.0,
                       f"WiFi {wifi_mec:.1f} / 5G {five_g_mec:.1f} ms"),
    )
    table = format_table(["access", "nearest NEP (ms)", "MEC (ms)",
                          "saving (ms)", "meets 10 ms budget"], rows,
                         title="Ablation — NEP today vs the MEC vision")
    metrics = {}
    for access, (nep, mec) in results.items():
        metrics[f"nep_rtt_ms_{access.value}"] = nep
        metrics[f"mec_rtt_ms_{access.value}"] = mec
    return AblationOutcome("mec", (table,), checks, metrics,
                           "MEC ablation")


def _run_placement_policy(scenario: Scenario, policy_factory):
    platform = build_nep_platform(scenario)
    rng = scenario.random.stream("ablation-placement")
    policy = policy_factory(rng)
    for index in range(_PLACEMENT_REQUESTS):
        customer = Customer(f"c{index}", f"cust-{index}")
        platform.register_customer(customer)
        platform.register_app(App(f"a{index}", customer.customer_id,
                                  "cdn", f"img{index}"))
        request = SubscriptionRequest(
            customer_id=customer.customer_id, app_id=f"a{index}",
            image_id=f"img{index}", spec=sample_nep_spec(rng),
            vm_count=int(rng.integers(2, 8)),
        )
        policy.place(platform, request)
    rates = np.array([s.cpu_sales_rate()
                      for s in platform.iter_servers()])
    used = int(np.count_nonzero(rates))
    loaded = rates[rates > 0]
    return {
        "servers_used": used,
        "load_std": float(loaded.std()),
        "max_load": float(loaded.max()),
        "vms": len(platform.vms),
    }


def run_placement_ablation(study) -> AblationOutcome:
    """NEP's low-usage-first placement vs best-fit and random (§2/§4.1)."""
    scenario = Scenario.smoke_scale().with_overrides(
        seed=study.scenario.seed, nep_site_count=30)
    results = {
        "nep-low-usage": _run_placement_policy(
            scenario, lambda rng: NepPlacementPolicy()),
        "best-fit": _run_placement_policy(
            scenario, lambda rng: BestFitPolicy()),
        "random": _run_placement_policy(
            scenario, lambda rng: RandomPolicy(rng)),
    }

    rows = [(name, r["vms"], r["servers_used"], r["load_std"],
             r["max_load"]) for name, r in results.items()]
    nep, best_fit = results["nep-low-usage"], results["best-fit"]
    checks = (
        check_ordering("NEP spreads load wider than best-fit",
                       "NEP uses more servers",
                       nep["servers_used"] > best_fit["servers_used"],
                       f"{nep['servers_used']} vs "
                       f"{best_fit['servers_used']} servers"),
        check_ordering("best-fit consolidates into hotter servers",
                       "best-fit max load above NEP's",
                       best_fit["max_load"] >= nep["max_load"],
                       f"{best_fit['max_load']:.2f} vs "
                       f"{nep['max_load']:.2f}"),
        check_ordering("NEP's loaded servers are more even",
                       "NEP per-server load std below best-fit's",
                       nep["load_std"] <= best_fit["load_std"],
                       f"{nep['load_std']:.3f} vs "
                       f"{best_fit['load_std']:.3f}"),
    )
    table = format_table(["policy", "VMs placed", "servers used",
                          "loaded-server std", "hottest server"], rows,
                         title="Ablation — placement policies")
    metrics = {}
    for name, r in results.items():
        slug = name.replace("-", "_")
        metrics[f"servers_used_{slug}"] = float(r["servers_used"])
        metrics[f"load_std_{slug}"] = r["load_std"]
        metrics[f"max_load_{slug}"] = r["max_load"]
    return AblationOutcome("placement", (table,), checks, metrics,
                           "Placement ablation")


def run_scheduling_ablation(study) -> AblationOutcome:
    """Nearest-site scheduling vs load-aware GSLB on the biggest app (§4.3)."""
    platform = study.nep.platform
    dataset = study.nep.dataset
    app_id = max(dataset.app_ids_with_vms(),
                 key=lambda a: len(dataset.vms_of_app(a)))
    rng = study.scenario.random.stream("ablation-scheduling")

    nearest = NearestSiteScheduler()
    load_state = {vm.vm_id: 0.0
                  for vm in platform.vms_of_app(app_id)}
    gslb = LoadAwareScheduler(load=lambda v: load_state[v],
                              detour_km=300.0, overload=0.8)
    nearest_hits: dict[str, int] = {}
    gslb_hits: dict[str, int] = {}
    nearest_km, gslb_km = [], []
    for _ in range(_SCHEDULING_REQUESTS):
        user = CHINA_CITIES[
            int(rng.integers(0, len(CHINA_CITIES)))].location
        n = nearest.schedule(platform, app_id, user)
        nearest_hits[n.vm_id] = nearest_hits.get(n.vm_id, 0) + 1
        nearest_km.append(n.distance_km)
        g = gslb.schedule(platform, app_id, user)
        gslb_hits[g.vm_id] = gslb_hits.get(g.vm_id, 0) + 1
        gslb_km.append(g.distance_km)
        load_state[g.vm_id] += 1.0 / _SCHEDULING_REQUESTS * 10

    hotspot_nearest = max(nearest_hits.values())
    hotspot_gslb = max(gslb_hits.values())
    detour = float(np.mean(gslb_km)) - float(np.mean(nearest_km))
    rows = [
        ("hottest VM (requests)", hotspot_nearest, hotspot_gslb),
        ("VMs serving traffic", len(nearest_hits), len(gslb_hits)),
        ("mean user-VM distance (km)", float(np.mean(nearest_km)),
         float(np.mean(gslb_km))),
    ]
    checks = (
        check_ordering("GSLB flattens the hotspot",
                       "hottest VM serves far fewer requests",
                       hotspot_gslb < 0.6 * hotspot_nearest,
                       f"{hotspot_nearest} -> {hotspot_gslb}"),
        check_ordering("GSLB engages more of the fleet",
                       "more VMs serve traffic",
                       len(gslb_hits) > len(nearest_hits),
                       f"{len(nearest_hits)} -> {len(gslb_hits)}"),
        check_ordering("the detour stays bounded",
                       "mean extra distance under the 300 km budget",
                       0 <= detour <= 300.0,
                       f"+{detour:.0f} km on average"),
    )
    table = format_table(["metric", "nearest-site", "load-aware GSLB"],
                         rows,
                         title=f"Ablation — request scheduling "
                               f"(app {app_id})")
    metrics = {
        "hotspot_requests_nearest": float(hotspot_nearest),
        "hotspot_requests_gslb": float(hotspot_gslb),
        "serving_vms_nearest": float(len(nearest_hits)),
        "serving_vms_gslb": float(len(gslb_hits)),
        "mean_detour_km": detour,
    }
    return AblationOutcome("scheduling", (table,), checks, metrics,
                           "Scheduling ablation")


def run_serverless_ablation(study) -> AblationOutcome:
    """Reserved-VM vs FaaS crossover over the daily duty cycle (§5)."""
    rng = study.scenario.random.stream("ablation-faas")
    results = {}
    for hours in _DUTY_HOURS:
        rate = np.zeros(48)
        windows = hours * 2  # half-hour windows
        rate[:windows] = 40.0
        results[hours] = compare_vm_vs_faas(
            rate, window_s=1800.0, spec=_FAAS_SPEC,
            vm_monthly_rmb=_VM_MONTHLY_RMB,
            vm_capacity_rps=_VM_CAPACITY_RPS, rng=rng)

    rows = [
        (hours, _VM_MONTHLY_RMB, r.faas_monthly_rmb,
         "FaaS" if r.faas_cheaper else "VM",
         r.faas_p95_latency_ms)
        for hours, r in results.items()
    ]
    faas_costs = [results[h].faas_monthly_rmb for h in _DUTY_HOURS]
    checks = [
        check_ordering("FaaS cost scales with duty cycle",
                       "monotone in active hours",
                       faas_costs == sorted(faas_costs),
                       " -> ".join(f"{c:.0f}" for c in faas_costs)),
        check_ordering("bursty apps favour FaaS",
                       "1-3 active hours/day cheaper on FaaS",
                       results[1].faas_cheaper and results[3].faas_cheaper,
                       f"1h: {results[1].faas_monthly_rmb:.0f} RMB, "
                       f"3h: {results[3].faas_monthly_rmb:.0f} RMB vs "
                       f"VM {_VM_MONTHLY_RMB:.0f}"),
        check_ordering("steady apps favour the reserved VM",
                       "24 active hours/day cheaper on the VM",
                       not results[24].faas_cheaper,
                       f"{results[24].faas_monthly_rmb:.0f} vs "
                       f"{_VM_MONTHLY_RMB:.0f} RMB"),
    ]
    # §5's latency caveat shows up on sparse traffic: with invocations
    # minutes apart, every request lands on an expired pool.
    sparse = compare_vm_vs_faas(
        np.full(48, 0.002), window_s=1800.0, spec=_FAAS_SPEC,
        vm_monthly_rmb=_VM_MONTHLY_RMB, vm_capacity_rps=_VM_CAPACITY_RPS,
        rng=rng, keep_alive_s=300.0)
    checks.append(check_ordering(
        "cold starts poison sparse-traffic latency",
        "FaaS p95 >> warm execution time (§5 caveat)",
        sparse.faas_p95_latency_ms > 3 * _FAAS_SPEC.exec_ms,
        f"p95 = {sparse.faas_p95_latency_ms:.0f} ms vs "
        f"{_FAAS_SPEC.exec_ms:.0f} ms warm "
        f"({sparse.faas_cold_start_fraction:.0%} cold)"))
    table = format_table(["active h/day", "VM (RMB/mo)", "FaaS (RMB/mo)",
                          "winner", "FaaS p95 (ms)"], rows,
                         title="Ablation — reserved VM vs serverless")
    metrics = {f"faas_rmb_{hours}h": results[hours].faas_monthly_rmb
               for hours in _DUTY_HOURS}
    metrics["sparse_faas_p95_ms"] = sparse.faas_p95_latency_ms
    return AblationOutcome("serverless", (table,), tuple(checks), metrics,
                           "Serverless ablation")


#: Ablation id -> runner, in the order the campaign reports them.
ABLATIONS: dict[str, Callable] = {
    "density": run_density_ablation,
    "growth": run_growth_ablation,
    "mec": run_mec_ablation,
    "placement": run_placement_ablation,
    "scheduling": run_scheduling_ablation,
    "serverless": run_serverless_ablation,
}
