"""Platform build-out simulation (§4.3's second imbalance driver).

The paper attributes part of NEP's across-site skew to growth: "as NEP
is still evolving rapidly, new sites are added to NEP frequently", so
young sites sit near-empty next to mature ones.  This module replays
that build-out: subscriptions arrive in epochs while the site inventory
expands, and each epoch's sales-rate snapshot shows the skew evolving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import Scenario
from ..errors import ConfigurationError, PlacementError
from ..geo.regions import CHINA_CITIES
from ..workload.subscription import sample_nep_spec
from .cluster import Platform
from .entities import App, Customer
from .nep import build_nep_platform
from .placement import NepPlacementPolicy, SubscriptionRequest


@dataclass(frozen=True)
class GrowthEpoch:
    """One epoch's state: active sites and their sales-rate snapshot."""

    index: int
    active_sites: int
    placed_vms: int
    #: CPU sales rate of every *active* site (loaded or not).
    site_cpu_rates: np.ndarray

    @property
    def skew(self) -> float:
        """P95/P5 across all active sites, floored (§4.1/§4.3 skew).

        Empty just-activated sites count: that a brand-new site has sold
        nothing *is* the growth-driven imbalance the paper describes.
        """
        if self.site_cpu_rates.size < 2:
            return 1.0
        hi = float(np.percentile(self.site_cpu_rates, 95))
        lo = max(float(np.percentile(self.site_cpu_rates, 5)), 1e-3)
        return max(hi, 1e-3) / lo


@dataclass
class GrowthResult:
    """Outcome of a build-out simulation."""

    platform: Platform
    epochs: list[GrowthEpoch] = field(default_factory=list)
    #: site_id -> the epoch at which the site went live (0 = day one).
    activation_epoch: dict[str, int] = field(default_factory=dict)
    #: Subscriptions that found no feasible capacity during the replay.
    unplaced_requests: int = 0

    @property
    def final_skew(self) -> float:
        return self.epochs[-1].skew

    def rate_by_activation_epoch(self) -> dict[int, float]:
        """Mean final CPU sales rate of sites grouped by activation epoch.

        The §4.3 growth signature: sites that went live early have sold
        more than late arrivals.
        """
        rates: dict[int, list[float]] = {}
        for site in self.platform.sites:
            epoch = self.activation_epoch[site.site_id]
            rates.setdefault(epoch, []).append(site.cpu_sales_rate())
        return {epoch: float(np.mean(values))
                for epoch, values in sorted(rates.items())}


def simulate_growth(scenario: Scenario, epochs: int = 8,
                    initial_fraction: float = 0.3,
                    requests_per_epoch: int = 10,
                    rng: np.random.Generator | None = None) -> GrowthResult:
    """Replay NEP's build-out over ``epochs`` subscription waves.

    The platform starts with ``initial_fraction`` of its sites active;
    the remainder activate linearly across the epochs.  Every epoch
    places ``requests_per_epoch`` fresh subscriptions on the sites active
    *at that time* — which is exactly why mature sites end up fuller.

    Demand is geo-scoped: each subscription targets a population-weighted
    province, as the paper's customers do ("I need 10 virtual machines in
    Guangdong province").  Pass ``initial_fraction=1.0`` for the static
    (no-growth) baseline.

    Raises:
        ConfigurationError: on out-of-range parameters.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < initial_fraction <= 1.0:
        raise ConfigurationError(
            f"initial_fraction must be in (0, 1], got {initial_fraction}"
        )
    if requests_per_epoch < 1:
        raise ConfigurationError("requests_per_epoch must be >= 1")
    rng = rng if rng is not None else scenario.random.stream("growth")

    full = build_nep_platform(scenario,
                              rng=scenario.random.stream("growth-topo"))
    # Activation order is random: new NEP sites open wherever the next
    # ISP room deal lands, not in demand order.
    order = rng.permutation(len(full.sites))
    all_sites = [full.sites[int(i)] for i in order]
    initial = max(1, int(round(initial_fraction * len(all_sites))))

    province_pops: dict[str, float] = {}
    for c in CHINA_CITIES:
        province_pops[c.province] = (province_pops.get(c.province, 0.0)
                                     + c.population_m)

    platform = Platform(name=full.name, kind=full.kind)
    result = GrowthResult(platform=platform)
    for site in all_sites[:initial]:
        platform.add_site(site)
        result.activation_epoch[site.site_id] = 0

    policy = NepPlacementPolicy()
    unplaced = 0
    app_index = 0
    for epoch in range(epochs):
        # Activate this epoch's share of the remaining sites.
        target_active = initial + int(round(
            (len(all_sites) - initial) * (epoch + 1) / epochs))
        for site in all_sites[len(platform.sites):target_active]:
            platform.add_site(site)
            result.activation_epoch[site.site_id] = epoch

        provinces = sorted({s.province for s in platform.sites})
        weights = np.array([province_pops.get(p, 0.1) for p in provinces])
        weights = weights / weights.sum()
        for _ in range(requests_per_epoch):
            customer = Customer(f"g-c{app_index:04d}", f"cust-{app_index}")
            platform.register_customer(customer)
            app = App(f"g-a{app_index:04d}", customer.customer_id,
                      "live_streaming", f"img-{app_index}")
            platform.register_app(app)
            province = provinces[int(rng.choice(len(provinces), p=weights))]
            request = SubscriptionRequest(
                customer_id=customer.customer_id, app_id=app.app_id,
                image_id=app.image_id, spec=sample_nep_spec(rng),
                vm_count=int(rng.integers(1, 6)), province=province,
            )
            try:
                policy.place(platform, request)
            except PlacementError:
                unplaced += 1
            app_index += 1

        result.epochs.append(GrowthEpoch(
            index=epoch,
            active_sites=len(platform.sites),
            placed_vms=len(platform.vms),
            site_cpu_rates=np.array(platform.site_cpu_sales_rates()),
        ))
    result.unplaced_requests = unplaced
    platform.validate()
    return result
