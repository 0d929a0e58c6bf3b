"""Builders for centralised cloud platforms (AliCloud-like, Azure-like).

A cloud platform is the same :class:`~repro.platform.cluster.Platform`
container with the opposite shape: a handful of regions in the biggest
metros, each hosting many large servers ("a site in cloud computing often
hosts thousands or even millions of servers", §2 — scaled down by the
scenario but kept orders of magnitude above an edge site).
"""

from __future__ import annotations

import numpy as np

from ..config import Scenario
from ..geo.topology import place_cloud_regions
from .cluster import Platform
from .entities import PlatformKind, ResourceVector, Server, Site

#: Cloud regions run large, homogeneous fleets of big hosts.
CLOUD_SERVER_SKUS: tuple[tuple[ResourceVector, float], ...] = (
    (ResourceVector(64, 256, 16_000), 0.4),
    (ResourceVector(96, 384, 16_000), 0.4),
    (ResourceVector(128, 512, 32_000), 0.2),
)

#: Scaled-down servers per cloud region; still ~10x an average edge site.
DEFAULT_SERVERS_PER_REGION = 400

#: AliCloud's regions in China.
CLOUD_REGION_COUNT = 12


def build_cloud_platform(scenario: Scenario,
                         rng: np.random.Generator | None = None,
                         name: str = "vCloud",
                         region_count: int = CLOUD_REGION_COUNT,
                         servers_per_region: int = DEFAULT_SERVERS_PER_REGION,
                         ) -> Platform:
    """Construct an empty cloud platform with ``region_count`` regions."""
    rng = rng if rng is not None else scenario.random.stream(f"cloud-{name}")
    placements = place_cloud_regions(region_count, rng)
    platform = Platform(name=name, kind=PlatformKind.CLOUD)

    skus = [sku for sku, _ in CLOUD_SERVER_SKUS]
    weights = np.array([w for _, w in CLOUD_SERVER_SKUS])
    weights = weights / weights.sum()

    for index, placed in enumerate(placements):
        site_id = f"{name.lower()}-r{index:02d}"
        site = Site(
            site_id=site_id,
            name=f"{placed.city.name}-region",
            city=placed.city.name,
            province=placed.province,
            location=placed.location,
            gateway_bandwidth_mbps=1_000_000.0,  # effectively unconstrained
        )
        sku_idx = rng.choice(len(skus), size=servers_per_region, p=weights)
        for s_index in range(servers_per_region):
            site.servers.append(Server(
                server_id=f"{site_id}-m{s_index:04d}",
                site_id=site_id,
                capacity=skus[int(sku_idx[s_index])],
            ))
        platform.add_site(site)
    return platform
