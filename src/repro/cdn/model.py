"""Analytic edge-cache model: Zipf popularity + Che-approximation LRU.

Instead of replaying per-request cache state (hopeless at a million
concurrent sessions), each NEP site gets an *analytic* hit ratio:

* object popularity at a site is Zipf with a per-site skew drawn from a
  seeded scenario substream (sites differ — a campus site and a
  residential site do not watch the same tail);
* an LRU cache of ``C`` objects under Poisson arrivals is solved with
  the Che approximation — find the characteristic time ``T_c`` where
  the expected number of objects referenced within ``T_c`` equals the
  capacity, then each object's hit ratio is ``1 - exp(-lambda_i T_c)``;
* a fixed-TTL cache short-circuits the solve: the characteristic time
  *is* the TTL.

Hit and miss latencies come from the existing :mod:`repro.netsim`
routes — a hit is served at nearest-edge RTT, a miss pays the edge leg
plus the edge-to-origin backbone detour, and the no-CDN baseline talks
to the cloud origin directly — so the CDN model stays endogenous to the
same simulated network as Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import cached_property

import numpy as np

from ..config import Scenario
from ..errors import ConfigurationError
from ..geo.regions import city
from ..measurement.qoe.testbed import EXPERIMENT_CITY, _displace
from ..netsim.access import AccessType
from ..netsim.latency import LatencyModel
from ..netsim.path import HopKind
from ..netsim.routing import TargetSiteSpec, UESpec, build_route

#: Origin distance (km): the miss path detours to a far cloud region,
#: matching the testbed's "Cloud-2" placement (§3.3).
ORIGIN_DISTANCE_KM = 1300.0

#: Nearest-edge distance (km), matching the testbed's edge VM.
EDGE_DISTANCE_KM = 25.0

#: Commercial origin traffic rides premium carrier paths — the same
#: inflation discount the QoE testbed applies to its cloud VMs.
PREMIUM_BACKBONE_FACTOR = 0.6

#: Per-site Zipf-skew jitter band: a site's alpha is the scenario's
#: ``qoe_zipf_alpha`` scaled by a uniform draw from this interval.
SITE_ALPHA_JITTER = (0.75, 1.25)

#: Per-site mean request rate (requests/s) behind the TTL model; the
#: realised rate is scaled by a per-site lognormal factor.  Small edge
#: sites see modest per-object demand, which keeps the TTL hit ratio
#: sensitive to the TTL knob instead of saturating at 1.
SITE_REQUEST_RATE_HZ = 2.0

#: One cached object ~ a few seconds of 1080p video (MB).
OBJECT_MB = 4.0

#: Sites solved per vectorised Newton block (bounds the two
#: ``(sites, catalog)`` buffers at city-tier site counts).
SOLVER_SITE_BLOCK = 256

#: Bisection iterations: 2^-48 relative interval is far below the hit
#: ratios' meaningful precision.
SOLVER_ITERATIONS = 48


def zipf_weights(catalog: int, alpha: float) -> np.ndarray:
    """Normalised Zipf popularity over a catalog of ``catalog`` objects.

    Raises:
        ConfigurationError: on a non-positive catalog size or skew.
    """
    if catalog <= 0:
        raise ConfigurationError(
            f"catalog size must be positive, got {catalog}")
    if alpha <= 0:
        raise ConfigurationError(f"zipf alpha must be positive, got {alpha}")
    ranks = np.arange(1, catalog + 1, dtype=np.float64)
    weights = ranks ** -alpha
    return weights / weights.sum()


def che_characteristic_time(rates: np.ndarray, capacity: float) -> float:
    """Solve the Che approximation for one cache: find ``T_c``.

    ``T_c`` satisfies ``sum_i(1 - exp(-rate_i * T_c)) == capacity`` —
    the expected number of distinct objects requested within a
    characteristic time equals the cache's object capacity.  The
    left-hand side is monotone in ``T_c``, so bisection converges
    unconditionally.

    Raises:
        ConfigurationError: when the capacity is not positive or not
            smaller than the catalog (a cache that fits everything has
            no characteristic time — the hit ratio is simply 1).
    """
    rates = np.asarray(rates, dtype=np.float64)
    if capacity <= 0:
        raise ConfigurationError(
            f"cache capacity must be positive, got {capacity}")
    if capacity >= rates.size:
        raise ConfigurationError(
            f"capacity {capacity} >= catalog {rates.size}; the Che "
            f"solve needs a cache smaller than the catalog")
    lo, hi = 0.0, 1.0
    while np.sum(1.0 - np.exp(-rates * hi)) < capacity:
        hi *= 2.0
    for _ in range(SOLVER_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if np.sum(1.0 - np.exp(-rates * mid)) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lru_hit_ratio_curve(alphas: np.ndarray, catalog: int,
                        capacity: float) -> np.ndarray:
    """Request-weighted LRU hit ratio per site, one Zipf skew per site.

    The Che fixed point depends on the request rates only through the
    popularity *weights* (scaling every rate scales ``T_c`` inversely),
    so per-site hit ratios are solved over normalised weights directly.
    Sites are processed in :data:`SOLVER_SITE_BLOCK` blocks and each
    block is solved with a vectorised Newton iteration: the occupancy
    ``f(x) = sum_i(1 - exp(-w_i x))`` is concave and increasing, so
    Newton started below the root converges monotonically (no bracket
    or damping needed) and one ``exp`` per iteration serves both the
    value and the derivative — about 5x fewer catalog-wide ``exp``
    sweeps than a fixed-width bisection at a 500-site fleet.

    Returns an array of per-site hit ratios in ``[0, 1)``; a capacity
    at or above the catalog returns all-ones (everything fits).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if capacity >= catalog:
        return np.ones_like(alphas)
    ranks = np.arange(1, catalog + 1, dtype=np.float64)
    out = np.empty(alphas.size, dtype=np.float64)
    for start in range(0, alphas.size, SOLVER_SITE_BLOCK):
        block = alphas[start:start + SOLVER_SITE_BLOCK]
        weights = ranks[None, :] ** -block[:, None]
        weights /= weights.sum(axis=1, keepdims=True)
        # Two (sites, catalog) buffers serve every iteration: fresh
        # temporaries of that size cost more in page faults than the
        # arithmetic.  weights * -x equals -weights * x bit for bit.
        decay = np.empty_like(weights)
        scratch = np.empty_like(weights)
        # f(x) <= x * f'(0) = x (weights sum to 1), so f(C) <= C: the
        # capacity itself is a starting point at or below the root.
        x = np.full(block.size, float(capacity))
        for _ in range(SOLVER_ITERATIONS):
            np.exp(np.multiply(weights, -x[:, None], out=decay), out=decay)
            filled = np.sum(np.subtract(1.0, decay, out=scratch), axis=1)
            slope = np.sum(np.multiply(weights, decay, out=scratch), axis=1)
            step = (capacity - filled) / slope
            x = x + step
            if float(np.max(np.abs(step))) <= 1e-12 * float(np.min(x)):
                break
        np.exp(np.multiply(weights, -x[:, None], out=decay), out=decay)
        hits = np.subtract(1.0, decay, out=decay)
        out[start:start + SOLVER_SITE_BLOCK] = np.sum(
            np.multiply(weights, hits, out=scratch), axis=1)
    return out


def ttl_hit_ratios(rates: np.ndarray, ttl_s: float) -> np.ndarray:
    """Per-object hit ratios of a reset-on-access TTL cache.

    Under Poisson arrivals an object is a hit whenever its inter-request
    gap stays inside the TTL: ``1 - exp(-rate_i * ttl)`` — the Che form
    with the characteristic time pinned to the TTL.

    Raises:
        ConfigurationError: on a non-positive TTL.
    """
    if ttl_s <= 0:
        raise ConfigurationError(f"ttl must be positive, got {ttl_s}")
    rates = np.asarray(rates, dtype=np.float64)
    return 1.0 - np.exp(-rates * ttl_s)


@dataclass(frozen=True)
class CdnLatencies:
    """Mean RTTs (ms) of the three request outcomes the sessions see."""

    hit_rtt_ms: float    # served from the nearest edge site's cache
    miss_rtt_ms: float   # edge leg + edge-to-origin detour
    cloud_rtt_ms: float  # no CDN: straight to the cloud origin


class CdnModel:
    """Per-NEP-site edge-cache hit ratios plus hit/miss path latencies.

    Everything derives from the scenario: the site count and cache
    knobs (``qoe_cache_mb``, ``qoe_catalog_objects``,
    ``qoe_zipf_alpha``, ``qoe_cache_eviction``, ``qoe_cache_ttl_s``)
    shape the hit ratios, and the seeded ``cdn-sites`` / ``cdn-paths``
    substreams make two models of the same scenario identical.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._origin = city(EXPERIMENT_CITY).location
        self._site_rng = scenario.random.stream("cdn-sites")
        self._path_rng = scenario.random.stream("cdn-paths")

    @property
    def capacity_objects(self) -> float:
        """Cache capacity in objects (``qoe_cache_mb`` / object size)."""
        return self.scenario.qoe_cache_mb / OBJECT_MB

    @cached_property
    def site_alphas(self) -> np.ndarray:
        """Per-site Zipf skew: the scenario alpha with seeded jitter."""
        lo, hi = SITE_ALPHA_JITTER
        jitter = self._site_rng.uniform(lo, hi,
                                        self.scenario.nep_site_count)
        return self.scenario.qoe_zipf_alpha * jitter

    @cached_property
    def site_request_rates_hz(self) -> np.ndarray:
        """Per-site total request rate (requests/s), seeded lognormal."""
        spread = self._site_rng.lognormal(
            mean=0.0, sigma=0.6, size=self.scenario.nep_site_count)
        return SITE_REQUEST_RATE_HZ * spread

    @cached_property
    def site_hit_ratios(self) -> np.ndarray:
        """Request-weighted cache hit ratio per NEP site, in ``[0, 1]``."""
        catalog = self.scenario.qoe_catalog_objects
        if self.scenario.qoe_cache_eviction == "lru":
            return lru_hit_ratio_curve(self.site_alphas, catalog,
                                       self.capacity_objects)
        ratios = np.empty(self.scenario.nep_site_count)
        for index, (alpha, rate) in enumerate(
                zip(self.site_alphas, self.site_request_rates_hz)):
            weights = zipf_weights(catalog, float(alpha))
            hits = ttl_hit_ratios(rate * weights,
                                  float(self.scenario.qoe_cache_ttl_s))
            ratios[index] = float(np.sum(weights * hits))
        return ratios

    def _route_rtt_ms(self, distance_km: float, is_edge: bool,
                      label: str, pings: int = 50) -> float:
        """Mean RTT over a freshly built UE -> target route."""
        ue = UESpec(label="cdn-ue", location=self._origin,
                    access=AccessType.WIFI)
        target = TargetSiteSpec(
            label=label,
            location=_displace(self._origin, distance_km, 200.0),
            is_edge=is_edge)
        route = build_route(ue, target, self._path_rng)
        if not is_edge:
            hops = tuple(
                h.replace(mean_rtt_ms=h.mean_rtt_ms
                          * PREMIUM_BACKBONE_FACTOR)
                if h.kind is HopKind.BACKBONE else h
                for h in route.hops)
            route = dc_replace(route, hops=hops)
        model = LatencyModel(self._path_rng)
        return float(model.sample_many(route, pings).mean())

    @cached_property
    def latencies(self) -> CdnLatencies:
        """The three request-outcome RTTs, drawn from netsim routes.

        A miss is served *through* the edge site: the viewer still talks
        to the edge front-end, which fetches from the origin over the
        backbone — so the miss RTT is the edge RTT plus the origin
        detour (minus the origin path's own access leg, which the
        detour does not traverse twice).
        """
        edge_rtt = self._route_rtt_ms(EDGE_DISTANCE_KM, True, "cdn-edge")
        cloud_rtt = self._route_rtt_ms(ORIGIN_DISTANCE_KM, False,
                                       "cdn-origin")
        access_rtt = 2.0 * sum(
            h.mean_rtt_ms
            for h in UESpec(label="cdn-ue", location=self._origin,
                            access=AccessType.WIFI).profile.hops)
        detour = max(cloud_rtt - access_rtt, 0.0)
        return CdnLatencies(
            hit_rtt_ms=edge_rtt,
            miss_rtt_ms=edge_rtt + detour,
            cloud_rtt_ms=cloud_rtt,
        )
