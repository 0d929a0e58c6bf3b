"""The controlled QoE testbed of §3.3: one edge VM, three cloud VMs.

The paper placed the gaming/streaming backend on the nearest edge VM and
on three cloud VMs 670 / 1300 / 2000 km away, then measured from four
spots in one city over WiFi/LTE/5G.  Table 6 records the resulting RTTs.

Here the four VMs are synthesised at the same distances from the
experiment city and their RTTs come out of :mod:`repro.netsim`, so the
QoE results are fully endogenous to the simulation (the Table 6 bench
then compares the simulated RTTs against the paper's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ...errors import MeasurementError
from ...geo.coords import GeoPoint
from ...geo.regions import city
from ...netsim.access import AccessType, access_profile
from ...netsim.latency import LatencyModel
from ...netsim.path import HopKind
from ...netsim.routing import TargetSiteSpec, UESpec, build_route

#: The four backend VMs: (label, distance from the UE in km, is_edge).
VM_PLACEMENTS: tuple[tuple[str, float, bool], ...] = (
    ("Edge", 25.0, True),
    ("Cloud-1", 670.0, False),
    ("Cloud-2", 1300.0, False),
    ("Cloud-3", 2000.0, False),
)

#: Paper's Table 6 (ms), for reference/benchmark comparison.
PAPER_TABLE6_RTT_MS = {
    AccessType.WIFI: {"Edge": 11.4, "Cloud-1": 16.6, "Cloud-2": 40.9,
                      "Cloud-3": 55.1},
    AccessType.LTE: {"Edge": 22.2, "Cloud-1": 25.6, "Cloud-2": 54.6,
                     "Cloud-3": 63.2},
    AccessType.FIVE_G: {"Edge": 18.1, "Cloud-1": 22.8, "Cloud-2": 49.5,
                        "Cloud-3": 60.8},
}

EXPERIMENT_CITY = "Beijing"


@dataclass(frozen=True)
class TestbedVM:
    """One backend VM of the QoE experiment."""

    label: str
    distance_km: float
    is_edge: bool
    location: GeoPoint


def _displace(origin: GeoPoint, distance_km: float,
              bearing_deg: float) -> GeoPoint:
    """A point roughly ``distance_km`` from ``origin`` along ``bearing``."""
    km_per_deg_lat = 111.0
    km_per_deg_lon = 111.0 * math.cos(math.radians(origin.lat))
    d_lat = distance_km * math.cos(math.radians(bearing_deg)) / km_per_deg_lat
    d_lon = distance_km * math.sin(math.radians(bearing_deg)) / km_per_deg_lon
    return origin.jitter(d_lat, d_lon)


class QoETestbed:
    """Builds the four-VM testbed and measures RTTs and link capacities."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._origin = city(EXPERIMENT_CITY).location
        bearing = 200.0  # south-west, into mainland China
        self.vms: tuple[TestbedVM, ...] = tuple(
            TestbedVM(
                label=label,
                distance_km=distance,
                is_edge=is_edge,
                location=_displace(self._origin, distance, bearing),
            )
            for label, distance, is_edge in VM_PLACEMENTS
        )

    def vm(self, label: str) -> TestbedVM:
        for vm in self.vms:
            if vm.label == label:
                return vm
        raise MeasurementError(f"unknown testbed VM {label!r}")

    #: Commercial cloud VMs ride premium carrier paths with much lower
    #: inflation than the public backbone — without this, Table 6's small
    #: cloud RTTs (16.6 ms at 670 km) are unreachable.
    PREMIUM_BACKBONE_FACTOR = 0.6

    def measure_rtt_ms(self, access: AccessType, vm_label: str,
                       pings: int = 30) -> float:
        """Mean RTT from the experiment spot to one backend VM."""
        vm = self.vm(vm_label)
        ue = UESpec(label="qoe-ue", location=self._origin, access=access)
        route = build_route(
            ue,
            TargetSiteSpec(label=vm.label, location=vm.location,
                           is_edge=vm.is_edge),
            self._rng,
        )
        if not vm.is_edge:
            hops = tuple(
                h.replace(mean_rtt_ms=h.mean_rtt_ms
                          * self.PREMIUM_BACKBONE_FACTOR)
                if h.kind is HopKind.BACKBONE else h
                for h in route.hops
            )
            route = replace(route, hops=hops)
        model = LatencyModel(self._rng)
        return float(model.sample_many(route, pings).mean())

    def rtt_table(self, pings: int = 30) -> dict[AccessType, dict[str, float]]:
        """The full simulated Table 6: access type x backend VM."""
        return {
            access: {vm.label: self.measure_rtt_ms(access, vm.label, pings)
                     for vm in self.vms}
            for access in (AccessType.WIFI, AccessType.LTE, AccessType.FIVE_G)
        }

    def link_capacities_mbps(self, access: AccessType) -> tuple[float, float]:
        """(downlink, uplink) capacities for the experiment location."""
        profile = access_profile(access)
        return (profile.sample_downlink_capacity_mbps(self._rng),
                profile.sample_uplink_capacity_mbps(self._rng))
