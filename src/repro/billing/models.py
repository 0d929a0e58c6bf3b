"""Pricing primitives shared by the NEP / AliCloud / Huawei billing engines.

All prices are RMB and come from Table 5 of the paper.  Hardware package
prices are published as bundles (e.g. AliCloud 2C+8G = 240/month); the
per-unit rates below are linear fits to those bundles, documented next to
each constant.  Bandwidth billing differs per provider and is implemented
in the provider modules; this module holds the shared tier math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BillingError

HOURS_PER_MONTH = 24 * 30
SECONDS_PER_MONTH = HOURS_PER_MONTH * 3600


@dataclass(frozen=True)
class HardwareRates:
    """Linear per-unit hardware rates (RMB per month)."""

    cpu_per_core: float
    memory_per_gb: float
    disk_per_gb: float

    def monthly_cost(self, cpu_cores: float, memory_gb: float,
                     disk_gb: float) -> float:
        """Monthly hardware bill for one VM's subscription."""
        if min(cpu_cores, memory_gb, disk_gb) < 0:
            raise BillingError("negative hardware subscription")
        return (self.cpu_per_core * cpu_cores
                + self.memory_per_gb * memory_gb
                + self.disk_per_gb * disk_gb)


#: NEP: 65/CPU, 20/GB memory, 0.35/GB SSD (Table 5, bottom row).
NEP_HARDWARE = HardwareRates(cpu_per_core=65.0, memory_per_gb=20.0,
                             disk_per_gb=0.35)

#: AliCloud fit: 2C+8G=240 and 2C+16G=318 give 9.75/GB memory and
#: 80.5/core; storage is 1/GB.
ALICLOUD_HARDWARE = HardwareRates(cpu_per_core=80.5, memory_per_gb=9.75,
                                  disk_per_gb=1.0)

#: Huawei fit from 2C+4G=152.2 and 2C+8G=251.6: 24.85/GB memory and
#: ~26.4/core; storage 0.7/GB.
HUAWEI_HARDWARE = HardwareRates(cpu_per_core=26.4, memory_per_gb=24.85,
                                disk_per_gb=0.7)


@dataclass(frozen=True)
class TieredRate:
    """Two-tier bandwidth rate: cheap below the knee, expensive above."""

    knee_mbps: float
    below_rate: float
    above_rate: float

    def cost(self, mbps: float) -> float:
        """Cost at one instant/period for a peak of ``mbps``."""
        if mbps < 0:
            raise BillingError(f"negative bandwidth {mbps}")
        below = min(mbps, self.knee_mbps)
        above = max(0.0, mbps - self.knee_mbps)
        return below * self.below_rate + above * self.above_rate

    def total_cost(self, peaks_mbps: np.ndarray) -> float:
        """``sum(self.cost(float(p)) for p in peaks_mbps)``, bit for bit.

        The tier split runs in float64 numpy: each ``np.where`` keeps
        what the builtin ``min``/``max`` keep (their first argument
        unless the second compares strictly less/greater, so a NaN peak
        costs NaN below the knee and nothing above it), and the builtin
        ``sum`` adds the per-peak costs left to right.

        Raises:
            BillingError: on a negative peak (the first one).
        """
        peaks = np.asarray(peaks_mbps, dtype=np.float64)
        negative = peaks < 0
        if negative.any():
            raise BillingError(
                f"negative bandwidth {float(peaks[negative.argmax()])}")
        below = np.where(self.knee_mbps < peaks, self.knee_mbps, peaks)
        excess = peaks - self.knee_mbps
        above = np.where(excess > 0.0, excess, 0.0)
        return sum((below * self.below_rate
                    + above * self.above_rate).tolist())


#: Cloud pre-reserved fixed bandwidth: 23/Mbps/month below 5 Mbps then
#: 80/Mbps/month (both AliCloud and Huawei quote the same tiers).
CLOUD_PRERESERVED_MONTHLY = TieredRate(knee_mbps=5.0, below_rate=23.0,
                                       above_rate=80.0)

#: AliCloud on-demand by bandwidth: 0.063/Mbps/hour below 5, 0.248 above.
ALICLOUD_ON_DEMAND_HOURLY = TieredRate(knee_mbps=5.0, below_rate=0.063,
                                       above_rate=0.248)

#: Huawei on-demand by bandwidth: same low tier, 0.25 above.
HUAWEI_ON_DEMAND_HOURLY = TieredRate(knee_mbps=5.0, below_rate=0.063,
                                     above_rate=0.25)

#: Both clouds charge 0.8 RMB/GB for on-demand by traffic quantity.
CLOUD_PER_GB = 0.8

#: NEP bandwidth unit price range across (city, ISP): 15-50/Mbps/month
#: (Table 5: telecom 25-50, CMCC 15-30, varying by city).
NEP_BANDWIDTH_UNIT_RANGE = (15.0, 50.0)


@dataclass(frozen=True)
class BillingBreakdown:
    """One app's monthly bill split into hardware and network."""

    provider: str
    network_model: str
    hardware_rmb: float
    network_rmb: float

    @property
    def total_rmb(self) -> float:
        return self.hardware_rmb + self.network_rmb

    @property
    def network_share(self) -> float:
        total = self.total_rmb
        if total == 0.0:
            return 0.0
        return self.network_rmb / total


def series_to_hourly_peaks(series_mbps: np.ndarray,
                           points_per_hour: int) -> np.ndarray:
    """Collapse a bandwidth series to per-hour peaks (cloud billing).

    Raises:
        BillingError: if the series is not a whole number of hours.
    """
    if points_per_hour < 1:
        raise BillingError(
            f"points_per_hour must be >= 1, got {points_per_hour}"
        )
    if series_mbps.size % points_per_hour:
        raise BillingError(
            f"{series_mbps.size} points is not a whole number of "
            f"{points_per_hour}-point hours"
        )
    return series_mbps.reshape(-1, points_per_hour).max(axis=1)


def series_to_daily_peaks(series_mbps: np.ndarray,
                          points_per_day: int) -> np.ndarray:
    """Collapse a bandwidth series to per-day peaks (NEP billing).

    Raises:
        BillingError: if the series is not a whole number of days.
    """
    if points_per_day < 1:
        raise BillingError(f"points_per_day must be >= 1, got {points_per_day}")
    if series_mbps.size % points_per_day:
        raise BillingError(
            f"{series_mbps.size} points is not a whole number of "
            f"{points_per_day}-point days"
        )
    return series_mbps.reshape(-1, points_per_day).max(axis=1)


def traffic_gb(series_mbps: np.ndarray, interval_minutes: int) -> float:
    """Total traffic in GB moved by a bandwidth series."""
    if interval_minutes <= 0:
        raise BillingError(
            f"interval must be positive, got {interval_minutes}"
        )
    megabits = float(series_mbps.sum()) * interval_minutes * 60.0
    return megabits / 8.0 / 1000.0
