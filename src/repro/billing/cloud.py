"""Cloud billing engines: AliCloud (vCloud-1) and Huawei (vCloud-2).

Each supports the three network billing models of Table 5:

* ``on-demand-by-bandwidth`` — per hour, the hour's peak bandwidth is
  charged at tiered hourly rates (the cheapest option for most apps);
* ``on-demand-by-quantity`` — flat 0.8 RMB per GB moved;
* ``pre-reserved`` — a fixed monthly price for bandwidth reserved at the
  month's peak (tiered 23/80 per Mbps).

Hardware uses the per-unit fits documented in :mod:`repro.billing.models`.
Costs observed over a shorter trace are normalised to a 30-day month.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import BillingError
from .models import (
    ALICLOUD_HARDWARE,
    ALICLOUD_ON_DEMAND_HOURLY,
    BillingBreakdown,
    CLOUD_PER_GB,
    CLOUD_PRERESERVED_MONTHLY,
    HUAWEI_HARDWARE,
    HUAWEI_ON_DEMAND_HOURLY,
    HardwareRates,
    TieredRate,
    series_to_hourly_peaks,
)
from .usage import AppUsage

DAYS_PER_MONTH = 30.0
HOURS_PER_MONTH = 24.0 * DAYS_PER_MONTH


class NetworkModel(enum.Enum):
    """The three cloud network billing models of Table 5."""

    ON_DEMAND_BANDWIDTH = "on-demand-by-bandwidth"
    ON_DEMAND_QUANTITY = "on-demand-by-quantity"
    PRE_RESERVED = "pre-reserved"


class CloudBilling:
    """Bills one app's monthly cost on a cloud provider."""

    def __init__(self, provider: str, hardware: HardwareRates,
                 hourly_rate: TieredRate,
                 prereserved_rate: TieredRate = CLOUD_PRERESERVED_MONTHLY,
                 per_gb: float = CLOUD_PER_GB) -> None:
        self.provider = provider
        self._hardware = hardware
        self._hourly = hourly_rate
        self._prereserved = prereserved_rate
        self._per_gb = per_gb

    def hardware_cost(self, usage: AppUsage) -> float:
        return sum(
            self._hardware.monthly_cost(hw.cpu_cores, hw.memory_gb,
                                        hw.disk_gb)
            for hw in usage.hardware
        )

    # ---- the three network models -----------------------------------------

    def _on_demand_bandwidth(self, usage: AppUsage) -> float:
        month_scale = HOURS_PER_MONTH / (usage.trace_days * 24.0)
        total = 0.0
        for series in usage.location_series.values():
            hourly = series_to_hourly_peaks(series, usage.points_per_hour)
            total += self._hourly.total_cost(hourly)
        return total * month_scale

    def _on_demand_quantity(self, usage: AppUsage) -> float:
        month_scale = DAYS_PER_MONTH / usage.trace_days
        return usage.total_traffic_gb() * self._per_gb * month_scale

    def _pre_reserved(self, usage: AppUsage) -> float:
        total = 0.0
        for series in usage.location_series.values():
            reserved_mbps = float(series.max())
            total += self._prereserved.cost(reserved_mbps)
        return total

    def network_cost(self, usage: AppUsage, model: NetworkModel) -> float:
        if model is NetworkModel.ON_DEMAND_BANDWIDTH:
            return self._on_demand_bandwidth(usage)
        if model is NetworkModel.ON_DEMAND_QUANTITY:
            return self._on_demand_quantity(usage)
        if model is NetworkModel.PRE_RESERVED:
            return self._pre_reserved(usage)
        raise BillingError(f"unknown network model {model!r}")

    def bill(self, usage: AppUsage, model: NetworkModel) -> BillingBreakdown:
        """The app's full monthly bill under one network model."""
        return BillingBreakdown(
            provider=self.provider,
            network_model=model.value,
            hardware_rmb=self.hardware_cost(usage),
            network_rmb=self.network_cost(usage, model),
        )


def alicloud_billing() -> CloudBilling:
    """vCloud-1: the AliCloud-priced virtual baseline."""
    return CloudBilling(provider="vCloud-1", hardware=ALICLOUD_HARDWARE,
                        hourly_rate=ALICLOUD_ON_DEMAND_HOURLY)


def huawei_billing() -> CloudBilling:
    """vCloud-2: the Huawei-priced virtual baseline."""
    return CloudBilling(provider="vCloud-2", hardware=HUAWEI_HARDWARE,
                        hourly_rate=HUAWEI_ON_DEMAND_HOURLY)
