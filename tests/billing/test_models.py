"""Tests for pricing primitives (Table 5)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.billing.models import (
    ALICLOUD_HARDWARE,
    ALICLOUD_ON_DEMAND_HOURLY,
    HUAWEI_ON_DEMAND_HOURLY,
    CLOUD_PRERESERVED_MONTHLY,
    NEP_HARDWARE,
    TieredRate,
    series_to_daily_peaks,
    series_to_hourly_peaks,
    traffic_gb,
)
from repro.errors import BillingError


class TestHardwareRates:
    def test_nep_rates_match_table5(self):
        # Table 5: NEP charges 65/CPU/month, 20/GB/month, 0.35/GB storage.
        cost = NEP_HARDWARE.monthly_cost(8, 32, 100)
        assert cost == pytest.approx(8 * 65 + 32 * 20 + 100 * 0.35)

    def test_alicloud_fit_reproduces_published_bundles(self):
        # 2C+8G = 240/month and 2C+16G = 318/month in Table 5.
        assert ALICLOUD_HARDWARE.monthly_cost(2, 8, 0) == pytest.approx(
            240, rel=0.02)
        assert ALICLOUD_HARDWARE.monthly_cost(2, 16, 0) == pytest.approx(
            318, rel=0.02)

    def test_nep_hardware_pricier_than_alicloud(self):
        # §4.5: NEP charges 3%-20% more for hardware.
        nep = NEP_HARDWARE.monthly_cost(8, 32, 0)
        ali = ALICLOUD_HARDWARE.monthly_cost(8, 32, 0)
        assert 1.0 < nep / ali < 1.35

    def test_negative_subscription_rejected(self):
        with pytest.raises(BillingError):
            NEP_HARDWARE.monthly_cost(-1, 4, 0)


class TestTieredRate:
    def test_below_knee(self):
        rate = TieredRate(knee_mbps=5, below_rate=23, above_rate=80)
        assert rate.cost(2.0) == pytest.approx(46.0)  # Table 5 example

    def test_above_knee(self):
        # Table 5: 7 Mbps pre-reserved = 23*5 + 2*80 = 275.
        assert CLOUD_PRERESERVED_MONTHLY.cost(7.0) == pytest.approx(275.0)

    def test_hourly_example_from_table5(self):
        # 2 Mbps on-demand: (24*30) * (2*0.063) = 90.72/month.
        monthly = 24 * 30 * ALICLOUD_ON_DEMAND_HOURLY.cost(2.0)
        assert monthly == pytest.approx(90.72)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(BillingError):
            CLOUD_PRERESERVED_MONTHLY.cost(-1.0)


_KNEE = ALICLOUD_ON_DEMAND_HOURLY.knee_mbps

#: Peaks on and around the tier edges.
_EDGE_PEAKS = (0.0, -0.0, _KNEE, math.nextafter(_KNEE, 0.0),
               math.nextafter(_KNEE, math.inf), 1e300, math.inf, math.nan)


def _fold(rate, peaks):
    """The scalar fold ``total_cost`` replaces."""
    return sum(rate.cost(float(p)) for p in peaks)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


class TestTotalCost:
    """``TieredRate.total_cost`` is the scalar ``cost`` fold, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([ALICLOUD_ON_DEMAND_HOURLY,
                            HUAWEI_ON_DEMAND_HOURLY,
                            CLOUD_PRERESERVED_MONTHLY]),
           st.lists(st.one_of(st.sampled_from(_EDGE_PEAKS),
                              st.floats(0.0, 1e300),
                              st.floats(0.0, 2 * _KNEE)), max_size=60))
    @example(ALICLOUD_ON_DEMAND_HOURLY, list(_EDGE_PEAKS))
    @example(ALICLOUD_ON_DEMAND_HOURLY, [])
    def test_equals_the_scalar_fold(self, rate, peaks):
        array = np.array(peaks, dtype=np.float64)
        assert _same_float(rate.total_cost(array), _fold(rate, array))

    def test_float32_peaks(self):
        peaks = np.array([0.5, 4.9999, 5.0, 5.0001, 70.25], dtype=np.float32)
        rate = ALICLOUD_ON_DEMAND_HOURLY
        assert rate.total_cost(peaks) == _fold(rate, peaks)

    def test_negative_peak_raises_like_the_fold(self):
        rate = ALICLOUD_ON_DEMAND_HOURLY
        peaks = np.array([1.0, -0.5, -2.0])
        with pytest.raises(BillingError) as scalar:
            _fold(rate, peaks)
        with pytest.raises(BillingError) as vector:
            rate.total_cost(peaks)
        assert str(vector.value) == str(scalar.value)


class TestSeriesReductions:
    def test_hourly_peaks(self):
        series = np.array([1, 9, 2, 3], dtype=float)
        assert series_to_hourly_peaks(series, 2).tolist() == [9, 3]

    def test_daily_peaks(self):
        series = np.arange(8, dtype=float)
        assert series_to_daily_peaks(series, 4).tolist() == [3, 7]

    def test_partial_hour_rejected(self):
        with pytest.raises(BillingError):
            series_to_hourly_peaks(np.zeros(5), 2)

    def test_partial_day_rejected(self):
        with pytest.raises(BillingError):
            series_to_daily_peaks(np.zeros(5), 2)

    def test_traffic_gb_known_value(self):
        # 8 Mbps sustained for one hour = 3.6 GB.
        series = np.full(12, 8.0)  # 12 x 5-minute readings
        assert traffic_gb(series, 5) == pytest.approx(3.6)

    def test_traffic_bad_interval_rejected(self):
        with pytest.raises(BillingError):
            traffic_gb(np.zeros(4), 0)
