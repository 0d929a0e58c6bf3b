"""Tests for the trace dataset container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.dataset import TraceDataset, merge_days
from repro.trace.schema import AppRecord, ServerRecord, SiteRecord, VMRecord


def _dataset(days=2, cpu_interval=30, bw_interval=30):
    ds = TraceDataset(platform_name="t", trace_days=days,
                      cpu_interval_minutes=cpu_interval,
                      bw_interval_minutes=bw_interval)
    ds.sites["s0"] = SiteRecord("s0", "n", "Beijing", "Beijing",
                                39.9, 116.4, 10_000.0)
    ds.servers["m0"] = ServerRecord("m0", "s0", 64, 256, 8000)
    ds.apps["a0"] = AppRecord("a0", "c0", "cdn", "img")
    return ds


def _record(vm_id="vm0", cores=8, mem=32):
    return VMRecord(vm_id=vm_id, app_id="a0", customer_id="c0",
                    site_id="s0", server_id="m0", city="Beijing",
                    province="Beijing", category="cdn", image_id="img",
                    os_type="linux", cpu_cores=cores, memory_gb=mem,
                    disk_gb=100, bandwidth_mbps=10.0)


class TestSchemaValidation:
    def test_bad_vm_capacity_rejected(self):
        with pytest.raises(TraceError):
            VMRecord(vm_id="v", app_id="a", customer_id="c", site_id="s",
                     server_id="m", city="x", province="x", category="cdn",
                     image_id="i", os_type="linux", cpu_cores=0,
                     memory_gb=4, disk_gb=0, bandwidth_mbps=0.0)

    def test_bad_server_capacity_rejected(self):
        with pytest.raises(TraceError):
            ServerRecord("m", "s", 0, 128, 100)


class TestAddVm:
    def test_add_and_lookup(self):
        ds = _dataset()
        cpu = np.full(ds.cpu_points, 0.25)
        bw = np.full(ds.bw_points, 5.0)
        ds.add_vm(_record(), cpu, bw)
        assert ds.mean_cpu("vm0") == pytest.approx(0.25)
        assert ds.vms_of_app("a0")[0].vm_id == "vm0"

    def test_duplicate_vm_rejected(self):
        ds = _dataset()
        cpu, bw = np.zeros(ds.cpu_points), np.zeros(ds.bw_points)
        ds.add_vm(_record(), cpu, bw)
        with pytest.raises(TraceError):
            ds.add_vm(_record(), cpu, bw)

    def test_wrong_cpu_length_rejected(self):
        ds = _dataset()
        with pytest.raises(TraceError):
            ds.add_vm(_record(), np.zeros(3), np.zeros(ds.bw_points))

    def test_wrong_bw_length_rejected(self):
        ds = _dataset()
        with pytest.raises(TraceError):
            ds.add_vm(_record(), np.zeros(ds.cpu_points), np.zeros(3))

    def test_cpu_out_of_range_rejected(self):
        ds = _dataset()
        bad = np.full(ds.cpu_points, 1.5)
        with pytest.raises(TraceError):
            ds.add_vm(_record(), bad, np.zeros(ds.bw_points))

    def test_negative_bw_rejected(self):
        ds = _dataset()
        with pytest.raises(TraceError):
            ds.add_vm(_record(), np.zeros(ds.cpu_points),
                      np.full(ds.bw_points, -1.0))


class TestAggregations:
    def test_p95_max_cpu(self):
        ds = _dataset()
        cpu = np.zeros(ds.cpu_points)
        cpu[-1] = 1.0
        ds.add_vm(_record(), cpu, np.zeros(ds.bw_points))
        assert 0.0 <= ds.p95_max_cpu("vm0") <= 1.0

    def test_cpu_cv_zero_for_idle(self):
        ds = _dataset()
        ds.add_vm(_record(), np.zeros(ds.cpu_points), np.zeros(ds.bw_points))
        assert ds.cpu_cv("vm0") == 0.0

    def test_server_cpu_usage_weighted_by_cores(self):
        ds = _dataset()
        ds.add_vm(_record("vm0", cores=8),
                  np.full(ds.cpu_points, 1.0), np.zeros(ds.bw_points))
        ds.add_vm(_record("vm1", cores=24),
                  np.zeros(ds.cpu_points), np.zeros(ds.bw_points))
        usage = ds.server_cpu_usage("m0")
        # Weighted: 8*1.0 / 32 cores = 0.25.
        assert usage.mean() == pytest.approx(0.25, rel=1e-5)

    def test_server_cpu_usage_empty_server(self):
        ds = _dataset()
        assert ds.server_cpu_usage("m0").sum() == 0.0

    def test_site_and_app_bandwidth_sum(self):
        ds = _dataset()
        ds.add_vm(_record("vm0"), np.zeros(ds.cpu_points),
                  np.full(ds.bw_points, 2.0))
        ds.add_vm(_record("vm1"), np.zeros(ds.cpu_points),
                  np.full(ds.bw_points, 3.0))
        assert ds.site_bandwidth("s0").mean() == pytest.approx(5.0)
        assert ds.app_bandwidth("a0").mean() == pytest.approx(5.0)
        assert ds.server_bandwidth("m0").mean() == pytest.approx(5.0)

    def test_unknown_app_rejected(self):
        with pytest.raises(TraceError):
            _dataset().vms_of_app("ghost")


class TestRowStats:
    """One memoised accessor: filled on first use, cleared by add_vm."""

    @staticmethod
    def _filled(n=3):
        ds = _dataset()
        rng = np.random.default_rng(5)
        for i in range(n):
            ds.add_vm(_record(f"vm{i}"), rng.random(ds.cpu_points),
                      rng.random(ds.bw_points) * 50)
        return ds

    def test_filled_on_first_use_and_memoised(self):
        ds = self._filled()
        stats = ds.row_stats()
        assert ds.row_stats() is stats
        assert stats.vm_ids == ("vm0", "vm1", "vm2")
        assert stats.cpu_means_by_vm() == {
            vm: ds.mean_cpu(vm) for vm in ds.vms}
        assert stats.cpu_p95s_by_vm() == {
            vm: ds.p95_max_cpu(vm) for vm in ds.vms}
        assert stats.cpu_cv() == [ds.cpu_cv(vm) for vm in ds.vms]
        assert stats.bw_totals_by_vm() == {
            vm: float(ds.bw_series[vm].sum()) for vm in ds.vms}

    def test_add_vm_invalidates(self):
        ds = self._filled()
        stale = ds.row_stats()
        ds.add_vm(_record("vm9"), np.full(ds.cpu_points, 0.5),
                  np.full(ds.bw_points, 2.0))
        fresh = ds.row_stats()
        assert fresh is not stale
        assert fresh.vm_ids[-1] == "vm9"
        assert fresh.cpu_means_by_vm()["vm9"] == 0.5

    def test_attached_stats_must_match_the_vm_table(self):
        ds = self._filled()
        other = self._filled(n=2).row_stats()
        with pytest.raises(TraceError, match="VM table"):
            ds.attach_row_stats(other)
        ds.attach_row_stats(self._filled().row_stats())
        assert ds.row_stats().vm_ids == ("vm0", "vm1", "vm2")


class TestValidate:
    def test_dangling_site_detected(self):
        ds = _dataset()
        record = VMRecord(vm_id="v", app_id="a0", customer_id="c",
                          site_id="ghost", server_id="m0", city="x",
                          province="x", category="cdn", image_id="i",
                          os_type="linux", cpu_cores=1, memory_gb=1,
                          disk_gb=0, bandwidth_mbps=0.0)
        ds.add_vm(record, np.zeros(ds.cpu_points), np.zeros(ds.bw_points))
        with pytest.raises(TraceError):
            ds.validate()

    def test_clean_dataset_passes(self):
        ds = _dataset()
        ds.add_vm(_record(), np.zeros(ds.cpu_points), np.zeros(ds.bw_points))
        ds.validate()


class TestMergeDays:
    def test_max_reducer(self):
        series = np.array([1, 5, 2, 8], dtype=float)
        assert merge_days(series, 2, "max").tolist() == [5, 8]

    def test_mean_reducer(self):
        series = np.array([1, 3, 2, 4], dtype=float)
        assert merge_days(series, 2, "mean").tolist() == [2, 3]

    def test_partial_day_rejected(self):
        with pytest.raises(TraceError):
            merge_days(np.zeros(5), 2)

    def test_unknown_reducer_rejected(self):
        with pytest.raises(TraceError):
            merge_days(np.zeros(4), 2, "median")
