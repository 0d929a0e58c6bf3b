"""Failure injection: corrupted state and inputs must fail loudly.

The library's contract is that deliberate failures surface as
:class:`~repro.errors.ReproError` subclasses with actionable messages —
never silent wrong answers, never raw ``KeyError``/``IndexError`` from
internals.
"""

import json

import numpy as np
import pytest

from repro.errors import ReproError, TraceError
from repro.trace.io import load_dataset, save_dataset


class TestCorruptedTraceOnDisk:
    def test_missing_meta_rejected(self, nep_dataset, tmp_path):
        root = save_dataset(nep_dataset, tmp_path / "t")
        (root / "meta.json").unlink()
        with pytest.raises(TraceError):
            load_dataset(root)

    def test_truncated_series_detected(self, nep_dataset, tmp_path):
        root = save_dataset(nep_dataset, tmp_path / "t")
        # Corrupt the metadata so every stored series has the wrong length.
        meta = json.loads((root / "meta.json").read_text())
        meta["trace_days"] += 1
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(TraceError):
            load_dataset(root)

    def test_vm_with_missing_series_detected(self, nep_dataset, tmp_path):
        root = save_dataset(nep_dataset, tmp_path / "t")
        # Drop one VM's series from the NPZ archives.
        victim = nep_dataset.vm_ids()[0]
        for name in ("cpu.npz", "bw.npz"):
            with np.load(root / name) as npz:
                arrays = {k: npz[k] for k in npz.files if k != victim}
            np.savez_compressed(root / name, **arrays)
        with pytest.raises((TraceError, KeyError)):
            load_dataset(root)

    def test_dangling_vm_reference_detected(self, nep_dataset, tmp_path):
        root = save_dataset(nep_dataset, tmp_path / "t")
        # Point one VM at a site that doesn't exist.
        vms_csv = (root / "vms.csv").read_text().splitlines()
        header = vms_csv[0].split(",")
        site_col = header.index("site_id")
        fields = vms_csv[1].split(",")
        fields[site_col] = "ghost-site"
        vms_csv[1] = ",".join(fields)
        (root / "vms.csv").write_text("\n".join(vms_csv) + "\n")
        with pytest.raises(TraceError):
            load_dataset(root)


class TestCorruptedPlatformState:
    def test_validate_catches_ghost_vm(self, scenario):
        from repro.workload.generator import generate_nep_workload

        workload = generate_nep_workload(scenario)
        platform = workload.platform
        server = next(iter(platform.iter_servers()))
        server.vm_ids.append("ghost-vm")
        with pytest.raises(ReproError):
            platform.validate()

    def test_dataset_validate_catches_missing_series(self, scenario):
        from repro.workload.generator import generate_nep_workload

        dataset = generate_nep_workload(scenario).dataset
        victim = dataset.vm_ids()[0]
        # Generated series are read-only shard views: drop one row from
        # a dict copy instead.
        cpu = dict(dataset.cpu_series)
        del cpu[victim]
        dataset.attach_series(cpu, dataset.bw_series,
                              dataset.bw_private_series)
        with pytest.raises(TraceError):
            dataset.validate()


class TestHostileInputsStayInHierarchy:
    """Bad inputs must raise ReproError subclasses, not leak internals."""

    def test_campaign_requires_sites(self, scenario):
        from repro.measurement.campaign import CrowdCampaign
        from repro.platform.cluster import Platform
        from repro.platform.entities import PlatformKind

        empty = Platform(name="empty", kind=PlatformKind.EDGE)
        with pytest.raises(ReproError):
            CrowdCampaign(scenario, empty, empty)

    def test_analysis_on_empty_observations(self):
        from repro.core.latency_analysis import per_user_latency

        assert per_user_latency([]) == []

    def test_rtt_cdfs_on_empty_records(self):
        from repro.core.latency_analysis import rtt_cdfs
        from repro.netsim.access import AccessType

        with pytest.raises(ReproError):
            rtt_cdfs([], AccessType.WIFI)

    def test_cost_study_without_apps(self):
        from repro.core.cost_analysis import heaviest_apps
        from repro.trace.dataset import TraceDataset

        empty = TraceDataset(platform_name="e", trace_days=1,
                             cpu_interval_minutes=30,
                             bw_interval_minutes=30)
        assert heaviest_apps(empty, 5) == []

    def test_prediction_on_constant_idle_vm(self):
        # An all-zero VM must yield a finite RMSE, not a crash.
        from repro.prediction.evaluate import (
            ExperimentSpec,
            evaluate_holt_winters,
        )

        spec = ExperimentSpec(cpu_interval_minutes=30, window_minutes=30,
                              train_days=7, test_days=2)
        series = np.zeros(9 * 48)
        outcome = evaluate_holt_winters("idle", series, "mean", spec)
        assert outcome.rmse_percent == pytest.approx(0.0, abs=0.1)
