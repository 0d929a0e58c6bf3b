"""Tests for the EdgeStudy facade and its caching behaviour."""

import pytest

from repro import EdgeStudy, Scenario, smoke_study, study_for
from repro.errors import ConfigurationError, ReproError


class TestFacade:
    def test_components_are_cached(self, study):
        assert study.nep is study.nep
        assert study.per_user is study.per_user
        assert study.qoe_testbed is study.qoe_testbed

    def test_smoke_study_is_module_cached(self):
        assert smoke_study() is smoke_study()

    def test_distinct_seeds_distinct_studies(self):
        assert smoke_study(1) is not smoke_study(2)

    def test_platforms_have_expected_kinds(self, study):
        assert study.nep.platform.is_edge
        assert not study.alicloud.is_edge
        assert not study.azure.platform.is_edge

    def test_vcloud_regions_match_alicloud(self, study):
        assert len(study.vcloud_regions) == len(study.alicloud.sites)

    def test_billing_engines_named(self, study):
        assert study.nep_billing.provider == "NEP"
        assert study.vcloud1.provider == "vCloud-1"
        assert study.vcloud2.provider == "vCloud-2"

    def test_lazy_construction(self):
        # Creating a study is instant; nothing is built until accessed.
        study = EdgeStudy(Scenario.smoke_scale().with_overrides(seed=404))
        assert "nep" not in study.__dict__
        assert "campaign" not in study.__dict__

    def test_jobs_and_cache_dir_are_part_of_study_key(self, tmp_path):
        assert study_for("smoke") is not study_for("smoke", jobs=2)
        assert study_for("smoke", jobs=2) is study_for("smoke", jobs=2)
        assert study_for("smoke") is not study_for(
            "smoke", cache_dir=str(tmp_path))

    def test_warm_study_serves_phases_from_cache(self, tmp_path):
        from repro import ArtifactCache

        cache = ArtifactCache(tmp_path)
        scenario = Scenario.smoke_scale().with_overrides(seed=505)
        cold = EdgeStudy(scenario, cache=cache)
        cold.nep, cold.latency_results
        assert "cache_hit:workload_nep" not in cold.perf.counters
        warm = EdgeStudy(scenario, cache=cache)
        warm.nep, warm.latency_results
        assert warm.perf.counters["cache_hit:workload_nep"] == 1
        assert warm.perf.counters["cache_hit:campaign_latency"] == 1
        # Served from cache: the warm run renders no series at all.
        assert "series_render" not in warm.perf.spans

    def test_streamed_study_populates_sharded_cache(self, tmp_path):
        from repro import ArtifactCache

        cache = ArtifactCache(tmp_path)
        scenario = Scenario.smoke_scale().with_overrides(seed=606)
        cold = EdgeStudy(scenario, cache=cache)
        cold.nep
        entry = next(e for e in cache.entries()
                     if e.artifact == "workload_nep")
        assert entry.kind == "workload"
        assert entry.shards > 0
        warm = EdgeStudy(scenario, cache=cache)
        warm.nep
        assert warm.perf.counters["cache_hit:workload_nep"] == 1
        assert "series_render" not in warm.perf.spans


class TestCityTier:
    def test_scenario_for_city(self):
        from repro.study import SCALES, scenario_for

        assert "city" in SCALES
        city = scenario_for("city", seed=3)
        assert city.seed == 3
        assert city.nep_vm_count == 1_000_000
        assert city.trace_days == 92

    def test_city_studies_stream_automatically(self):
        """Every tier streams: series are shard views, never dicts."""
        from repro.shards import ShardedSeriesMap
        from repro.study import scenario_for

        dataset = EdgeStudy(scenario_for("smoke")).nep.dataset
        for series in (dataset.cpu_series, dataset.bw_series,
                       dataset.bw_private_series):
            assert isinstance(series, ShardedSeriesMap)

    def test_unknown_scale_rejected(self):
        from repro.study import scenario_for

        with pytest.raises(ConfigurationError):
            scenario_for("continental")


class TestFaultWiring:
    def test_faults_off_by_default(self, study):
        assert study.scenario.fault_profile == "off"
        assert study.faults is None

    def test_fault_phases_refuse_when_off(self, study):
        with pytest.raises(ConfigurationError):
            study.failover
        with pytest.raises(ConfigurationError):
            study.availability

    def test_faulty_study_builds_schedule(self, faulty_study):
        schedule = faulty_study.faults
        assert schedule is not None
        assert schedule.profile_name == "paper"
        assert faulty_study.faults is schedule  # cached

    def test_fault_profile_is_part_of_cache_key(self):
        assert study_for("smoke") is not study_for("smoke", faults="paper")
        assert study_for("smoke", faults="paper") is \
            study_for("smoke", faults="paper")
        assert study_for("smoke", faults="off") is study_for("smoke")

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            study_for("smoke", faults="storm")


class TestPhaseLedger:
    def test_ok_phase_recorded(self, study):
        study.nep  # force the phase
        status = study.phases.status("workload_nep")
        assert status is not None and status.ok
        assert status.wall_s >= 0.0

    def test_failed_phase_recorded_with_error(self, study):
        with pytest.raises(ConfigurationError):
            study.availability
        status = study.phases.status("availability")
        assert status is not None and not status.ok
        assert "ConfigurationError" in status.error
        assert "availability" in study.phases.report()

    def test_try_phase_degrades_gracefully(self, study):
        # A failing phase returns None; a working one still computes.
        assert study.try_phase("failover") is None
        assert study.try_phase("nep") is study.nep

    def test_ledger_report_lists_phases(self, study):
        study.nep
        report = study.phases.report()
        assert "workload_nep" in report and "ok" in report


class TestErrorHierarchy:
    def test_all_library_errors_share_a_base(self):
        from repro import errors

        subclasses = [
            errors.ConfigurationError, errors.GeoError,
            errors.TopologyError, errors.CapacityError,
            errors.PlacementError, errors.SchedulingError,
            errors.TraceError, errors.MeasurementError,
            errors.PredictionError, errors.BillingError,
            errors.FaultError,
        ]
        for cls in subclasses:
            assert issubclass(cls, ReproError)

    def test_placement_error_is_capacity_error(self):
        from repro.errors import CapacityError, PlacementError

        assert issubclass(PlacementError, CapacityError)

    def test_catching_base_catches_all(self):
        from repro.errors import BillingError

        try:
            raise BillingError("x")
        except ReproError:
            caught = True
        assert caught


class TestResume:
    """Phase-level resume: committed cache entries are the checkpoints."""

    def _cached_study(self, tmp_path, **kwargs):
        from repro import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        scenario = Scenario.smoke_scale().with_overrides(seed=606)
        return EdgeStudy(scenario, cache=cache, **kwargs), cache

    def test_resume_without_cache_is_rejected(self):
        with pytest.raises(ConfigurationError, match="cache"):
            EdgeStudy(Scenario.smoke_scale(), resume=True)

    def test_resume_status_without_cache_is_rejected(self):
        with pytest.raises(ConfigurationError, match="cache"):
            EdgeStudy(Scenario.smoke_scale()).resume_status()

    def test_resume_status_tracks_committed_phases(self, tmp_path):
        from repro.study import RESUMABLE_PHASES

        study, cache = self._cached_study(tmp_path)
        status = study.resume_status()
        assert status["cached"] == []
        assert status["pending"] == list(RESUMABLE_PHASES)
        study.nep  # commits workload_nep
        status = study.resume_status()
        assert status["cached"] == ["workload_nep"]
        assert "workload_nep" not in status["pending"]
        study.latency_results  # commits campaign_latency
        status = study.resume_status()
        assert "campaign_latency" in status["cached"]
        assert "campaign_throughput" in status["pending"]

    def test_resumed_study_skips_committed_phases(self, tmp_path):
        crashed, cache = self._cached_study(tmp_path)
        crashed.nep  # the "crash" happens after this phase committed
        resumed = EdgeStudy(crashed.scenario, cache=cache, resume=True)
        resumed.nep, resumed.latency_results
        assert resumed.perf.counters["cache_hit:workload_nep"] == 1
        assert "cache_hit:campaign_latency" not in resumed.perf.counters

    def test_resume_event_journaled_and_volatile(self, tmp_path):
        from repro.obs import RunJournal, canonical_events

        study, cache = self._cached_study(tmp_path)
        study.nep
        journal = RunJournal(None)
        EdgeStudy(study.scenario, cache=cache, journal=journal, resume=True)
        resumes = [e for e in journal.events if e["type"] == "resume"]
        assert len(resumes) == 1
        assert resumes[0]["cached"] == ["workload_nep"]
        assert "workload_azure" in resumes[0]["pending"]
        # Volatile: a resumed run canonicalizes equal to a clean one.
        assert canonical_events(resumes) == []


class TestLivePhase:
    def test_live_is_resumable(self):
        from repro.study import RESUMABLE_PHASES

        assert "live" in RESUMABLE_PHASES

    def test_cache_roundtrip_preserves_digest(self, tmp_path):
        from repro import ArtifactCache

        cache = ArtifactCache(tmp_path)
        scenario = Scenario.smoke_scale().with_overrides(seed=808)
        cold = EdgeStudy(scenario, cache=cache)
        digest = cold.live.digest
        assert "cache_hit:live" not in cold.perf.counters
        warm = EdgeStudy(scenario, cache=cache)
        assert warm.live.digest == digest
        assert warm.perf.counters["cache_hit:live"] == 1

    def test_report_renders(self, study):
        from repro.reports import REPORTS

        text = REPORTS["live"](study)
        assert "Live platform run" in text
        assert "digest:" in text
