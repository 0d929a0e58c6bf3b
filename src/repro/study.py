"""High-level facade: one object that runs the whole study lazily.

:class:`EdgeStudy` wires the substrates together the way the paper's
authors did — build NEP and the clouds, recruit the panel, run the
campaigns, generate the workload traces — and caches each piece so
examples and benchmarks can share one simulation instead of regenerating
it per figure.

Every expensive phase runs inside one :meth:`~repro.perf.PerfRegistry.phase`,
which records its timings and its outcome.  A phase that raises is
recorded as failed and the exception propagates;
:meth:`EdgeStudy.try_phase` gives callers the graceful-degradation
variant (``None`` on failure, other phases still runnable).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

# numpy 2 loads ``numpy.random`` on first attribute access; load it with
# the library so the first :meth:`RandomState.stream` of a timed run
# does not pay its ~20 modules.
import numpy.random  # noqa: F401

from .billing.cloud import alicloud_billing, huawei_billing
from .billing.nep import CityPriceBook, NepBilling
from .cache import ArtifactCache
from .config import DEFAULT_SCENARIO, FAULT_PROFILES, SCALES, Scenario
from .core.availability_analysis import (
    AvailabilityReport,
    run_availability_study,
)
from .core.cost_analysis import cloud_regions_from_platform
from .core.latency_analysis import PerUserLatency, per_user_latency
from .errors import ConfigurationError, ReproError
from .faults.failover import FailoverReport, simulate_failover
from .faults.schedule import FaultSchedule, build_fault_schedule
from .live import LiveResult, run_live
from .measurement.campaign import CampaignResults, CrowdCampaign, Participant
from .measurement.qoe.testbed import QoETestbed
from .obs import RunJournal
from .parallel import resolve_jobs
from .perf import PerfRegistry
from .platform.cloud import build_cloud_platform
from .platform.cluster import Platform
from .qoe import QoeSessionsResult, run_qoe_sessions
from .workload.azure import generate_azure_workload
from .workload.generator import GeneratedWorkload, generate_nep_workload
from .workload.streaming import WorkloadSink


class EdgeStudy:
    """Lazily-computed bundle of every dataset the paper's figures need.

    Each expensive phase runs inside a :meth:`PerfRegistry.phase
    <repro.perf.PerfRegistry.phase>`, so ``study.perf.report()`` (or the
    CLI's ``--perf`` flag) shows where a run spent its time and which
    phases failed, and ``study.perf.spans[name].error`` holds a failed
    phase's error.

    With an artifact cache, the workloads, the campaigns, the QoE
    sessions and the live run are each committed as one atomically
    published entry when their phase ends, and every study on that cache
    replays them.  A rerun of a killed or crashed run therefore resumes
    after its last committed phase, with bit-identical results.

    ``streaming`` is accepted and ignored: every workload streams to
    shards (a cache entry, or a spill directory without a cache).  The
    keyword stays only because the benchmark's workloads
    (``bench/workloads.py``) still pass it; it goes at the next
    benchmark change.
    """

    def __init__(self, scenario: Scenario = DEFAULT_SCENARIO,
                 jobs: int = 1, cache: ArtifactCache | None = None,
                 journal: RunJournal | None = None,
                 streaming: str | None = None) -> None:
        self.scenario = scenario
        #: Worker processes for workload generation (0 was "all cores").
        self.jobs = resolve_jobs(jobs)
        #: Optional persistent artifact cache; ``None`` = always generate.
        self.cache = cache
        #: Optional run journal; every layer below reports through it.
        self.journal = journal
        self.perf = PerfRegistry(journal=journal)
        if journal is not None:
            if cache is not None:
                cache.journal = journal
            journal.run_start(scenario, jobs=self.jobs,
                              cache=cache is not None)

    # ---- phases and the artifact cache -----------------------------------

    def _phase(self, name: str, build, *deps: str, cached: bool = False):
        """Compute phase ``name`` as ``build(*deps)`` inside a perf phase.

        ``deps`` name study attributes that are resolved *before* the
        phase opens and passed to ``build``, so their own phases do not
        nest inside this one.  With ``cached=True`` the result is an
        artifact-cache object: the cache is peeked first, so a warm run
        never builds the dependencies just to replay recorded results,
        and a miss is stored inside the phase.
        """
        result = None
        if cached and self.cache is not None:
            result = self.cache.get_object(name, self.scenario)
            if result is not None:
                self.perf.count(f"cache_hit:{name}")
        args = [getattr(self, dep) for dep in deps] if result is None else []
        with self.perf.phase(name):
            if result is None:
                result = build(*args)
                if cached and self.cache is not None:
                    with self.perf.span(f"cache_store:{name}"):
                        self.cache.put_object(name, self.scenario, result)
        return result

    def _cached_workload(self, name: str, builder):
        """Load a generated workload from the cache, or build and store it.

        A hit bumps the ``cache_hit:<name>`` counter and skips
        generation entirely (the returned series read their rows from
        the cache entry's shards on demand); a miss builds with this
        study's ``jobs`` setting.  Rendered series rows flow through a
        :class:`~repro.workload.streaming.WorkloadSink` into sharded
        on-disk storage as they are produced — directly into the cache
        entry when a cache is configured (no separate store step), or
        into a spill directory that lives as long as the series
        otherwise.  Either way the returned dataset reads its series
        from the shards a row or a bounded window at a time, and the
        working set stays bounded.
        """
        if self.cache is not None:
            cached = self.cache.get_workload(name, self.scenario)
            if cached is not None:
                self.perf.count(f"cache_hit:{name}")
                return cached
            sink = WorkloadSink.for_cache(self.cache, name, self.scenario)
        else:
            sink = WorkloadSink.spill(journal=self.journal)
        try:
            return builder(self.scenario, jobs=self.jobs, perf=self.perf,
                           sink=sink)
        except BaseException:
            # The generators abort the sink on mid-stream failures, but
            # an exception *before* the series stage (platform build,
            # placement) would otherwise leave the staging dir behind
            # until the next `cache clear`, or the spill until the sink
            # is collected.  abort() is idempotent.
            sink.abort()
            raise

    def try_phase(self, name: str):
        """Compute phase ``name``, degrading gracefully on failure.

        Returns the phase value, or ``None`` when it raised a
        :class:`~repro.errors.ReproError` — in which case the failure
        (type and message) is recorded in :attr:`perf` and every other
        phase remains computable.
        """
        try:
            return getattr(self, name)
        except ReproError:
            return None

    # ---- platforms and workloads -----------------------------------------

    @cached_property
    def nep(self) -> GeneratedWorkload:
        """The NEP platform with placed VMs and its 3-month-style trace."""
        workload = self._phase("workload_nep", lambda: self._cached_workload(
            "workload_nep", generate_nep_workload))
        self.perf.count("nep_vms", len(workload.platform.vms))
        return workload

    @cached_property
    def azure(self) -> GeneratedWorkload:
        """The Azure-like cloud comparison dataset."""
        workload = self._phase("workload_azure", lambda: self._cached_workload(
            "workload_azure", generate_azure_workload))
        self.perf.count("azure_vms", len(workload.platform.vms))
        return workload

    @cached_property
    def alicloud(self) -> Platform:
        """The AliCloud-like platform used as the performance baseline.

        Only its region locations matter for the campaign, so the server
        fleet is kept minimal.
        """
        return self._phase("platform_alicloud", lambda: build_cloud_platform(
            self.scenario, name="AliCloud", servers_per_region=4))

    # ---- fault injection ---------------------------------------------------

    @cached_property
    def faults(self) -> FaultSchedule | None:
        """The run's deterministic fault weather; ``None`` when off."""
        if self.scenario.fault_profile == "off":
            return None
        schedule = self._phase("fault_schedule", lambda: build_fault_schedule(
            self.scenario, self.nep.platform, self.alicloud))
        if self.journal is not None and schedule is not None:
            self.journal.emit("fault_schedule", **schedule.summary())
        return schedule

    def _require_faults(self) -> FaultSchedule:
        if self.faults is None:
            raise ConfigurationError(
                "fault injection is off; rerun with --faults paper or "
                "harsh (Scenario.fault_profile)"
            )
        return self.faults

    @cached_property
    def failover(self) -> FailoverReport:
        """Server crashes replayed through evacuation/live migration.

        Raises:
            ConfigurationError: when fault injection is off.
        """
        def build() -> FailoverReport:
            # Faults first: with injection off, fail before building NEP.
            faults = self._require_faults()
            return simulate_failover(self.nep.platform, faults)

        return self._phase("failover", build)

    @cached_property
    def availability(self) -> AvailabilityReport:
        """The availability/SLO analysis of this run's fault weather.

        Raises:
            ConfigurationError: when fault injection is off.
        """
        return self._phase("availability", lambda: run_availability_study(
            self._require_faults(), self.latency_results,
            self.throughput_results, self.failover))

    # ---- campaigns ---------------------------------------------------------

    @cached_property
    def campaign(self) -> CrowdCampaign:
        return CrowdCampaign(self.scenario, self.nep.platform, self.alicloud,
                             faults=self.faults, journal=self.journal)

    @cached_property
    def participants(self) -> list[Participant]:
        return self.campaign.recruit()

    @cached_property
    def latency_results(self) -> CampaignResults:
        results = self._phase("campaign_latency", CrowdCampaign.run_latency,
                              "campaign", "participants", cached=True)
        self.perf.count("latency_observations", len(results.latency))
        return results

    @cached_property
    def throughput_results(self) -> CampaignResults:
        results = self._phase("campaign_throughput",
                              CrowdCampaign.run_throughput,
                              "campaign", "participants", cached=True)
        self.perf.count("throughput_observations", len(results.throughput))
        return results

    @cached_property
    def per_user(self) -> list[PerUserLatency]:
        """Per-user latency aggregates feeding Figures 2/3 and Table 2."""
        return per_user_latency(self.latency_results.latency)

    # ---- QoE testbed ---------------------------------------------------------

    @cached_property
    def qoe_testbed(self) -> QoETestbed:
        return QoETestbed(self.scenario.random.stream("qoe-testbed"))

    @cached_property
    def qoe_sessions(self) -> QoeSessionsResult:
        """Edge-vs-cloud session QoE distributions (beyond Figure 7).

        Runs the vectorized ABR engine over the analytic CDN model for
        both arms, chunked through a task farm and folded into streaming
        sketches.
        """
        result = self._phase("qoe_sessions", lambda: run_qoe_sessions(
            self.scenario, jobs=self.jobs, journal=self.journal), cached=True)
        self.perf.count("qoe_sessions_simulated",
                        result.sessions * len(result.arms))
        return result

    # ---- live platform engine --------------------------------------------------

    @cached_property
    def live(self) -> LiveResult:
        """Event-driven live-platform run (beyond the paper; repro.live).

        Advances the whole NEP fleet tick by tick — VM arrivals,
        departures, evacuation off faulted servers, autoscaling — as
        vectorized array ops, with the scenario's fault profile
        interleaved as down/up events.  Sequential by construction, so
        it runs in this process and is bit-identical across any
        ``--jobs`` setting.
        """
        result = self._phase("live", lambda: run_live(
            self.scenario, journal=self.journal), cached=True)
        self.perf.count("live_ticks", result.ticks)
        return result

    # ---- billing ---------------------------------------------------------------

    @cached_property
    def nep_billing(self) -> NepBilling:
        book = CityPriceBook(self.scenario.random.stream("city-prices"))
        return NepBilling(book)

    @cached_property
    def vcloud1(self):
        """AliCloud-priced virtual baseline (billing engine)."""
        return alicloud_billing()

    @cached_property
    def vcloud2(self):
        """Huawei-priced virtual baseline (billing engine)."""
        return huawei_billing()

    @cached_property
    def vcloud_regions(self):
        """Billing regions of the virtual clouds (AliCloud's geography)."""
        return cloud_regions_from_platform(self.alicloud)


def scenario_for(scale: str, seed: int | None = None,
                 faults: str | None = None,
                 overrides: dict[str, object] | None = None) -> Scenario:
    """The scenario behind a named scale (see :data:`SCALES`).

    ``seed`` and ``faults`` (the fault-injection profile: ``"off"``,
    ``"paper"``, ``"harsh"``) replace the scale's values when given;
    ``overrides`` replaces arbitrary scenario fields on top — the hook
    sweep cells and the CLI's engine flags use.  This is the only path
    from a scale or fault-profile name to a :class:`Scenario`; every
    field value is validated by the :class:`Scenario` it builds.

    Raises:
        ConfigurationError: on an unknown scale, fault profile or
            override field, or an invalid value.
    """
    try:
        factory = SCALES[scale]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigurationError(
            f"unknown scale {scale!r}, expected one of {tuple(SCALES)}"
        ) from None
    if faults is not None and faults not in FAULT_PROFILES:
        raise ConfigurationError(
            f"unknown fault profile {faults!r}, expected one of "
            f"{FAULT_PROFILES}")
    changes: dict[str, object] = {}
    if seed is not None:
        changes["seed"] = seed
    if faults is not None:
        changes["fault_profile"] = faults
    changes.update(overrides or {})
    try:
        return factory().with_overrides(**changes)
    except TypeError as exc:
        raise ConfigurationError(
            f"unknown scenario override: {exc}") from exc


@lru_cache(maxsize=8)
def _study_for(scale: str, seed: int, faults: str, jobs: int,
               cache_dir: str | None) -> EdgeStudy:
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    return EdgeStudy(scenario_for(scale, seed, faults), jobs=jobs,
                     cache=cache)


def study_for(scale: str, seed: int | None = None,
              faults: str | None = None, jobs: int = 1,
              cache_dir: str | None = None) -> EdgeStudy:
    """The shared study for a named scale, cached per argument tuple.

    ``jobs`` is the worker-process count for workload generation and
    ``cache_dir`` the root of the persistent artifact cache (``None``
    disables caching) — both execution knobs, so two calls differing
    only there still share scenario *results* bit-for-bit.
    """
    return _study_for(scale,
                      seed if seed is not None else DEFAULT_SCENARIO.seed,
                      "off" if faults is None else faults,
                      resolve_jobs(jobs), cache_dir)
