"""High-level facade: one object that runs the whole study lazily.

:class:`EdgeStudy` wires the substrates together the way the paper's
authors did — build NEP and the clouds, recruit the panel, run the
campaigns, generate the workload traces — and caches each piece so
examples and benchmarks can share one simulation instead of regenerating
it per figure.

Every expensive phase is tracked twice: a :class:`~repro.perf.PerfRegistry`
span for timings and a :class:`~repro.phases.PhaseLedger` entry for the
outcome.  A phase that raises is recorded as failed in the ledger and the
exception propagates; :meth:`EdgeStudy.try_phase` gives callers the
graceful-degradation variant (``None`` on failure, other phases still
runnable).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .billing.cloud import alicloud_billing, huawei_billing
from .billing.nep import CityPriceBook, NepBilling
from .cache import ArtifactCache
from .config import DEFAULT_SCENARIO, FAULT_PROFILES, Scenario
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
from .phases import PhaseLedger
from .platform.cloud import build_cloud_platform
from .platform.cluster import Platform
from .qoe import QoeSessionsResult, run_qoe_sessions
from .workload.azure import generate_azure_workload
from .workload.generator import GeneratedWorkload, generate_nep_workload
from .workload.streaming import WorkloadSink


#: Phases whose results land in the artifact cache and can therefore be
#: skipped by a resumed run.  Order matches the natural execution order.
RESUMABLE_PHASES = ("workload_nep", "workload_azure",
                    "campaign_latency", "campaign_throughput",
                    "qoe_sessions", "live")


class EdgeStudy:
    """Lazily-computed bundle of every dataset the paper's figures need.

    Each expensive phase runs inside a :class:`~repro.perf.PerfRegistry`
    span, so ``study.perf.report()`` (or the CLI's ``--perf`` flag) shows
    where a run spent its time; ``study.phases.report()`` shows which
    phases ran and whether they failed.

    ``resume=True`` declares that this run continues an earlier (killed
    or crashed) run of the same scenario: it requires an artifact cache
    — the medium resume works through, since every committed phase is a
    cache entry published atomically — and journals a ``resume`` event
    listing which phases will replay from cache and which still have to
    run.  Resume never changes results; cached phases are bit-identical
    to regenerated ones, so a resumed journal canonicalizes equal to a
    clean one.

    ``streaming`` is accepted and ignored: every workload streams to
    shards (a cache entry, or a spill directory without a cache).  The
    keyword stays only because the benchmark's workloads
    (``bench/workloads.py``) still pass it; it goes at the next
    benchmark change.
    """

    def __init__(self, scenario: Scenario = DEFAULT_SCENARIO,
                 jobs: int = 1, cache: ArtifactCache | None = None,
                 journal: RunJournal | None = None,
                 streaming: str | None = None, resume: bool = False) -> None:
        self.scenario = scenario
        #: Worker processes for workload generation (0 was "all cores").
        self.jobs = resolve_jobs(jobs)
        #: Optional persistent artifact cache; ``None`` = always generate.
        self.cache = cache
        #: Optional run journal; every layer below reports through it.
        self.journal = journal
        #: Whether this run continues an interrupted one via the cache.
        self.resume = resume
        if resume and cache is None:
            raise ConfigurationError(
                "resume needs an artifact cache (committed phases are "
                "cache entries); drop --no-cache or pass cache_dir")
        self.perf = PerfRegistry(journal=journal)
        self.phases = PhaseLedger(journal=journal)
        if journal is not None:
            if cache is not None:
                cache.journal = journal
            journal.run_start(scenario, jobs=self.jobs,
                              cache=cache is not None)
            if resume:
                status = self.resume_status()
                journal.emit("resume", cached=status["cached"],
                             pending=status["pending"])

    def resume_status(self) -> dict[str, list[str]]:
        """Which resumable phases are already committed in the cache.

        Returns ``{"cached": [...], "pending": [...]}`` over
        :data:`RESUMABLE_PHASES` — a pure peek at entry metadata, with
        no loading, no events, and no side effects on the cache.

        Raises:
            ConfigurationError: when the study has no artifact cache.
        """
        if self.cache is None:
            raise ConfigurationError(
                "resume status needs an artifact cache")
        cached = [name for name in RESUMABLE_PHASES
                  if self.cache.has(name, self.scenario)]
        pending = [name for name in RESUMABLE_PHASES if name not in cached]
        return {"cached": cached, "pending": pending}

    # ---- artifact cache plumbing ----------------------------------------

    def _cached_workload(self, name: str, builder):
        """Load a generated workload from the cache, or build and store it.

        A hit bumps the ``cache_hit:<name>`` counter and skips
        generation entirely (the returned series are memory-mapped from
        the cache entry); a miss builds with this study's ``jobs``
        setting.  Rendered series rows flow through a
        :class:`~repro.workload.streaming.WorkloadSink` into sharded
        on-disk storage as they are produced — directly into the cache
        entry when a cache is configured (no separate store step), or
        into a spill directory that lives as long as the series
        otherwise.  Either way the returned dataset serves its series
        from memory maps and the working set stays bounded.
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

    def _campaign_cache_peek(self, name: str):
        """A cached phase object (campaign results, session QoE), or ``None``.

        Peeked *before* touching the phase's dependencies so a warm run
        never builds the platforms just to replay recorded results.
        """
        if self.cache is None:
            return None
        cached = self.cache.get_object(name, self.scenario)
        if cached is not None:
            self.perf.count(f"cache_hit:{name}")
        return cached

    def _campaign_cache_store(self, name: str, results: object) -> None:
        if self.cache is not None:
            with self.perf.span(f"cache_store:{name}"):
                self.cache.put_object(name, self.scenario, results)

    def try_phase(self, name: str):
        """Compute phase ``name``, degrading gracefully on failure.

        Returns the phase value, or ``None`` when it raised a
        :class:`~repro.errors.ReproError` — in which case the failure
        (type and message) is recorded in :attr:`phases` and every other
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
        with self.perf.span("workload_nep"), self.phases.track("workload_nep"):
            workload = self._cached_workload("workload_nep",
                                             generate_nep_workload)
        self.perf.count("nep_vms", len(workload.platform.vms))
        return workload

    @cached_property
    def azure(self) -> GeneratedWorkload:
        """The Azure-like cloud comparison dataset."""
        with self.perf.span("workload_azure"), \
                self.phases.track("workload_azure"):
            workload = self._cached_workload("workload_azure",
                                             generate_azure_workload)
        self.perf.count("azure_vms", len(workload.platform.vms))
        return workload

    @cached_property
    def alicloud(self) -> Platform:
        """The AliCloud-like platform used as the performance baseline.

        Only its region locations matter for the campaign, so the server
        fleet is kept minimal.
        """
        with self.perf.span("platform_alicloud"), \
                self.phases.track("platform_alicloud"):
            return build_cloud_platform(self.scenario, name="AliCloud",
                                        servers_per_region=4)

    # ---- fault injection ---------------------------------------------------

    @cached_property
    def faults(self) -> FaultSchedule | None:
        """The run's deterministic fault weather; ``None`` when off."""
        if self.scenario.fault_profile == "off":
            return None
        with self.perf.span("fault_schedule"), \
                self.phases.track("fault_schedule"):
            schedule = build_fault_schedule(self.scenario, self.nep.platform,
                                            self.alicloud)
        if self.journal is not None and schedule is not None:
            self.journal.emit("fault_schedule", **schedule.summary())
        return schedule

    @cached_property
    def failover(self) -> FailoverReport:
        """Server crashes replayed through evacuation/live migration.

        Raises:
            ConfigurationError: when fault injection is off.
        """
        with self.perf.span("failover"), self.phases.track("failover"):
            if self.faults is None:
                raise ConfigurationError(
                    "fault injection is off; rerun with --faults paper or "
                    "harsh (Scenario.fault_profile)"
                )
            return simulate_failover(self.nep.platform, self.faults)

    @cached_property
    def availability(self) -> AvailabilityReport:
        """The availability/SLO analysis of this run's fault weather.

        Raises:
            ConfigurationError: when fault injection is off.
        """
        with self.perf.span("availability"), self.phases.track("availability"):
            if self.faults is None:
                raise ConfigurationError(
                    "fault injection is off; rerun with --faults paper or "
                    "harsh (Scenario.fault_profile)"
                )
            return run_availability_study(
                self.faults, self.latency_results, self.throughput_results,
                self.failover)

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
        cached = self._campaign_cache_peek("campaign_latency")
        if cached is None:
            campaign, participants = self.campaign, self.participants
        with self.perf.span("campaign_latency"), \
                self.phases.track("campaign_latency"):
            if cached is not None:
                results = cached
            else:
                results = campaign.run_latency(participants)
                self._campaign_cache_store("campaign_latency", results)
        self.perf.count("latency_observations", len(results.latency))
        return results

    @cached_property
    def throughput_results(self) -> CampaignResults:
        cached = self._campaign_cache_peek("campaign_throughput")
        if cached is None:
            campaign, participants = self.campaign, self.participants
        with self.perf.span("campaign_throughput"), \
                self.phases.track("campaign_throughput"):
            if cached is not None:
                results = cached
            else:
                results = campaign.run_throughput(participants)
                self._campaign_cache_store("campaign_throughput", results)
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
        cached = self._campaign_cache_peek("qoe_sessions")
        with self.perf.span("qoe_sessions"), \
                self.phases.track("qoe_sessions"):
            if cached is not None:
                result = cached
            else:
                result = run_qoe_sessions(self.scenario, jobs=self.jobs,
                                          journal=self.journal)
                self._campaign_cache_store("qoe_sessions", result)
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
        the result ignores ``jobs`` and is bit-identical across any
        ``--jobs`` setting.
        """
        cached = self._campaign_cache_peek("live")
        with self.perf.span("live"), self.phases.track("live"):
            if cached is not None:
                result = cached
            else:
                result = run_live(self.scenario, jobs=self.jobs,
                                  journal=self.journal)
                self._campaign_cache_store("live", result)
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


#: Scale names accepted by :func:`study_for` and the CLI's ``--scale``.
SCALES = ("smoke", "default", "paper", "city")


def scenario_for(scale: str, seed: int | None = None,
                 faults: str | None = None,
                 overrides: dict[str, object] | None = None) -> Scenario:
    """The scenario behind a named scale (see :data:`SCALES`).

    ``faults`` overrides the fault-injection profile (``"off"``,
    ``"paper"``, ``"harsh"``); ``None`` keeps the scale's default.
    ``overrides`` replaces arbitrary scenario fields on top of the
    scale's values — the hook sweep cells use for per-cell knobs.
    """
    if seed is None:
        seed = DEFAULT_SCENARIO.seed
    if scale == "default":
        scenario = Scenario(seed=seed)
    elif scale == "smoke":
        scenario = Scenario.smoke_scale().with_overrides(seed=seed)
    elif scale == "paper":
        scenario = Scenario.paper_scale().with_overrides(seed=seed)
    elif scale == "city":
        scenario = Scenario.city_scale().with_overrides(seed=seed)
    else:
        raise ConfigurationError(
            f"unknown scale {scale!r}, expected one of {SCALES}")
    if faults is not None:
        scenario = scenario.with_overrides(fault_profile=faults)
    if overrides:
        try:
            scenario = scenario.with_overrides(**overrides)
        except TypeError as exc:
            raise ConfigurationError(
                f"unknown scenario override: {exc}") from exc
    return scenario


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
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}, expected one of {SCALES}")
    resolved_faults = "off" if faults is None else faults
    if resolved_faults not in FAULT_PROFILES:
        raise ConfigurationError(
            f"unknown fault profile {resolved_faults!r}, expected one of "
            f"{FAULT_PROFILES}")
    return _study_for(scale,
                      seed if seed is not None else DEFAULT_SCENARIO.seed,
                      resolved_faults, resolve_jobs(jobs), cache_dir)


def default_study(seed: int | None = None) -> EdgeStudy:
    """The shared full-scale study (cached per seed)."""
    return study_for("default", seed)


def smoke_study(seed: int | None = None) -> EdgeStudy:
    """The shared reduced-scale study for tests (cached per seed)."""
    return study_for("smoke", seed)
