"""End-to-end NEP workload generation: platform + apps + trace dataset.

This is the factory behind every §4 analysis: it builds the NEP topology,
creates customers and apps per the §4.1 category mix, places their VMs
with NEP's production policy, and synthesises per-VM CPU and bandwidth
series.  The result bundles the live :class:`~repro.platform.Platform`
(for placement/scheduling experiments) with the immutable
:class:`~repro.trace.TraceDataset` (for the workload analyses).

Generation runs in two stages.  The *placement* stage is sequential: it
samples the app population and places VMs (both consume shared RNG
streams and mutate the platform).  The *series* stage renders each
app's CPU/bandwidth rows from the app's own RNG substream and is
embarrassingly parallel — ``jobs > 1`` fans the per-app jobs out over
worker processes via :func:`repro.parallel.run_series_jobs` with
bit-identical output.  :func:`stream_series` is that stage for both
this generator and :func:`repro.workload.azure.generate_azure_workload`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import Scenario
from ..errors import PlacementError
from ..geo.regions import CHINA_CITIES, provinces
from ..perf import PerfRegistry
from ..platform.cluster import Platform
from ..platform.entities import App, Customer, VM, VMSpec
from ..platform.nep import build_nep_platform
from ..platform.placement import NepPlacementPolicy, SubscriptionRequest
from ..trace.dataset import TraceDataset
from ..trace.schema import AppRecord, ServerRecord, SiteRecord, VMRecord
from .apps import NEP_PROFILES, sample_profile
from .series import NEP_RECIPE, SeriesJob, SeriesRecipe
from .streaming import WorkloadSink
from .subscription import sample_nep_disk_gb, sample_nep_spec


@dataclass
class GeneratedWorkload:
    """A platform with placed VMs plus the trace those VMs produced."""

    platform: Platform
    dataset: TraceDataset


def _province_weights() -> tuple[list[str], np.ndarray]:
    totals: dict[str, float] = {}
    for c in CHINA_CITIES:
        totals[c.province] = totals.get(c.province, 0.0) + c.population_m
    names = list(totals)
    weights = np.array([totals[n] for n in names])
    return names, weights / weights.sum()


def _choose_provinces(vm_count: int, rng: np.random.Generator) -> list[str]:
    """Provinces an app deploys into; big apps spread wider (§4.1)."""
    names, weights = _province_weights()
    if vm_count >= 100:
        spread = min(len(names), int(rng.integers(8, 15)))
    elif vm_count >= 20:
        spread = int(rng.integers(3, 7))
    elif vm_count >= 5:
        spread = int(rng.integers(1, 4))
    else:
        spread = 1
    chosen = rng.choice(len(names), size=spread, replace=False, p=weights)
    return [names[i] for i in chosen]


def _split_counts(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Split ``total`` VMs across ``parts`` provinces, each >= 1."""
    if parts >= total:
        return [1] * total
    weights = rng.dirichlet(np.ones(parts) * 2.0)
    counts = np.maximum(1, np.round(weights * total).astype(int))
    # Fix rounding drift while keeping every part >= 1.
    while counts.sum() > total:
        counts[int(np.argmax(counts))] -= 1
    while counts.sum() < total:
        counts[int(np.argmin(counts))] += 1
    return counts.tolist()


def register_inventory(platform: Platform, dataset: TraceDataset) -> None:
    """Copy a platform's site/server inventory into the trace tables."""
    for site in platform.sites:
        dataset.sites[site.site_id] = SiteRecord(
            site_id=site.site_id, name=site.name, city=site.city,
            province=site.province, lat=site.location.lat,
            lon=site.location.lon,
            gateway_bandwidth_mbps=site.gateway_bandwidth_mbps,
        )
        for server in site.servers:
            dataset.servers[server.server_id] = ServerRecord(
                server_id=server.server_id, site_id=site.site_id,
                cpu_cores=int(server.capacity.cpu_cores),
                memory_gb=int(server.capacity.memory_gb),
                disk_gb=int(server.capacity.disk_gb),
            )


def generate_nep_workload(scenario: Scenario, jobs: int = 1,
                          perf: PerfRegistry | None = None,
                          sink: WorkloadSink | None = None,
                          ) -> GeneratedWorkload:
    """Generate the full NEP platform + 3-month-style trace for a scenario.

    ``jobs`` is the worker-process count for the series stage (``1`` =
    in-process, ``0`` = all CPU cores); output is bit-identical for any
    value.  ``perf`` receives the series-stage spans (including, merged,
    those recorded inside worker processes).  The rendered rows stream
    through ``sink`` into sharded disk storage; without one they go to a
    :meth:`~repro.workload.streaming.WorkloadSink.spill` directory that
    lives as long as the returned series.
    """
    random = scenario.random
    platform = build_nep_platform(scenario)
    policy = NepPlacementPolicy()
    app_rng = random.stream("nep-apps")

    dataset = TraceDataset(
        platform_name=platform.name,
        trace_days=scenario.trace_days,
        cpu_interval_minutes=scenario.cpu_interval_minutes,
        bw_interval_minutes=scenario.bw_interval_minutes,
    )
    register_inventory(platform, dataset)

    # ---- placement stage (sequential) --------------------------------
    pending: list[tuple[SeriesJob, list[VM]]] = []
    vm_budget = scenario.nep_vm_count
    app_index = 0
    while vm_budget > 0:
        profile = sample_profile(NEP_PROFILES, app_rng)
        vm_count = min(profile.sample_vm_count(app_rng), vm_budget)
        app_id = f"nep-app{app_index:04d}"
        customer = Customer(customer_id=f"nep-c{app_index:04d}",
                            name=f"customer-{app_index}", segment="business")
        app = App(app_id=app_id, customer_id=customer.customer_id,
                  category=profile.category,
                  image_id=f"img-{profile.category}-{app_index:04d}")
        platform.register_customer(customer)
        platform.register_app(app)
        dataset.apps[app_id] = AppRecord(
            app_id=app_id, customer_id=customer.customer_id,
            category=profile.category, image_id=app.image_id,
        )

        spec = sample_nep_spec(app_rng)
        app_provinces = _choose_provinces(vm_count, app_rng)
        counts = _split_counts(vm_count, len(app_provinces), app_rng)
        placed_vms = []
        for province, count in zip(app_provinces, counts):
            # Cores/memory are uniform across an app's fleet (the §2
            # subscription example), but disk follows each VM's data
            # volume — that is what gives the 100 GB median / 650 GB
            # mean storage tail of §4.1.
            vm_specs = [
                VMSpec(
                    cpu_cores=spec.cpu_cores, memory_gb=spec.memory_gb,
                    disk_gb=sample_nep_disk_gb(app_rng),
                    bandwidth_mbps=spec.bandwidth_mbps,
                )
                for _ in range(count)
            ]
            request = SubscriptionRequest(
                customer_id=customer.customer_id, app_id=app_id,
                image_id=app.image_id, spec=vm_specs[0], vm_count=count,
                province=province,
            )
            # A saturated province places fewer VMs (allow_partial) and a
            # province without sites is skipped; the app simply deploys
            # less there, as a real customer would be told.
            try:
                placed_vms.extend(policy.place(platform, request,
                                               specs=vm_specs,
                                               allow_partial=True))
            except PlacementError:
                continue
        if not placed_vms:
            app_index += 1
            continue

        pending.append((SeriesJob(app_id=app_id, profile=profile,
                                  vm_count=len(placed_vms)), placed_vms))
        vm_budget -= len(placed_vms)
        app_index += 1

    return stream_series(scenario, platform, dataset, pending, NEP_RECIPE,
                         jobs, perf, sink)


def stream_series(scenario: Scenario, platform: Platform,
                  dataset: TraceDataset,
                  pending: Sequence[tuple[SeriesJob, list[VM]]],
                  recipe: SeriesRecipe, jobs: int,
                  perf: PerfRegistry | None,
                  sink: WorkloadSink | None) -> GeneratedWorkload:
    """The series stage of both generators, after placement.

    ``pending`` pairs each app's :class:`SeriesJob` with its placed VMs,
    in app order.  The jobs render on
    :func:`repro.parallel.run_series_jobs` into ``sink`` (a
    :meth:`~repro.workload.streaming.WorkloadSink.spill` directory when
    ``None``); each VM gets its :class:`VMRecord`, with cores, memory
    and disk from ``vm.spec`` and a bandwidth cap of three times its
    mean.  A failure aborts the sink before it propagates.
    """
    from ..parallel import run_series_jobs

    if sink is None:
        sink = WorkloadSink.spill()
    try:
        sink.begin(dataset.cpu_points, dataset.bw_points, recipe.private)
        blocks = run_series_jobs([job for job, _ in pending], scenario,
                                 recipe, sink, n_jobs=jobs, perf=perf)
        # Closing the generator stops the farm, so no task still
        # writes into the sink when a failure aborts it below.
        with contextlib.closing(blocks):
            for (job, placed_vms), block in zip(pending, blocks, strict=True):
                for offset, vm in enumerate(placed_vms):
                    site = platform.site(vm.site_id)
                    dataset.add_vm_record(VMRecord(
                        vm_id=vm.vm_id, app_id=job.app_id,
                        customer_id=vm.customer_id,
                        site_id=vm.site_id, server_id=vm.server_id,
                        city=site.city, province=site.province,
                        category=job.profile.category, image_id=vm.image_id,
                        os_type=vm.os_type,
                        cpu_cores=vm.spec.cpu_cores,
                        memory_gb=vm.spec.memory_gb,
                        disk_gb=vm.spec.disk_gb,
                        bandwidth_mbps=float(
                            np.ceil(block.mean_bws[offset] * 3.0)),
                    ))
                sink.consume([vm.vm_id for vm in placed_vms], block)
        sink.finalize(platform, dataset)
    except BaseException:
        sink.abort()
        raise

    dataset.validate()
    platform.validate()
    return GeneratedWorkload(platform=platform, dataset=dataset)
