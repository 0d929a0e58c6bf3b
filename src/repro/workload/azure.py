"""Synthetic Azure-2019-like cloud workload dataset.

The paper compares NEP against the public Azure dataset [36] (2019
version, the entire VM population).  The real dataset is ~2.7M VMs of CPU
readings; this generator reproduces its *distributional shape* at scenario
scale: small VM sizes, higher and steadier utilisation, small per-app VM
counts, and near-balanced within-app usage.

Like the NEP generator, it runs placement sequentially and renders the
per-app series blocks through :func:`repro.parallel.run_series_jobs`, so
``jobs > 1`` parallelises generation with bit-identical output.
"""

from __future__ import annotations

import numpy as np

from ..config import Scenario
from ..perf import PerfRegistry
from ..platform.cloud import build_cloud_platform
from ..platform.entities import App, Customer
from ..platform.placement import RandomPolicy, SubscriptionRequest
from ..trace.dataset import TraceDataset
from ..trace.schema import AppRecord, VMRecord
from .apps import AZURE_PROFILES, sample_profile
from .generator import GeneratedWorkload, register_inventory
from .series import AZURE_RECIPE, SeriesJob
from .streaming import WorkloadSink
from .subscription import sample_azure_spec

#: Azure serves individuals too (researchers, educators — §4.1); they run
#: tiny VM counts.
INDIVIDUAL_FRACTION = 0.35


def generate_azure_workload(scenario: Scenario, name: str = "Azure",
                            jobs: int = 1,
                            perf: PerfRegistry | None = None,
                            sink: WorkloadSink | None = None,
                            ) -> GeneratedWorkload:
    """Generate the Azure-like comparison dataset for a scenario.

    ``jobs``/``perf``/``sink`` behave as in
    :func:`repro.workload.generator.generate_nep_workload`.
    """
    from ..parallel import run_series_jobs

    random = scenario.random
    # The fixed 300-server regions fit every historical scale (<= 20k
    # VMs, so scenarios up to paper scale keep their golden digests);
    # the city tier needs the fleet to grow with the VM budget.
    servers_per_region = max(300, scenario.azure_vm_count // 200)
    platform = build_cloud_platform(scenario, name=name, region_count=8,
                                    servers_per_region=servers_per_region)
    policy = RandomPolicy(random.stream("azure-placement"))
    app_rng = random.stream("azure-apps")

    dataset = TraceDataset(
        platform_name=name,
        trace_days=scenario.trace_days,
        cpu_interval_minutes=scenario.cpu_interval_minutes,
        bw_interval_minutes=scenario.bw_interval_minutes,
    )
    register_inventory(platform, dataset)

    # ---- placement stage (sequential) --------------------------------
    pending: list[tuple[SeriesJob, list, object]] = []
    vm_budget = scenario.azure_vm_count
    app_index = 0
    while vm_budget > 0:
        profile = sample_profile(AZURE_PROFILES, app_rng)
        individual = app_rng.random() < INDIVIDUAL_FRACTION
        vm_count = profile.sample_vm_count(app_rng)
        if individual:
            vm_count = min(vm_count, int(app_rng.integers(1, 4)))
        vm_count = min(vm_count, vm_budget)

        app_id = f"az-app{app_index:04d}"
        customer = Customer(
            customer_id=f"az-c{app_index:04d}",
            name=f"tenant-{app_index}",
            segment="individual" if individual else "business",
        )
        app = App(app_id=app_id, customer_id=customer.customer_id,
                  category=profile.category,
                  image_id=f"img-{profile.category}-{app_index:04d}")
        platform.register_customer(customer)
        platform.register_app(app)
        dataset.apps[app_id] = AppRecord(
            app_id=app_id, customer_id=customer.customer_id,
            category=profile.category, image_id=app.image_id,
        )

        # Azure VMs within one deployment vary in size more than NEP's
        # uniform fleets, so sample a spec per placement request chunk.
        spec = sample_azure_spec(app_rng)
        request = SubscriptionRequest(
            customer_id=customer.customer_id, app_id=app_id,
            image_id=app.image_id, spec=spec, vm_count=vm_count,
        )
        placed_vms = policy.place(platform, request)

        pending.append((SeriesJob(app_id=app_id, profile=profile,
                                  vm_count=len(placed_vms)),
                        placed_vms, spec))
        vm_budget -= len(placed_vms)
        app_index += 1

    # ---- series stage (parallel across apps) -------------------------
    blocks = run_series_jobs([job for job, _, _ in pending], scenario,
                             AZURE_RECIPE, n_jobs=jobs, perf=perf)
    if sink is None:
        sink = WorkloadSink.spill()
    sink.begin(dataset.cpu_points, dataset.bw_points, AZURE_RECIPE.private)
    try:
        for (job, placed_vms, spec), block in zip(pending, blocks):
            for offset, vm in enumerate(placed_vms):
                site = platform.site(vm.site_id)
                dataset.add_vm_record(VMRecord(
                    vm_id=vm.vm_id, app_id=job.app_id,
                    customer_id=vm.customer_id,
                    site_id=vm.site_id, server_id=vm.server_id,
                    city=site.city, province=site.province,
                    category=job.profile.category, image_id=vm.image_id,
                    os_type=vm.os_type,
                    cpu_cores=spec.cpu_cores, memory_gb=spec.memory_gb,
                    disk_gb=spec.disk_gb,
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
