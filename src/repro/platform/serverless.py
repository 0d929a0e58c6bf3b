"""Serverless / FaaS execution model — the §5 "decomposing edge services"
extension.

The paper argues the future of public edge platforms lies in more
elastic paradigms than reserved IaaS VMs, while warning that serverless
cold starts "can barely meet the requirements for ultra-low-delay edge
applications".  This module makes that trade-off measurable:

* :class:`FaasRuntime` — a per-site pool of function instances with
  cold-start latency, keep-alive expiry, and concurrency limits, driven
  by a request-rate series;
* :class:`FaasBilling` — per-invocation + GB-second pricing;
* :func:`compare_vm_vs_faas` — cost and latency of serving one app's
  diurnal load with reserved VMs vs functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, ConfigurationError

#: Cold-start latencies in ms (paper cites SOCK/Catalyzer-class loaders
#: at the fast end and container-pull at the slow end).
COLD_START_MS_DEFAULT = 450.0
WARM_START_MS_DEFAULT = 2.0


@dataclass(frozen=True)
class FunctionSpec:
    """One deployed function: memory footprint and execution profile."""

    name: str
    memory_mb: int
    exec_ms: float
    cold_start_ms: float = COLD_START_MS_DEFAULT
    warm_start_ms: float = WARM_START_MS_DEFAULT

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ConfigurationError(
                f"function {self.name!r}: memory must be positive"
            )
        if self.exec_ms <= 0 or self.cold_start_ms < 0:
            raise ConfigurationError(
                f"function {self.name!r}: bad timing parameters"
            )


@dataclass
class _Instance:
    """One warm function instance with its keep-alive deadline."""

    busy_until_ms: float = 0.0
    expires_at_ms: float = 0.0


@dataclass(frozen=True)
class FaasWindowStats:
    """Outcome of one simulation window."""

    invocations: int
    cold_starts: int
    mean_latency_ms: float
    p95_latency_ms: float
    max_concurrency: int


class FaasRuntime:
    """Discrete per-window simulation of a function pool at one site.

    Requests inside a window arrive uniformly; an idle warm instance
    serves a request with ``warm_start_ms`` overhead, otherwise a new
    instance pays the cold start.  Instances expire ``keep_alive_s``
    after their last use, which is the lever platforms tune to trade
    memory for latency.
    """

    def __init__(self, spec: FunctionSpec, keep_alive_s: float = 600.0,
                 max_instances: int = 1000) -> None:
        if keep_alive_s < 0:
            raise ConfigurationError("keep_alive must be non-negative")
        if max_instances <= 0:
            raise ConfigurationError("max_instances must be positive")
        self.spec = spec
        self.keep_alive_ms = keep_alive_s * 1000.0
        self.max_instances = max_instances
        self._instances: list[_Instance] = []
        self._clock_ms = 0.0
        #: Cumulative GB-seconds consumed (billing input).
        self.gb_seconds = 0.0
        self.total_invocations = 0
        self.total_cold_starts = 0

    def run_window(self, requests: int, window_s: float,
                   rng: np.random.Generator) -> FaasWindowStats:
        """Simulate one window of ``requests`` arrivals.

        Raises:
            CapacityError: if the pool limit forces request drops.
        """
        if requests < 0 or window_s <= 0:
            raise ConfigurationError("bad window parameters")
        window_ms = window_s * 1000.0
        arrivals = np.sort(rng.uniform(0.0, window_ms, size=requests))
        latencies = []
        cold = 0
        peak = 0
        for offset in arrivals:
            now = self._clock_ms + float(offset)
            self._instances = [inst for inst in self._instances
                               if inst.expires_at_ms > now]
            idle = next((inst for inst in self._instances
                         if inst.busy_until_ms <= now), None)
            if idle is None:
                if len(self._instances) >= self.max_instances:
                    # Raised before this arrival mutates anything, but the
                    # window's earlier arrivals are already accounted; roll
                    # the clock forward so the runtime stays consistent if
                    # the caller catches and continues.
                    self._clock_ms += window_ms
                    self.total_invocations += len(latencies)
                    self.total_cold_starts += cold
                    raise CapacityError(
                        f"function {self.spec.name!r}: pool limit "
                        f"{self.max_instances} exceeded"
                    )
                idle = _Instance()
                self._instances.append(idle)
                start = self.spec.cold_start_ms
                cold += 1
            else:
                start = self.spec.warm_start_ms
            latency = start + self.spec.exec_ms
            idle.busy_until_ms = now + latency
            idle.expires_at_ms = idle.busy_until_ms + self.keep_alive_ms
            latencies.append(latency)
            peak = max(peak, len(self._instances))
            self.gb_seconds += (self.spec.memory_mb / 1024.0
                                * latency / 1000.0)
        self._clock_ms += window_ms
        self.total_invocations += requests
        self.total_cold_starts += cold
        if latencies:
            mean = float(np.mean(latencies))
            p95 = float(np.percentile(latencies, 95))
        else:
            mean = p95 = 0.0
        return FaasWindowStats(
            invocations=requests, cold_starts=cold,
            mean_latency_ms=mean, p95_latency_ms=p95,
            max_concurrency=peak,
        )


@dataclass(frozen=True)
class FaasBilling:
    """Serverless pricing: per-invocation fee plus GB-second rate.

    Defaults approximate 2020-era Chinese FaaS list prices (RMB).
    """

    per_million_invocations: float = 1.33
    per_gb_second: float = 0.000110592

    def cost(self, invocations: int, gb_seconds: float) -> float:
        if invocations < 0 or gb_seconds < 0:
            raise ConfigurationError("negative billing inputs")
        return (invocations / 1e6 * self.per_million_invocations
                + gb_seconds * self.per_gb_second)


@dataclass(frozen=True)
class VmVsFaasComparison:
    """Cost + latency of serving one load shape both ways."""

    vm_monthly_rmb: float
    faas_monthly_rmb: float
    faas_mean_latency_ms: float
    faas_p95_latency_ms: float
    faas_cold_start_fraction: float
    vm_peak_utilization: float

    @property
    def faas_cheaper(self) -> bool:
        return self.faas_monthly_rmb < self.vm_monthly_rmb


def compare_vm_vs_faas(request_rate_per_s: np.ndarray, window_s: float,
                       spec: FunctionSpec, vm_monthly_rmb: float,
                       vm_capacity_rps: float,
                       rng: np.random.Generator,
                       billing: FaasBilling | None = None,
                       keep_alive_s: float = 600.0) -> VmVsFaasComparison:
    """Serve a request-rate series with a reserved VM vs a function pool.

    The VM must be provisioned for the peak (the §4.2 over-provisioning
    problem); the function pool scales with load but pays cold starts
    whenever the diurnal curve climbs.

    Raises:
        ConfigurationError: on empty series or non-positive capacity.
    """
    rate = np.asarray(request_rate_per_s, dtype=float)
    if rate.size == 0:
        raise ConfigurationError("request-rate series is empty")
    if vm_capacity_rps <= 0 or vm_monthly_rmb <= 0:
        raise ConfigurationError("VM capacity and price must be positive")
    billing = billing if billing is not None else FaasBilling()
    runtime = FaasRuntime(spec, keep_alive_s=keep_alive_s)

    latencies_mean, latencies_p95, weights = [], [], []
    for rps in rate:
        requests = int(round(rps * window_s))
        stats = runtime.run_window(requests, window_s, rng)
        if requests:
            latencies_mean.append(stats.mean_latency_ms)
            latencies_p95.append(stats.p95_latency_ms)
            weights.append(requests)

    span_s = rate.size * window_s
    month_scale = (30.0 * 24 * 3600) / span_s
    faas_cost = billing.cost(runtime.total_invocations,
                             runtime.gb_seconds) * month_scale
    mean_latency = float(np.average(latencies_mean, weights=weights)) \
        if weights else 0.0
    p95_latency = float(max(latencies_p95)) if latencies_p95 else 0.0
    cold_fraction = (runtime.total_cold_starts
                     / max(runtime.total_invocations, 1))
    return VmVsFaasComparison(
        vm_monthly_rmb=vm_monthly_rmb,
        faas_monthly_rmb=faas_cost,
        faas_mean_latency_ms=mean_latency,
        faas_p95_latency_ms=p95_latency,
        faas_cold_start_fraction=cold_fraction,
        vm_peak_utilization=float(rate.max() / vm_capacity_rps),
    )
