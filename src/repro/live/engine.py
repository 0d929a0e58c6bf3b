"""The vectorized live-platform engine: one tick = a few array ops.

A *live run* advances the whole NEP fleet tick by tick: VM arrivals and
departures, evacuation off faulted servers, and per-server autoscaling
all happen *online*, with :class:`~repro.faults.schedule.FaultSchedule`
windows replayed as down/up transition events instead of post-hoc
masks.  There are no per-entity objects anywhere in the hot loop — the
fleet is a handful of flat per-server arrays (slots, active VMs, churn
accumulators, EWMA utilization) advanced with numpy element-wise ops,
which is what keeps city-tier fleets (~430k servers) at thousands of
ticks per second.

Determinism contract
--------------------

A live run is a pure function of the scenario.  All randomness is drawn
*before* the loop from the ``"live"`` stream (per-tick Poisson arrival
totals, flash-crowd window placement); everything inside the loop —
churn, admission, evacuation, autoscaling — is deterministic arithmetic
on the state, so the vectorized stepper and the scalar per-server
reference (:func:`repro.live.reference.run_reference_engine`) consume
the identical draw sequence and produce bit-identical series:

* departures use **error-diffusion churn**: a float accumulator per
  server gains ``active * p`` each tick and sheds its integer part, so
  expected churn is exact without any in-loop draws;
* placement uses **largest-remainder allocation** over free-slot
  weights with a stable index tie-break, so arrivals and evacuees land
  on the same servers under both steppers;
* ``jobs`` does not exist here: tick stepping is inherently sequential,
  so a live run is trivially bit-identical across ``--jobs`` settings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..config import Scenario
from ..errors import ConfigurationError
from ..faults.schedule import FaultSchedule
from ..platform.cluster import Platform

#: EWMA smoothing factor for per-server utilization.
EWMA_ALPHA = 0.3

#: Autoscaling thresholds: grow above HI, shrink back toward the base
#: capacity below LO.  Burst headroom is capped at 2x the base slots.
SCALE_UP_UTIL = 0.85
SCALE_DOWN_UTIL = 0.30

#: The per-tick series a live run records, in digest order.
SERIES = ("active", "capacity", "down_servers", "arrivals", "admitted",
          "rejected", "departures", "evacuated", "displaced")


@dataclass(frozen=True)
class LiveInputs:
    """Everything a live run consumes, precomputed and draw-complete.

    Both steppers advance from one ``LiveInputs``: the per-tick arrival
    totals (Poisson, flash-crowd and diurnal modulated) are already
    drawn, and fault windows are lowered to sorted ``(tick, lo, hi,
    delta)`` transitions, so no randomness and no interval queries
    remain in the loop.
    """

    ticks: int
    tick_minutes: int
    site_of: np.ndarray        # int64 (n_servers,) owning site index
    base_slots: np.ndarray     # int64 (n_servers,) baseline VM slots
    arrivals: np.ndarray       # int64 (ticks,) total VM arrivals per tick
    departure_p: float         # per-tick departure probability
    autoscale: bool
    transitions: tuple[tuple[int, int, int, int], ...]
    site_ids: tuple[str, ...]
    server_ids: tuple[str, ...]

    @property
    def n_servers(self) -> int:
        return int(self.base_slots.size)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)


def demand_curve(scenario: Scenario) -> np.ndarray:
    """Per-tick arrival-rate multipliers: diurnal wave x flash crowds.

    The diurnal factor is ``1 - amplitude * cos(2*pi * time_of_day)``
    (trough at midnight, peak at noon); each flash crowd multiplies a
    contiguous window of ticks by ``live_flash_magnitude``.  Window
    placement draws from the dedicated ``"live-flash"`` stream so
    changing the flash count never shifts the arrival draws.
    """
    ticks = scenario.live_ticks
    minute = np.arange(ticks, dtype=np.float64) * scenario.live_tick_minutes
    time_of_day = (minute % 1440.0) / 1440.0
    factor = 1.0 - scenario.live_diurnal_amplitude * np.cos(
        2.0 * np.pi * time_of_day)
    if scenario.live_flash_crowds:
        rng = scenario.random.stream("live-flash")
        width = max(3, ticks // 40)
        for _ in range(scenario.live_flash_crowds):
            start = int(rng.integers(0, max(ticks - width, 1)))
            factor[start:start + width] *= scenario.live_flash_magnitude
    return factor


def build_live_inputs(scenario: Scenario, platform: Platform,
                      faults: FaultSchedule | None = None) -> LiveInputs:
    """Lower a scenario (+ optional fault weather) to live-run inputs.

    Raises:
        ConfigurationError: when ``platform`` has no servers.
    """
    site_of, base_slots, site_ids, server_ids = platform.live_inventory()
    if base_slots.size == 0:
        raise ConfigurationError(
            f"platform {platform.name!r} has no servers to run live")
    lam = scenario.live_arrival_rate * demand_curve(scenario)
    arrivals = scenario.random.stream("live").poisson(lam).astype(np.int64)
    transitions: tuple[tuple[int, int, int, int], ...] = ()
    if faults is not None:
        ranges: dict[str, tuple[int, int]] = {}
        for index, site_id in enumerate(site_ids):
            span = np.flatnonzero(site_of == index)
            if span.size:
                ranges[site_id] = (int(span[0]), int(span[-1]) + 1)
        server_index = {sid: j for j, sid in enumerate(server_ids)}
        transitions = tuple(faults.tick_transitions(
            scenario.live_tick_minutes, scenario.live_ticks, ranges,
            server_index))
    return LiveInputs(
        ticks=scenario.live_ticks,
        tick_minutes=scenario.live_tick_minutes,
        site_of=site_of,
        base_slots=base_slots,
        arrivals=arrivals,
        departure_p=1.0 / scenario.live_mean_lifetime_ticks,
        autoscale=scenario.live_autoscale == "on",
        transitions=transitions,
        site_ids=site_ids,
        server_ids=server_ids,
    )


def digest_series(series: dict[str, np.ndarray]) -> str:
    """SHA-256 over the per-tick series, in :data:`SERIES` order."""
    outer = hashlib.sha256()
    for name in SERIES:
        outer.update(name.encode())
        outer.update(np.ascontiguousarray(series[name],
                                          dtype=np.int64).tobytes())
    return outer.hexdigest()


@dataclass(frozen=True)
class LiveResult:
    """One live run: per-tick fleet series plus summary metrics."""

    ticks: int
    tick_minutes: int
    sites: int
    servers: int
    arrival_rate: float
    autoscale: str
    fault_profile: str
    series: dict[str, np.ndarray]
    fault_ticks: tuple[int, ...]
    digest: str

    def metrics(self) -> dict[str, float]:
        """Flat metric columns for ``repro sweep report``."""
        active = self.series["active"]
        capacity = self.series["capacity"]
        utilization = active / np.maximum(capacity, 1)
        return {
            "live_peak_active": float(active.max()),
            "live_mean_active": float(active.mean()),
            "live_mean_utilization": float(utilization.mean()),
            "live_admitted": float(self.series["admitted"].sum()),
            "live_rejected": float(self.series["rejected"].sum()),
            "live_evacuated": float(self.series["evacuated"].sum()),
            "live_displaced": float(self.series["displaced"].sum()),
            "live_down_server_ticks": float(
                self.series["down_servers"].sum()),
            "live_fault_ticks": float(len(self.fault_ticks)),
        }

    def format(self) -> str:
        """Human-readable live-run report."""
        m = self.metrics()
        active = self.series["active"]
        lines = [
            f"Live platform run: {self.ticks} ticks x "
            f"{self.tick_minutes} min, {self.sites} sites / "
            f"{self.servers} servers, arrivals ~{self.arrival_rate:g}/tick, "
            f"autoscale {self.autoscale}, faults {self.fault_profile}",
            f"fleet: peak {int(m['live_peak_active'])} active VMs "
            f"(mean {m['live_mean_active']:.1f}), mean utilization "
            f"{m['live_mean_utilization']:.3f}",
            f"admission: {int(m['live_admitted'])} admitted, "
            f"{int(m['live_rejected'])} rejected",
            f"faults: {len(self.fault_ticks)} fault ticks, "
            f"{int(m['live_evacuated'])} VMs evacuated, "
            f"{int(m['live_displaced'])} displaced, "
            f"{int(m['live_down_server_ticks'])} server-ticks down",
            "",
            f"{'tick window':<14} {'active p50':>11} {'active p95':>11} "
            f"{'active max':>11}",
        ]
        quarters = max(self.ticks // 4, 1)
        for start in range(0, self.ticks, quarters):
            window = active[start:start + quarters]
            lines.append(
                f"[{start:>5}..{min(start + quarters, self.ticks):>5}) "
                f"{int(np.percentile(window, 50)):>11} "
                f"{int(np.percentile(window, 95)):>11} "
                f"{int(window.max()):>11}")
        lines.append("")
        lines.append(f"digest: {self.digest[:16]}")
        return "\n".join(lines)


def _result(inputs: LiveInputs, scenario_fields: dict[str, object],
            series: dict[str, np.ndarray],
            fault_ticks: list[int]) -> LiveResult:
    return LiveResult(
        ticks=inputs.ticks,
        tick_minutes=inputs.tick_minutes,
        sites=inputs.n_sites,
        servers=inputs.n_servers,
        arrival_rate=float(scenario_fields.get("arrival_rate", 0.0)),
        autoscale="on" if inputs.autoscale else "off",
        fault_profile=str(scenario_fields.get("fault_profile", "off")),
        series=series,
        fault_ticks=tuple(fault_ticks),
        digest=digest_series(series),
    )


def run_live_engine(inputs: LiveInputs, journal=None,
                    scenario_fields: dict[str, object] | None = None,
                    ) -> LiveResult:
    """Advance the fleet over every tick with array ops only.

    Per tick, in contract order: (1) fault transitions — newly-down
    servers evacuate, evacuees re-place onto free up-slots by
    largest-remainder weights; (2) error-diffusion departures; (3)
    arrival admission over the remaining free slots; (4) EWMA-driven
    autoscaling within ``[base, 2*base]`` slots.

    ``journal`` receives one volatile ``live_tick`` event per tick and
    a canonical ``live_fault`` event per fault tick.
    """
    n = inputs.n_servers
    slots = inputs.base_slots.copy()
    base = inputs.base_slots
    max_slots = base * 2
    grow = np.maximum(base // 8, 1)
    active = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.float64)
    ewma = np.zeros(n, dtype=np.float64)
    down_count = np.zeros(n, dtype=np.int64)
    p = inputs.departure_p

    by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for tick, lo, hi, delta in inputs.transitions:
        by_tick.setdefault(tick, []).append((lo, hi, delta))

    series = {name: np.zeros(inputs.ticks, dtype=np.int64)
              for name in SERIES}
    fault_ticks: list[int] = []

    def allocate(total: int, free: np.ndarray) -> np.ndarray:
        """Largest-remainder split of ``total`` over free-slot weights.

        All-integer arithmetic (``free * placed // capacity`` with exact
        remainders), so the split is bit-identical to the scalar
        reference with no float-rounding hazard; remainder +1s go to
        the largest remainders, lowest server index breaking ties.
        """
        out = np.zeros(n, dtype=np.int64)
        capacity = int(free.sum())
        placed = min(total, capacity)
        if placed <= 0:
            return out
        scaled = free * placed
        np.floor_divide(scaled, capacity, out=out)
        leftover = placed - int(out.sum())
        if leftover > 0:
            remainder = scaled - out * capacity
            order = np.argsort(-remainder, kind="stable")[:leftover]
            out[order] += 1
        return out

    for t in range(inputs.ticks):
        evacuated = displaced = 0
        changes = by_tick.get(t)
        if changes:
            was_down = down_count > 0
            for lo, hi, delta in changes:
                down_count[lo:hi] += delta
            now_down = down_count > 0
            newly_down = now_down & ~was_down
            if newly_down.any():
                evacuated = int(active[newly_down].sum())
                active[newly_down] = 0
                acc[newly_down] = 0.0
            up = ~now_down
            if evacuated:
                free = np.where(up, slots - active, 0)
                moved = allocate(evacuated, free)
                np.add(active, moved, out=active)
                displaced = evacuated - int(moved.sum())
            fault_ticks.append(t)
            if journal is not None:
                journal.emit("live_fault", tick=t,
                             down=int(now_down.sum()),
                             evacuated=evacuated,
                             displaced=displaced)
        up = down_count == 0

        np.add(acc, active * p, out=acc)
        departed = np.floor(acc).astype(np.int64)
        np.subtract(acc, departed, out=acc)
        np.subtract(active, departed, out=active)

        n_arrivals = int(inputs.arrivals[t])
        free = np.where(up, slots - active, 0)
        placed = allocate(n_arrivals, free)
        np.add(active, placed, out=active)
        admitted = int(placed.sum())

        util = active / slots
        ewma_next = EWMA_ALPHA * util + (1.0 - EWMA_ALPHA) * ewma
        ewma[:] = ewma_next
        if inputs.autoscale:
            slots[:] = np.where(ewma > SCALE_UP_UTIL,
                                np.minimum(slots + grow, max_slots),
                                slots)
            slots[:] = np.where(ewma < SCALE_DOWN_UTIL,
                                np.maximum(slots - grow, base),
                                slots)

        series["active"][t] = int(active.sum())
        series["capacity"][t] = int(slots[up].sum())
        series["down_servers"][t] = int((~up).sum())
        series["arrivals"][t] = n_arrivals
        series["admitted"][t] = admitted
        series["rejected"][t] = n_arrivals - admitted
        series["departures"][t] = int(departed.sum())
        series["evacuated"][t] = evacuated
        series["displaced"][t] = displaced
        if journal is not None:
            journal.emit("live_tick", tick=t,
                         active=int(series["active"][t]),
                         down=int(series["down_servers"][t]),
                         admitted=admitted,
                         rejected=int(series["rejected"][t]))

    return _result(inputs, scenario_fields or {}, series, fault_ticks)


def run_live(scenario: Scenario, journal=None) -> LiveResult:
    """The full live study phase: topology, fault weather, tick loop.

    Builds the NEP topology (no VM placement — the live engine owns its
    population), lowers the scenario's fault profile to tick
    transitions, and runs the vectorized stepper.  Tick stepping is
    sequential, so the phase takes no worker count.
    """
    from ..faults.schedule import build_fault_schedule
    from ..platform.cloud import build_cloud_platform
    from ..platform.nep import build_nep_platform

    platform = build_nep_platform(scenario)
    faults = None
    if scenario.fault_profile != "off":
        cloud = build_cloud_platform(scenario, name="AliCloud",
                                     servers_per_region=4)
        faults = build_fault_schedule(scenario, platform, cloud)
    inputs = build_live_inputs(scenario, platform, faults)
    result = run_live_engine(
        inputs, journal=journal,
        scenario_fields={"arrival_rate": scenario.live_arrival_rate,
                         "fault_profile": scenario.fault_profile})
    if journal is not None:
        journal.emit("live_summary", ticks=result.ticks,
                     servers=result.servers,
                     fault_ticks=len(result.fault_ticks),
                     rejected=int(result.series["rejected"].sum()),
                     displaced=int(result.series["displaced"].sum()),
                     digest=result.digest)
    return result
