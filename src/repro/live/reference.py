"""Scalar per-server reference stepper for the live engine.

This is the engine the vectorized stepper is benchmarked against and
validated against: plain Python loops over every server, one at a
time, following *exactly* the same per-tick contract and integer
arithmetic as :func:`repro.live.engine.run_live_engine`.  Both steppers
consume the same precomputed :class:`~repro.live.engine.LiveInputs`
(all randomness is drawn before the loop), so their per-tick series —
and therefore their digests — must be bit-identical; the test suite
pins that, and ``scripts/probe.py engines`` pins the vectorized
stepper's speedup over this one.

Keep this file boring.  No numpy in the loop, no cleverness: its whole
value is being an obviously-correct spelling of the contract.
"""

from __future__ import annotations

import numpy as np

from .engine import (EWMA_ALPHA, SCALE_DOWN_UTIL, SCALE_UP_UTIL, SERIES,
                     LiveInputs, LiveResult, digest_series)


def _allocate(total: int, free: list[int]) -> list[int]:
    """Scalar twin of the engine's integer largest-remainder split."""
    n = len(free)
    out = [0] * n
    capacity = sum(free)
    placed = min(total, capacity)
    if placed <= 0:
        return out
    remainder = [0] * n
    floored = 0
    for i in range(n):
        scaled = free[i] * placed
        out[i] = scaled // capacity
        remainder[i] = scaled - out[i] * capacity
        floored += out[i]
    leftover = placed - floored
    if leftover > 0:
        order = sorted(range(n), key=lambda i: (-remainder[i], i))
        for i in order[:leftover]:
            out[i] += 1
    return out


def run_reference_engine(inputs: LiveInputs) -> LiveResult:
    """Advance the fleet with per-server Python loops; no array ops.

    Same contract order as the vectorized stepper: fault transitions
    and evacuation, error-diffusion departures, arrival admission,
    EWMA autoscaling.  No journal and no failpoints — this stepper
    exists to validate and benchmark, not to run studies.
    """
    n = inputs.n_servers
    base = [int(b) for b in inputs.base_slots]
    slots = list(base)
    max_slots = [b * 2 for b in base]
    grow = [max(b // 8, 1) for b in base]
    active = [0] * n
    acc = [0.0] * n
    ewma = [0.0] * n
    down_count = [0] * n
    p = inputs.departure_p

    by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for tick, lo, hi, delta in inputs.transitions:
        by_tick.setdefault(tick, []).append((lo, hi, delta))

    series = {name: np.zeros(inputs.ticks, dtype=np.int64)
              for name in SERIES}
    fault_ticks: list[int] = []

    for t in range(inputs.ticks):
        evacuated = displaced = 0
        changes = by_tick.get(t)
        if changes:
            was_down = [c > 0 for c in down_count]
            for lo, hi, delta in changes:
                for i in range(lo, hi):
                    down_count[i] += delta
            for i in range(n):
                if down_count[i] > 0 and not was_down[i]:
                    evacuated += active[i]
                    active[i] = 0
                    acc[i] = 0.0
            if evacuated:
                free = [slots[i] - active[i] if down_count[i] == 0 else 0
                        for i in range(n)]
                moved = _allocate(evacuated, free)
                migrated = 0
                for i in range(n):
                    active[i] += moved[i]
                    migrated += moved[i]
                displaced = evacuated - migrated
            fault_ticks.append(t)

        departed = 0
        for i in range(n):
            acc[i] += active[i] * p
            gone = int(acc[i])
            if gone:
                acc[i] -= gone
                active[i] -= gone
                departed += gone

        n_arrivals = int(inputs.arrivals[t])
        free = [slots[i] - active[i] if down_count[i] == 0 else 0
                for i in range(n)]
        placed = _allocate(n_arrivals, free)
        admitted = 0
        for i in range(n):
            active[i] += placed[i]
            admitted += placed[i]

        for i in range(n):
            util = active[i] / slots[i]
            ewma[i] = EWMA_ALPHA * util + (1.0 - EWMA_ALPHA) * ewma[i]
            if inputs.autoscale:
                if ewma[i] > SCALE_UP_UTIL:
                    slots[i] = min(slots[i] + grow[i], max_slots[i])
                if ewma[i] < SCALE_DOWN_UTIL:
                    slots[i] = max(slots[i] - grow[i], base[i])

        up_capacity = down = total_active = 0
        for i in range(n):
            total_active += active[i]
            if down_count[i] > 0:
                down += 1
            else:
                up_capacity += slots[i]
        series["active"][t] = total_active
        series["capacity"][t] = up_capacity
        series["down_servers"][t] = down
        series["arrivals"][t] = n_arrivals
        series["admitted"][t] = admitted
        series["rejected"][t] = n_arrivals - admitted
        series["departures"][t] = departed
        series["evacuated"][t] = evacuated
        series["displaced"][t] = displaced

    return LiveResult(
        ticks=inputs.ticks,
        tick_minutes=inputs.tick_minutes,
        sites=inputs.n_sites,
        servers=n,
        arrival_rate=0.0,
        autoscale="on" if inputs.autoscale else "off",
        fault_profile="off",
        series=series,
        fault_ticks=tuple(fault_ticks),
        digest=digest_series(series),
    )
