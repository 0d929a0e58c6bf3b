"""Seasonal usage-pattern library.

§4.4 attributes the edge's stronger seasonality to "services deployed on
edges follow[ing] end users' daily activities".  Each named pattern maps a
time axis (minutes since trace start, day 0 = Monday) onto a multiplicative
activity level normalised to mean ≈ 1.0.  Generators combine a pattern with
a base level, noise, and bursts to produce a VM's usage series.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from ..errors import ConfigurationError

MINUTES_PER_DAY = 24 * 60
DAYS_PER_WEEK = 7


def time_axis_minutes(days: int, interval_minutes: int) -> np.ndarray:
    """Timestamps (minutes since start) for a trace of ``days`` days."""
    if days <= 0 or interval_minutes <= 0:
        raise ConfigurationError("days and interval must be positive")
    points = days * MINUTES_PER_DAY // interval_minutes
    return np.arange(points, dtype=np.float64) * interval_minutes


def _hour_of_day(minutes: np.ndarray) -> np.ndarray:
    return (minutes % MINUTES_PER_DAY) / 60.0


def _day_of_week(minutes: np.ndarray) -> np.ndarray:
    return (minutes // MINUTES_PER_DAY) % DAYS_PER_WEEK


def _normalise(curve: np.ndarray) -> np.ndarray:
    mean = curve.mean()
    if mean <= 0:
        raise ConfigurationError("pattern collapsed to non-positive mean")
    return curve / mean


def evening_entertainment(minutes: np.ndarray) -> np.ndarray:
    """Video streaming / gaming: low overnight, strong 19:00–23:00 peak."""
    hours = _hour_of_day(minutes)
    base = 0.25 + 0.35 * np.exp(-0.5 * ((hours - 13.0) / 3.2) ** 2)
    evening = 1.9 * np.exp(-0.5 * ((hours - 21.0) / 1.8) ** 2)
    weekend = np.where(_day_of_week(minutes) >= 5, 1.25, 1.0)
    return _normalise((base + evening) * weekend)


def school_hours(minutes: np.ndarray) -> np.ndarray:
    """Online education: sharp 9:00–12:00 peak, weekday-heavy (§4.5)."""
    hours = _hour_of_day(minutes)
    morning = 2.6 * np.exp(-0.5 * ((hours - 10.5) / 1.2) ** 2)
    evening_class = 0.9 * np.exp(-0.5 * ((hours - 19.5) / 1.0) ** 2)
    weekday = np.where(_day_of_week(minutes) < 5, 1.0, 0.45)
    return _normalise((0.08 + morning + evening_class) * weekday)


def business_hours(minutes: np.ndarray) -> np.ndarray:
    """Video/audio communication: 9:00–18:00 plateau, weekday-dominated."""
    hours = _hour_of_day(minutes)
    plateau = np.where((hours >= 9.0) & (hours <= 18.0), 1.0, 0.0)
    ramp = np.exp(-0.5 * ((hours - 13.5) / 5.0) ** 2)
    weekday = np.where(_day_of_week(minutes) < 5, 1.0, 0.35)
    return _normalise((0.15 + plateau * 0.7 + ramp * 0.8) * weekday)


def flat(minutes: np.ndarray) -> np.ndarray:
    """Surveillance-style constant load (cameras stream around the clock)."""
    return np.ones_like(minutes, dtype=np.float64)


def daytime_broad(minutes: np.ndarray) -> np.ndarray:
    """CDN-style broad daytime curve with an evening shoulder."""
    hours = _hour_of_day(minutes)
    curve = 0.35 + np.exp(-0.5 * ((hours - 16.0) / 5.0) ** 2)
    return _normalise(curve)


def cloud_batch(minutes: np.ndarray) -> np.ndarray:
    """Cloud batch/dev workloads: mild business-hours tilt only."""
    hours = _hour_of_day(minutes)
    curve = 0.70 + 0.45 * np.exp(-0.5 * ((hours - 14.0) / 6.0) ** 2)
    weekday = np.where(_day_of_week(minutes) < 5, 1.0, 0.85)
    return _normalise(curve * weekday)


PATTERNS = {
    "evening_entertainment": evening_entertainment,
    "school_hours": school_hours,
    "business_hours": business_hours,
    "flat": flat,
    "daytime_broad": daytime_broad,
    "cloud_batch": cloud_batch,
}


def pattern(name: str):
    """Look up a pattern by name.

    Raises:
        ConfigurationError: for unknown pattern names.
    """
    try:
        return PATTERNS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown pattern {name!r}; available: {sorted(PATTERNS)}"
        ) from None


def regime_switching_levels(count: int, points: int,
                            rng: np.random.Generator,
                            switch_probability: float = 0.004,
                            low: float = 0.2, high: float = 2.5) -> np.ndarray:
    """``count`` independent piecewise-constant multiplier rows at once.

    Models the "dramatic and unpredictable" weekly bandwidth swings of
    Figure 12's VM-1/VM-2: occasionally the level re-draws uniformly in
    [low, high] and holds until the next switch.  Segment boundaries for
    every row come from one Bernoulli matrix; one flat uniform draw then
    supplies the levels of all rows' segments.
    """
    if not 0.0 < switch_probability < 1.0:
        raise ConfigurationError(
            f"switch probability must be in (0, 1), got {switch_probability}"
        )
    if count <= 0 or points <= 0:
        raise ConfigurationError("count and points must be positive")
    switches = rng.random((count, points)) < switch_probability
    switches[:, 0] = True  # segment 0 of each row needs a level too
    segment_ids = np.cumsum(switches, axis=1) - 1
    segments_per_row = segment_ids[:, -1] + 1
    offsets = np.concatenate(([0], np.cumsum(segments_per_row)[:-1]))
    levels = rng.uniform(low, high, size=int(segments_per_row.sum()))
    return levels[segment_ids + offsets[:, None]]


def ar1_noise_batch(count: int, points: int, rng: np.random.Generator,
                    rho: float = 0.9, sigma: float = 0.15) -> np.ndarray:
    """``count`` independent AR(1) noise rows as one ``(count, points)`` array.

    Each row is smooth multiplicative noise centred on 1.0, floored at
    0.05.  AR(1) rather than white noise: consecutive usage readings of a
    real VM are strongly autocorrelated, and the §4.4 predictability
    experiment depends on that.  All innovations come from a single
    normal draw and the recursion runs as one
    :func:`scipy.signal.lfilter` along axis 1.
    """
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(f"rho must be in [0, 1), got {rho}")
    if count <= 0 or points <= 0:
        raise ConfigurationError("count and points must be positive")
    innovations = rng.standard_normal((count, points))
    innovations *= sigma * np.sqrt(1 - rho * rho)
    noise = lfilter([1.0], [1.0, -rho], innovations, axis=1)
    noise += 1.0
    np.maximum(noise, 0.05, out=noise)
    return noise
