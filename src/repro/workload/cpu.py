"""Per-VM CPU utilisation series generator.

A VM's series combines four components::

    util(t) = level * [ w * season(t) + (1 - w) ] * ar1(t) * burst(t)

clipped to [0, 1], where ``level`` is the VM's mean utilisation drawn from
the category's mixture, ``season`` is the category's diurnal/weekly
pattern, ``ar1`` is smooth autocorrelated noise, and ``burst`` injects the
occasional load spike that drives the "P95 Max" tail of Figure 10(a).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .apps import AppProfile
from .patterns import ar1_noise_batch, pattern

#: Burst magnitude range and hold time (intervals).
BURST_SCALE = (1.6, 3.2)
BURST_HOLD_INTERVALS = 4


def _burst_multipliers(count: int, points: int, probability: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Burst multiplier rows: short multiplicative spikes held a few steps.

    One Bernoulli matrix picks every burst start across all rows; a burst
    magnitude is held for :data:`BURST_HOLD_INTERVALS` steps by taking the
    running maximum over shifted copies of the magnitude matrix.
    """
    hits = rng.random((count, points)) < probability
    magnitudes = np.zeros((count, points), dtype=np.float64)
    n_hits = int(hits.sum())
    if n_hits:
        magnitudes[hits] = rng.uniform(*BURST_SCALE, size=n_hits)
    multiplier = np.ones((count, points), dtype=np.float64)
    for shift in range(BURST_HOLD_INTERVALS):
        if shift >= points:
            break
        np.maximum(multiplier[:, shift:], magnitudes[:, :points - shift],
                   out=multiplier[:, shift:])
    return multiplier


def generate_cpu_series_batch(profile: AppProfile, mean_levels: np.ndarray,
                              minutes: np.ndarray, rng: np.random.Generator,
                              season: np.ndarray | None = None) -> np.ndarray:
    """Generate CPU utilisation rows for a whole fleet of VMs at once.

    Args:
        profile: the app category's workload profile.
        mean_levels: per-VM target mean utilisations, each in (0, 1].
        minutes: time axis from :func:`repro.workload.patterns.time_axis_minutes`.
        rng: the fleet's random stream.
        season: optional precomputed ``pattern(profile.pattern_name)(minutes)``,
            so callers generating many apps with the same pattern can reuse it.

    Returns:
        A ``(len(mean_levels), len(minutes))`` array clipped to [0, 1].

    Raises:
        ConfigurationError: if any mean level is outside (0, 1].
    """
    mean_levels = np.asarray(mean_levels, dtype=np.float64)
    if mean_levels.size == 0:
        raise ConfigurationError("mean_levels must be non-empty")
    if np.any((mean_levels <= 0.0) | (mean_levels > 1.0)):
        raise ConfigurationError(
            f"mean CPU levels must be in (0, 1], got {mean_levels!r}"
        )
    count = mean_levels.size
    points = minutes.size
    if season is None:
        season = pattern(profile.pattern_name)(minutes)
    w = profile.seasonal_weight
    shape = w * season + (1.0 - w)
    series = ar1_noise_batch(count, points, rng, rho=profile.noise_rho,
                             sigma=profile.noise_sigma)
    series *= _burst_multipliers(count, points, profile.burst_probability,
                                 rng)
    series *= shape[None, :]
    series *= mean_levels[:, None]
    return np.clip(series, 0.0, 1.0, out=series)
