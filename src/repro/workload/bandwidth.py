"""Per-VM public/private bandwidth series generators.

Bandwidth follows the same seasonal structure as CPU, but with a heavier
diurnal swing (video traffic collapses overnight) and, for "erratic" VMs,
a regime-switching base level reproducing Figure 12's unpredictable
weekly averages.  Private (intra-site) traffic is a small fraction of
public traffic — NEP logs both (§2.1.2 item 4).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .apps import AppProfile
from .patterns import ar1_noise_batch, pattern, regime_switching_levels

#: Short traffic spikes (flash crowds) on top of the seasonal shape.
#: Kept small: NEP bills the *daily peak*, so heavy spikes would dominate
#: every bill, which is not what Table 3's ratios show.
SPIKE_PROBABILITY = 0.0008
SPIKE_SCALE = (1.3, 2.0)

#: Private traffic runs at a few percent of public for edge video apps.
PRIVATE_FRACTION_RANGE = (0.01, 0.08)


def generate_bw_series_batch(profile: AppProfile, mean_mbps: np.ndarray,
                             minutes: np.ndarray, rng: np.random.Generator,
                             erratic: np.ndarray | None = None,
                             season: np.ndarray | None = None) -> np.ndarray:
    """Generate public bandwidth rows (Mbps) for a whole fleet at once.

    Args:
        profile: the app category's workload profile.
        mean_mbps: per-VM target mean public bandwidths.
        minutes: time axis.
        rng: the fleet's random stream.
        erratic: optional boolean mask; True rows get a regime-switching
            level — the unpredictable VMs of Figure 12.
        season: optional precomputed ``pattern(profile.pattern_name)(minutes)``.

    Returns:
        A ``(len(mean_mbps), len(minutes))`` non-negative array.

    Raises:
        ConfigurationError: if any mean bandwidth is negative.
    """
    mean_mbps = np.asarray(mean_mbps, dtype=np.float64)
    if mean_mbps.size == 0:
        raise ConfigurationError("mean_mbps must be non-empty")
    if np.any(mean_mbps < 0):
        raise ConfigurationError(
            f"mean bandwidths must be non-negative, got {mean_mbps!r}"
        )
    count = mean_mbps.size
    points = minutes.size
    if season is None:
        season = pattern(profile.pattern_name)(minutes)
    # Bandwidth swings harder with the season than CPU does: keep the
    # seasonal weight but square-root the residual floor so traffic almost
    # vanishes off-peak for strongly seasonal categories.
    w = min(1.0, profile.seasonal_weight * 1.15)
    shape = w * season + (1.0 - w)
    series = ar1_noise_batch(count, points, rng, rho=profile.noise_rho,
                             sigma=profile.noise_sigma * 1.3)
    series *= shape[None, :]
    series *= mean_mbps[:, None]
    if erratic is not None and erratic.any():
        series[erratic] *= regime_switching_levels(
            int(erratic.sum()), points, rng)
    spikes = rng.random((count, points)) < SPIKE_PROBABILITY
    n_spikes = int(spikes.sum())
    if n_spikes:
        series[spikes] *= rng.uniform(*SPIKE_SCALE, size=n_spikes)
    return np.maximum(series, 0.0, out=series)


def derive_private_series_batch(public_series: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
    """Intra-site traffic rows derived from the public rows."""
    count, points = public_series.shape
    fractions = rng.uniform(*PRIVATE_FRACTION_RANGE, size=count)
    wobble = ar1_noise_batch(count, points, rng, rho=0.8, sigma=0.3)
    wobble *= public_series
    wobble *= fractions[:, None]
    return wobble


def peak_to_mean_ratio(series: np.ndarray) -> float:
    """Max over mean of a bandwidth series; the §4.5 variance indicator.

    Returns 0.0 for an all-zero series.
    """
    mean = float(series.mean())
    if mean == 0.0:
        return 0.0
    return float(series.max() / mean)
