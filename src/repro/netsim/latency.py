"""RTT sampling over routes: propagation + queueing jitter + loss spikes.

Each ping sample sums per-hop draws:

* a Gaussian term around each hop's mean (steady-state queueing noise);
* an occasional heavy-tail spike on METRO/BACKBONE/DC hops, modelling
  transient congestion.  Backbone-rich cloud paths accumulate more spike
  probability, which is what pushes their RTT CV to ~5x the nearest edge's
  (Figure 2(b)) and up to ~30x for the farthest sites.

Sampling is batched: :meth:`LatencyModel.sample_matrix` draws the whole
``(count, n_hops)`` matrix of normals, Bernoulli spike masks, and
exponential magnitudes in three NumPy calls, and
:meth:`LatencyModel.sample_routes_block` extends that to *many* routes in
one pass by concatenating their hop parameter vectors.  A campaign that
previously issued ~1M scalar RNG calls now issues a few thousand array
calls.  The per-cell distributions are unchanged, but the RNG *draw
order* differs from the historical scalar loop — see
``docs/calibration.md`` ("Draw order").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import MeasurementError
from .path import Hop, HopKind, Route

#: Per-sample probability that a non-access hop adds a congestion spike.
SPIKE_PROBABILITY = {
    HopKind.ACCESS: 0.002,
    HopKind.METRO: 0.004,
    HopKind.BACKBONE: 0.035,
    HopKind.DC: 0.006,
}

#: Mean of the exponential spike magnitude (ms) per hop kind.
SPIKE_SCALE_MS = {
    HopKind.ACCESS: 1.0,
    HopKind.METRO: 1.5,
    HopKind.BACKBONE: 6.0,
    HopKind.DC: 2.0,
}

#: Floor applied to every per-hop draw (a hop never "gains time").
MIN_HOP_MS = 0.01

#: Index-keyed views of the spike tables.  Enum dict lookups go through a
#: Python-level ``__hash__`` per hop; tagging each HopKind member with a
#: dense integer index lets :func:`_hop_params` gather spike parameters
#: with two NumPy fancy-index reads instead of 2N dict probes.
_SPIKE_P_BY_INDEX = np.array([SPIKE_PROBABILITY[k] for k in HopKind])
_SPIKE_SCALE_BY_INDEX = np.array([SPIKE_SCALE_MS[k] for k in HopKind])
for _index, _kind in enumerate(HopKind):
    _kind.spike_index = _index
del _index, _kind


@dataclass(frozen=True)
class RTTSample:
    """One ping result with its per-hop breakdown."""

    total_ms: float
    per_hop_ms: tuple[float, ...]


def _hop_params(hops: Sequence[Hop]) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """Per-hop (means, jitter SDs, spike probs, spike scales) vectors."""
    # Hop is a NamedTuple: positional reads below are plain tuple indexing
    # (fields 2 = mean_rtt_ms, 3 = jitter_sd_ms, 1 = kind), and fromiter
    # fills each column in one C-level pass.
    n = len(hops)
    means = np.fromiter((hop[2] for hop in hops), np.float64, n)
    sds = np.fromiter((hop[3] for hop in hops), np.float64, n)
    kind_idx = np.fromiter((hop[1].spike_index for hop in hops), np.intp, n)
    return (means, sds,
            _SPIKE_P_BY_INDEX[kind_idx], _SPIKE_SCALE_BY_INDEX[kind_idx])


class LatencyModel:
    """Samples end-to-end and per-hop RTTs for a route."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    # ---- scalar path (kept for per-hop introspection) -------------------

    def sample_hop_ms(self, hop: Hop) -> float:
        """One RTT contribution draw for a single hop (never negative)."""
        value = hop.mean_rtt_ms + float(self._rng.normal(0.0, hop.jitter_sd_ms))
        if self._rng.random() < SPIKE_PROBABILITY[hop.kind]:
            value += float(self._rng.exponential(SPIKE_SCALE_MS[hop.kind]))
        return max(value, MIN_HOP_MS)

    def sample(self, route: Route) -> RTTSample:
        """One end-to-end ping with per-hop contributions."""
        per_hop = tuple(self.sample_hop_ms(hop) for hop in route.hops)
        return RTTSample(total_ms=sum(per_hop), per_hop_ms=per_hop)

    # ---- batch engine ----------------------------------------------------

    def sample_matrix(self, route: Route, count: int) -> np.ndarray:
        """``count`` per-hop RTT draws as a ``(count, n_hops)`` matrix.

        The whole matrix is drawn in three vectorised RNG calls: Gaussian
        jitter, Bernoulli spike masks, and exponential spike magnitudes.
        Row sums are end-to-end pings; a single row is a traceroute's
        per-hop breakdown.

        Raises:
            MeasurementError: if ``count`` is not positive.
        """
        if count <= 0:
            raise MeasurementError(f"sample count must be positive, got {count}")
        means, sds, spike_p, spike_scale = _hop_params(route.hops)
        return self._draw(means, sds, spike_p, spike_scale, count)

    def sample_routes_block(self, routes: Sequence[Route],
                            count: int) -> tuple[np.ndarray, np.ndarray]:
        """The undivided ``(count, total_hops)`` block plus segment starts.

        ``starts[i]`` is the column where route ``i``'s hops begin — the
        exact form :func:`numpy.add.reduceat` wants, so callers can compute
        per-route RTT sums without splitting the block first.  All routes'
        hop parameters are concatenated so the normals, spike masks, and
        magnitudes for the whole batch come from single NumPy calls; this
        is what :func:`repro.measurement.ping.run_ping_tests` uses to probe
        all of a participant's targets at once.

        Raises:
            MeasurementError: if ``count`` is not positive.
        """
        if count <= 0:
            raise MeasurementError(f"sample count must be positive, got {count}")
        if not routes:
            return np.empty((count, 0)), np.empty(0, dtype=np.intp)
        # One flattened parameter pass over every hop of every route —
        # cheaper than per-route extraction plus concatenation.
        flat_hops = [hop for route in routes for hop in route.hops]
        means, sds, spike_p, spike_scale = _hop_params(flat_hops)
        block = self._draw(means, sds, spike_p, spike_scale, count)
        hop_counts = np.array([route.hop_count for route in routes])
        starts = np.concatenate(([0], np.cumsum(hop_counts[:-1])))
        return block, starts

    def _draw(self, means: np.ndarray, sds: np.ndarray, spike_p: np.ndarray,
              spike_scale: np.ndarray, count: int) -> np.ndarray:
        rng = self._rng
        shape = (count, means.size)
        values = rng.standard_normal(shape)
        values *= sds
        values += means
        spikes = rng.exponential(1.0, size=shape)
        spikes *= spike_scale
        spikes *= rng.random(shape) < spike_p
        values += spikes
        return np.maximum(values, MIN_HOP_MS, out=values)

    # ---- aggregates ------------------------------------------------------

    def sample_many(self, route: Route, count: int) -> np.ndarray:
        """``count`` end-to-end RTT draws (the 30-ping repetition of §2.1.1)."""
        return self.sample_matrix(route, count).sum(axis=1)

    def mean_and_cv(self, route: Route, count: int) -> tuple[float, float]:
        """Mean RTT and coefficient of variation over ``count`` pings."""
        samples = self.sample_many(route, count)
        mean = float(samples.mean())
        if mean == 0.0:
            return 0.0, 0.0
        return mean, float(samples.std() / mean)
