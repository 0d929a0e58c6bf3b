"""Ping test runner: repeated RTT probes over one route.

Mirrors the speed-testing app of §2.1.1: each (user, target) pair is
probed 30 times; the analysis keeps the mean RTT and its coefficient of
variation, plus one traceroute for the hop-level views.

Summary statistics are computed inside the batch engine, so
:class:`PingResult` no longer has to retain the full 30-sample tuple per
observation — pass ``keep_samples=True`` to get it back.  A campaign of
thousands of observations keeps only two floats each.

Fault injection enters here through two optional per-route vectors:
``loss_probability`` drops individual pings (an all-lost route yields a
well-defined *failed* result — zero mean, zero CV — never NaN), and
``extra_latency_ms`` adds a degradation episode's latency penalty to
every surviving ping.  With both left at ``None`` the code path and the
RNG draw sequence are identical to the fault-free engine.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..errors import MeasurementError
from ..netsim.latency import LatencyModel
from ..netsim.path import Route
from ..netsim.traceroute import TracerouteResult, traceroute_from_row


class PingResult(NamedTuple):
    """Summary of one repeated-ping test, with loss accounting."""

    target_label: str
    mean_ms: float
    std_ms: float
    traceroute: TracerouteResult
    #: The raw per-ping RTTs; retained only when requested (memory).
    samples_ms: tuple[float, ...] | None = None
    #: Pings issued / pings lost.  A result with every ping lost is a
    #: *failed* probe; its statistics stay well-defined zeros.
    sent: int = 0
    lost: int = 0

    @property
    def cv(self) -> float:
        if self.mean_ms == 0.0:
            return 0.0
        return self.std_ms / self.mean_ms

    @property
    def hop_count(self) -> int:
        return self.traceroute.hop_count

    @property
    def failed(self) -> bool:
        """True when every issued ping was lost (probe timed out)."""
        return self.sent > 0 and self.lost >= self.sent

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0


def _result_from_matrix(route: Route, matrix: np.ndarray, repetitions: int,
                        keep_samples: bool) -> PingResult:
    """Fold one ``(repetitions + 1, n_hops)`` draw into a PingResult.

    The final row is the traceroute's per-hop breakdown; the rows before
    it are the repeated pings.
    """
    totals = matrix[:-1].sum(axis=1)
    return PingResult(
        target_label=route.target_label,
        mean_ms=float(totals.mean()),
        std_ms=float(totals.std()),
        traceroute=traceroute_from_row(route, matrix[-1]),
        samples_ms=tuple(float(x) for x in totals) if keep_samples else None,
        sent=repetitions,
        lost=0,
    )


def run_ping_test(route: Route, repetitions: int, rng: np.random.Generator,
                  keep_samples: bool = False) -> PingResult:
    """Probe ``route`` ``repetitions`` times and traceroute it once.

    Raises:
        MeasurementError: if repetitions is not positive.
    """
    if repetitions <= 0:
        raise MeasurementError(
            f"repetitions must be positive, got {repetitions}"
        )
    model = LatencyModel(rng)
    matrix = model.sample_matrix(route, repetitions + 1)
    return _result_from_matrix(route, matrix, repetitions, keep_samples)


def run_ping_tests(routes: Sequence[Route], repetitions: int,
                   rng: np.random.Generator,
                   keep_samples: bool = False,
                   loss_probability: np.ndarray | Sequence[float] | None = None,
                   extra_latency_ms: np.ndarray | Sequence[float] | None = None,
                   loss_rng: np.random.Generator | None = None,
                   ) -> list[PingResult]:
    """Probe many routes in one vectorised pass (one result per route).

    All routes' pings and traceroutes are drawn by a single
    :meth:`~repro.netsim.latency.LatencyModel.sample_routes_block` call —
    this is the campaign's hot path.

    ``loss_probability`` (one value per route) drops individual pings via
    Bernoulli draws from ``loss_rng`` (default: ``rng``); statistics are
    computed over the surviving pings only, and a route whose every ping
    is lost returns a failed result with ``mean_ms = std_ms = 0.0``.
    ``extra_latency_ms`` (one value per route) is added to each surviving
    ping.  Both default to ``None``, which skips every fault-related RNG
    draw — the fault-free path is bit-identical to the historic engine.

    Raises:
        MeasurementError: if repetitions is not positive, or a fault
            vector has the wrong length or an out-of-range probability.
    """
    if repetitions <= 0:
        raise MeasurementError(
            f"repetitions must be positive, got {repetitions}"
        )
    if not routes:
        return []
    model = LatencyModel(rng)
    block, starts = model.sample_routes_block(routes, repetitions + 1)
    # Per-route RTT sums straight off the undivided block: reduceat gives
    # a (repetitions + 1, n_routes) matrix of end-to-end samples, and the
    # summary statistics of every route fall out of two axis reductions.
    sums = np.add.reduceat(block, starts, axis=1)
    ping_sums = sums[:-1]

    if extra_latency_ms is not None:
        extra = np.asarray(extra_latency_ms, dtype=float)
        if extra.shape != (len(routes),):
            raise MeasurementError(
                f"extra_latency_ms needs one value per route, got shape "
                f"{extra.shape} for {len(routes)} routes"
            )
        if np.any(extra < 0):
            raise MeasurementError("extra_latency_ms must be non-negative")
        ping_sums = ping_sums + extra

    if loss_probability is not None:
        lp = np.asarray(loss_probability, dtype=float)
        if lp.shape != (len(routes),):
            raise MeasurementError(
                f"loss_probability needs one value per route, got shape "
                f"{lp.shape} for {len(routes)} routes"
            )
        if np.any((lp < 0.0) | (lp > 1.0)):
            raise MeasurementError("loss probabilities must be in [0, 1]")
        draw_rng = loss_rng if loss_rng is not None else rng
        kept = draw_rng.random(ping_sums.shape) >= lp
        counts = kept.sum(axis=0)
        safe = np.maximum(counts, 1)
        means = np.where(kept, ping_sums, 0.0).sum(axis=0) / safe
        variance = np.where(kept, (ping_sums - means) ** 2,
                            0.0).sum(axis=0) / safe
        stds = np.sqrt(variance)
        means = np.where(counts > 0, means, 0.0)
        stds = np.where(counts > 0, stds, 0.0)
        lost = repetitions - counts
    else:
        kept = None
        means = ping_sums.mean(axis=0)
        stds = ping_sums.std(axis=0)
        lost = np.zeros(len(routes), dtype=np.intp)

    trace_row = block[-1]
    ends = np.concatenate((starts[1:], [block.shape[1]]))
    results = []
    for j, route in enumerate(routes):
        if keep_samples:
            column = ping_sums[:, j]
            if kept is not None:
                column = column[kept[:, j]]
            samples = tuple(column.tolist())
        else:
            samples = None
        results.append(PingResult(
            target_label=route.target_label,
            mean_ms=float(means[j]),
            std_ms=float(stds[j]),
            traceroute=traceroute_from_row(
                route, trace_row[starts[j]:ends[j]]),
            samples_ms=samples,
            sent=repetitions,
            lost=int(lost[j]),
        ))
    return results
