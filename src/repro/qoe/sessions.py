"""Vectorized ABR session engine with a bit-identical scalar reference.

Design constraints, in order:

1. **Bit identity.**  :func:`simulate_chunk` (NumPy, all sessions per
   tick) and :func:`simulate_reference` (one Python loop per session)
   must produce *the same bytes*.  Every stochastic draw is therefore a
   pure function of ``(seed, stream, session index, tick)`` — a
   splitmix64 counter hash, not a stateful generator — and each
   session sees the same IEEE operations in the same operand order in
   both engines, though the two are not written alike: the vectorized
   tick works in preallocated buffers, counts rungs with comparisons
   and takes the reference's branches as ``where=`` masks.  The
   per-tick math sticks to IEEE-double add/mul/div/min/compare, where
   NumPy float64 and Python floats round identically; there are no
   transcendentals inside the tick loop.  The pinned golden digests and
   the randomized differential in ``tests/qoe/test_sessions.py``
   enforce the contract.
2. **Bounded memory.**  Sessions run in fixed-size chunks; each chunk
   reduces to four metric vectors that fold into per-metric SHA-256
   digests, :class:`~repro.core.chunks.StreamingHistogram` sketches and
   running sums.  Chunks fold in index order no matter which worker
   finishes first, so results are independent of ``--jobs``.
3. **Chunk-size independence.**  Because randomness is counter-based
   on the *absolute* session index and the digest concatenates chunk
   segments in index order, any chunk size yields the same digest.

The per-session model is a compact Sabre-style player: a session pins
a NEP site (its cache hit ratio comes from :class:`repro.cdn.CdnModel`),
draws a downlink capacity, and each tick observes a throughput sample,
picks a bitrate rung (throughput-EWMA or buffer-occupancy policy), and
downloads one segment whose effective rate is damped by the per-request
RTT — a cache hit at edge RTT, a miss via the origin detour, or (in the
cloud arm) the origin directly.  Startup delay, rebuffer time, played
bitrate and rung switches accumulate per session.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..cdn import CdnModel
from ..config import Scenario
from ..core.chunks import StreamingHistogram
from ..errors import ParallelError
from ..netsim.access import AccessType, access_profile
from ..parallel import TaskFarm
from ..resilience.failpoints import failpoint

#: Wall seconds per simulation tick (one segment per tick).
TICK_S = 1.0

#: Seconds of video per downloaded segment.
SEG_S = 1.0

#: The bitrate ladder (Mbps), lowest rung first.
LADDER_MBPS = (0.75, 1.75, 2.5, 5.0)

#: Playback starts once the buffer first holds this much video.
STARTUP_BUFFER_S = 2.0

#: Client buffer capacity (seconds of video).
BUFFER_CAP_S = 30.0

#: Throughput EWMA weight on the previous estimate.
EWMA_ALPHA = 0.8

#: Safety factor applied to the EWMA before picking a rung.
SAFETY = 0.8

#: Buffer-occupancy ABR thresholds: rung = #thresholds at or below the
#: current buffer level (so ``len(LADDER_MBPS) == len(...) + 1``).
BUFFER_THRESHOLDS_S = (4.0, 8.0, 16.0)

#: Per-tick throughput noise band around the session's capacity.
THROUGHPUT_NOISE = (0.7, 1.3)

#: Round trips charged per segment fetch (request, TLS resumption,
#: TCP sawtooth recovery) — the lever that makes edge RTT visible in
#: throughput, as in Figure 7's web-loading gap.
SEGMENT_RTT_ROUNDS = 8.0

#: A viewer's share of the access downlink under household
#: cross-traffic; scales the WiFi profile down to ABR-relevant rates.
SESSION_SHARE = 0.08

#: The four per-session QoE metrics, in digest order.
METRICS = ("startup_s", "rebuffer_ratio", "mean_bitrate_mbps", "switches")

#: The two experiment arms: edge CDN vs cloud-origin-only.
ARMS = ("edge", "cloud")

#: Histogram geometry per metric: ``(lo, hi, bins)``.  Out-of-range
#: values clamp into the edge bins (StreamingHistogram semantics).
HIST_SPECS = {
    "startup_s": (0.0, 30.0, 300),
    "rebuffer_ratio": (0.0, 1.0, 256),
    "mean_bitrate_mbps": (0.0, 6.0, 256),
    "switches": (0.0, 64.0, 64),
}

#: Default sessions per chunk: a dozen float64 state vectors of this
#: length is ~6 MB — far under any RSS gate, big enough to amortize
#: NumPy dispatch.
CHUNK_SESSIONS = 65_536

#: Counter-RNG stream ids (one per independent draw family).
_STREAM_SITE = 1
_STREAM_CAPACITY = 2
_STREAM_THROUGHPUT = 3
_STREAM_HIT = 4

_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place (wrapping).

    ``scratch`` is a uint64 work buffer of ``z``'s shape; returns ``z``.
    """
    np.add(z, np.uint64(0x9E3779B97F4A7C15), out=z)
    np.bitwise_xor(z, np.right_shift(z, np.uint64(30), out=scratch), out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.bitwise_xor(z, np.right_shift(z, np.uint64(27), out=scratch), out=z)
    np.multiply(z, np.uint64(0x94D9B3F979EB676D), out=z)
    np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=scratch), out=z)
    return z


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on Python ints — bit-equal to :func:`_mix64`."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D9B3F979EB676D) & _MASK64
    return z ^ (z >> 31)


def _stream_base(seed: int, stream: int, tick: int) -> int:
    """Pre-mixed scalar offset for one ``(seed, stream, tick)`` triple.

    Hoisting these two splitmix rounds out of the array math leaves one
    finalizer round per draw — the hot-loop cost of a uniform sample —
    while the final round's avalanche still decorrelates neighbouring
    session indexes.
    """
    z = _mix64_int(((seed & _MASK64)
                    + stream * 0xA24BAED4963EE407) & _MASK64)
    return _mix64_int((z + tick) & _MASK64)


def counter_uniform(seed: int, stream: int, index: np.ndarray,
                    tick: int = 0) -> np.ndarray:
    """Uniform float64 in ``[0, 1)``, a pure function of its arguments.

    ``index`` is the *absolute* session index, so any chunking of the
    session range reproduces the same draws.  The top 53 bits of a
    splitmix64 hash become the mantissa.
    """
    index = np.asarray(index, dtype=np.uint64)
    return _uniform_into(seed, stream, index, tick, np.empty(index.shape),
                         np.empty_like(index), np.empty_like(index))


def _uniform_into(seed: int, stream: int, index: np.ndarray, tick: int,
                  out: np.ndarray, z: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """:func:`counter_uniform` into ``out``, with uint64 work buffers.

    NumPy warns on (perfectly well-defined) wrapping uint64 arithmetic,
    hence the errstate guard.
    """
    with np.errstate(over="ignore"):
        np.add(index, np.uint64(_stream_base(seed, stream, tick)), out=z)
        _mix64(z, scratch)
        np.right_shift(z, np.uint64(11), out=z)
        return np.multiply(z, 2.0 ** -53, out=out)


def _counter_uniform_int(seed: int, stream: int, index: int,
                         tick: int = 0) -> float:
    """Scalar twin of :func:`counter_uniform` (exact same bits)."""
    z = _mix64_int((index + _stream_base(seed, stream, tick)) & _MASK64)
    return (z >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class SessionWorkload:
    """Everything a chunk simulation needs, picklable for farm workers."""

    seed: int
    n_sessions: int
    n_ticks: int
    abr: str
    site_hit_ratios: np.ndarray = field(repr=False)
    hit_rtt_ms: float
    miss_rtt_ms: float
    cloud_rtt_ms: float
    downlink_mean_mbps: float
    downlink_spread: float = 0.6


def _session_statics(workload: SessionWorkload, start: int,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-session site hit probability and downlink capacity (Mbps)."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    n_sites = workload.site_hit_ratios.size
    u_site = counter_uniform(workload.seed, _STREAM_SITE, idx)
    site = np.minimum((u_site * n_sites).astype(np.int64), n_sites - 1)
    hit_p = workload.site_hit_ratios[site]
    u_cap = counter_uniform(workload.seed, _STREAM_CAPACITY, idx)
    spread = workload.downlink_spread
    capacity = workload.downlink_mean_mbps * (
        1.0 - spread + 2.0 * spread * u_cap)
    return hit_p, capacity


def rung_count(values: np.ndarray, edges: tuple[float, ...],
               out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Count the ``edges`` at or below each value, into ``out``.

    ``edges`` ascend.  Both ABR policies pick their rung this way: the
    throughput policy counts ``LADDER_MBPS[1:]`` at or below its safe
    estimate (equal to ``max(searchsorted(ladder, est, "right") - 1,
    0)``), the buffer policy counts ``BUFFER_THRESHOLDS_S`` at or below
    the buffer level (equal to ``searchsorted(thresholds, buffer,
    "right")``).  A few comparisons beat a binary search over so short a
    ladder, and they are the reference's explicit comparison count.
    ``out`` is an integer array and ``mask`` a bool work buffer, both of
    ``values``' shape.
    """
    out.fill(0)
    for edge in edges:
        np.add(out, np.greater_equal(values, edge, out=mask), out=out)
    return out


def simulate_chunk(workload: SessionWorkload, start: int, count: int,
                   arm: str) -> dict[str, np.ndarray]:
    """Simulate sessions ``[start, start + count)`` as array ops.

    Returns the four metric vectors (float64, length ``count``).  Each
    session goes through the same IEEE operations, in the same operand
    order, as in :func:`simulate_reference`; the pinned golden digests
    and the randomized differential enforce it.  The tick runs in
    buffers allocated once per chunk (``out=``), the RTT penalty of each
    request outcome is a Python float computed once, and the updates
    only started sessions take use ``where=`` (leaving the others as
    the reference's untaken branch does) until every session plays.
    """
    if arm not in ARMS:
        raise ParallelError(f"unknown session arm {arm!r}")
    idx = np.arange(start, start + count, dtype=np.uint64)
    hit_p, capacity = _session_statics(workload, start, count)
    ladder = np.asarray(LADDER_MBPS, dtype=np.float64)
    noise_lo, noise_hi = THROUGHPUT_NOISE
    noise_span = noise_hi - noise_lo
    fresh = 1.0 - EWMA_ALPHA
    edge = arm == "edge"
    throughput_abr = workload.abr == "throughput"
    rung_edges = LADDER_MBPS[1:] if throughput_abr else BUFFER_THRESHOLDS_S

    def penalty(rtt_ms: float) -> float:
        return SEG_S / (SEG_S + SEGMENT_RTT_ROUNDS * (rtt_ms / 1000.0))

    if edge:
        # Index 0 is a miss, 1 a hit: the hit mask, read as bytes, indexes it.
        penalties = np.array([penalty(workload.miss_rtt_ms),
                              penalty(workload.hit_rtt_ms)])
    else:
        cloud_penalty = penalty(workload.cloud_rtt_ms)

    u = np.empty(count)
    z = np.empty(count, dtype=np.uint64)
    z_scratch = np.empty(count, dtype=np.uint64)
    thr = np.empty(count)
    observed = np.empty(count)
    work = np.empty(count)
    rate = np.empty(count)
    playable = np.empty(count)
    hit = np.empty(count, dtype=bool)
    mask = np.empty(count, dtype=bool)
    rung = np.zeros(count, dtype=np.intp)
    prev_rung = np.zeros(count, dtype=np.intp)
    started = np.zeros(count, dtype=bool)
    waiting = np.ones(count, dtype=bool)

    buffer = np.zeros(count)
    ewma = np.zeros(count)
    startup_s = np.zeros(count)
    rebuffer_s = np.zeros(count)
    played_s = np.zeros(count)
    bitrate_sum = np.zeros(count)
    switches = np.zeros(count)
    in_play: np.ndarray | bool = started

    for t in range(workload.n_ticks):
        _uniform_into(workload.seed, _STREAM_THROUGHPUT, idx, t, u, z,
                      z_scratch)
        # thr = capacity * (noise_lo + noise_span * u_thr)
        np.multiply(noise_span, u, out=thr)
        np.add(noise_lo, thr, out=thr)
        np.multiply(capacity, thr, out=thr)
        # observed = thr * penalty
        if edge:
            _uniform_into(workload.seed, _STREAM_HIT, idx, t, u, z,
                          z_scratch)
            np.less(u, hit_p, out=hit)
            np.take(penalties, hit.view(np.uint8), out=work)
            np.multiply(thr, work, out=observed)
        else:
            np.multiply(thr, cloud_penalty, out=observed)
        if t == 0:
            ewma[:] = observed
        else:
            # ewma = EWMA_ALPHA * ewma + (1.0 - EWMA_ALPHA) * observed
            np.multiply(EWMA_ALPHA, ewma, out=ewma)
            np.add(ewma, np.multiply(fresh, observed, out=work), out=ewma)
        if throughput_abr:
            rung_count(np.multiply(SAFETY, ewma, out=work), rung_edges,
                       rung, mask)
        else:
            rung_count(buffer, rung_edges, rung, mask)
        # switches += 1.0 where started and the rung changed (a bool
        # adds as exactly 1.0 or 0.0)
        np.logical_and(started, np.not_equal(rung, prev_rung, out=mask),
                       out=mask)
        np.add(switches, mask, out=switches)
        np.take(ladder, rung, out=rate)
        # buffer = min(buffer + observed * TICK_S / rate, BUFFER_CAP_S)
        np.multiply(observed, TICK_S, out=work)
        np.divide(work, rate, out=work)
        np.add(buffer, work, out=buffer)
        np.minimum(buffer, BUFFER_CAP_S, out=buffer)
        # The reference's started branch, per session.
        np.minimum(buffer, TICK_S, out=playable)
        np.add(played_s, playable, out=played_s, where=in_play)
        np.subtract(TICK_S, playable, out=work)
        np.add(rebuffer_s, work, out=rebuffer_s, where=in_play)
        np.multiply(rate, playable, out=work)
        np.add(bitrate_sum, work, out=bitrate_sum, where=in_play)
        np.subtract(buffer, playable, out=buffer, where=in_play)
        if in_play is started:
            np.add(startup_s, TICK_S, out=startup_s, where=waiting)
            np.logical_or(started, np.greater_equal(
                buffer, STARTUP_BUFFER_S, out=mask), out=started)
            np.logical_not(started, out=waiting)
            if not waiting.any():
                # Every session plays from here on, and an unmasked
                # loop is faster than an all-True mask.
                in_play = True
        rung, prev_rung = prev_rung, rung

    active_s = workload.n_ticks * TICK_S - startup_s
    rebuffer_ratio = np.zeros(count)
    mask = active_s > 0.0
    rebuffer_ratio[mask] = rebuffer_s[mask] / active_s[mask]
    mean_bitrate = np.zeros(count)
    mask = played_s > 0.0
    mean_bitrate[mask] = bitrate_sum[mask] / played_s[mask]
    return {
        "startup_s": startup_s,
        "rebuffer_ratio": rebuffer_ratio,
        "mean_bitrate_mbps": mean_bitrate,
        "switches": switches,
    }


def simulate_reference(workload: SessionWorkload, arm: str,
                       start: int = 0,
                       count: int | None = None) -> dict[str, np.ndarray]:
    """Scalar reference: one Python loop per session, per tick.

    The ground truth the vectorized engine is gated against — slow by
    design and by contract bit-identical to :func:`simulate_chunk`
    (mirrored expressions, Python-int counter RNG twin).
    """
    if arm not in ARMS:
        raise ParallelError(f"unknown session arm {arm!r}")
    if count is None:
        count = workload.n_sessions
    n_sites = workload.site_hit_ratios.size
    noise_lo, noise_hi = THROUGHPUT_NOISE
    noise_span = noise_hi - noise_lo
    out = {metric: np.zeros(count) for metric in METRICS}

    for offset in range(count):
        index = start + offset
        u_site = _counter_uniform_int(workload.seed, _STREAM_SITE, index)
        site = min(int(u_site * n_sites), n_sites - 1)
        hit_p = float(workload.site_hit_ratios[site])
        u_cap = _counter_uniform_int(workload.seed, _STREAM_CAPACITY, index)
        spread = workload.downlink_spread
        capacity = workload.downlink_mean_mbps * (
            1.0 - spread + 2.0 * spread * u_cap)

        buffer = 0.0
        ewma = 0.0
        prev_rung = 0
        started = False
        startup_s = 0.0
        rebuffer_s = 0.0
        played_s = 0.0
        bitrate_sum = 0.0
        switches = 0.0
        for t in range(workload.n_ticks):
            u_thr = _counter_uniform_int(workload.seed,
                                         _STREAM_THROUGHPUT, index, t)
            thr = capacity * (noise_lo + noise_span * u_thr)
            if arm == "edge":
                u_hit = _counter_uniform_int(workload.seed, _STREAM_HIT,
                                             index, t)
                rtt_ms = workload.hit_rtt_ms if u_hit < hit_p \
                    else workload.miss_rtt_ms
            else:
                rtt_ms = workload.cloud_rtt_ms
            penalty = SEG_S / (SEG_S
                               + SEGMENT_RTT_ROUNDS * (rtt_ms / 1000.0))
            observed = thr * penalty
            if t == 0:
                ewma = observed
            else:
                ewma = EWMA_ALPHA * ewma + (1.0 - EWMA_ALPHA) * observed
            if workload.abr == "throughput":
                est = SAFETY * ewma
                rung = max(sum(1 for b in LADDER_MBPS if est >= b) - 1, 0)
            else:
                rung = sum(1 for b in BUFFER_THRESHOLDS_S if buffer >= b)
            if started and rung != prev_rung:
                switches += 1.0
            prev_rung = rung
            video_s = observed * TICK_S / LADDER_MBPS[rung]
            buffer = min(buffer + video_s, BUFFER_CAP_S)
            if started:
                playable = min(buffer, TICK_S)
                played_s += playable
                rebuffer_s += TICK_S - playable
                bitrate_sum += LADDER_MBPS[rung] * playable
                buffer = buffer - playable
            else:
                startup_s += TICK_S
            if buffer >= STARTUP_BUFFER_S:
                started = True

        active_s = workload.n_ticks * TICK_S - startup_s
        out["startup_s"][offset] = startup_s
        out["rebuffer_ratio"][offset] = \
            rebuffer_s / active_s if active_s > 0.0 else 0.0
        out["mean_bitrate_mbps"][offset] = \
            bitrate_sum / played_s if played_s > 0.0 else 0.0
        out["switches"][offset] = switches
    return out


class SessionDigest:
    """Chunk-size-independent SHA-256 over the per-session metrics.

    One running hasher per metric is fed each chunk's float64 bytes in
    session-index order; concatenated segments hash identically to one
    big array, so any chunking (or a single reference pass) yields the
    same final digest.
    """

    def __init__(self) -> None:
        self._hashers = {metric: hashlib.sha256() for metric in METRICS}

    def update(self, chunk: dict[str, np.ndarray]) -> None:
        """Fold one chunk's metric vectors (must arrive in index order)."""
        for metric in METRICS:
            self._hashers[metric].update(
                np.ascontiguousarray(chunk[metric]).tobytes())

    def hexdigest(self) -> str:
        """Digest of the per-metric digests, in :data:`METRICS` order."""
        outer = hashlib.sha256()
        for metric in METRICS:
            outer.update(self._hashers[metric].digest())
        return outer.hexdigest()


@dataclass(frozen=True)
class ArmResult:
    """Aggregated QoE of one arm (edge or cloud) over all sessions."""

    arm: str
    sessions: int
    digest: str
    means: dict[str, float]
    histograms: dict[str, StreamingHistogram] = field(repr=False)

    def quantile(self, metric: str, q: float) -> float:
        """Approximate metric quantile from the streaming sketch."""
        return self.histograms[metric].quantile(q)


def _simulate_chunk_task(arg: tuple) -> dict[str, np.ndarray]:
    """Module-level farm task: simulate one chunk (picklable)."""
    workload, start, count, arm = arg
    failpoint("qoe.chunk", f"{arm}:{start}")
    return simulate_chunk(workload, start, count, arm)


def run_sessions(workload: SessionWorkload, arm: str,
                 chunk_sessions: int = CHUNK_SESSIONS,
                 jobs: int = 1, journal=None) -> ArmResult:
    """Run one arm chunked through a :class:`~repro.parallel.TaskFarm`.

    Chunks are submitted up front and folded strictly in index order
    (:meth:`~repro.parallel.TaskFarm.ordered`), so digests, histograms
    and means are independent of worker scheduling; the in-memory state
    is a handful of sketches.

    Raises:
        ParallelError: on an unknown arm, a bad chunk size, or a chunk
            whose simulation failed with a genuine error.
        QuarantineError: when a chunk keeps failing past the farm's
            retry budget.
    """
    if arm not in ARMS:
        raise ParallelError(f"unknown session arm {arm!r}")
    if chunk_sessions <= 0:
        raise ParallelError(
            f"chunk_sessions must be positive, got {chunk_sessions}")
    digest = SessionDigest()
    histograms = {metric: StreamingHistogram(*HIST_SPECS[metric])
                  for metric in METRICS}
    sums = {metric: 0.0 for metric in METRICS}
    tasks = ((f"qoe:{arm}:{index}",
              (workload, start,
               min(chunk_sessions, workload.n_sessions - start), arm))
             for index, start in enumerate(
                 range(0, workload.n_sessions, chunk_sessions)))
    with TaskFarm(n_jobs=jobs, journal=journal) as farm:
        for index, chunk in enumerate(farm.ordered(_simulate_chunk_task,
                                                   tasks)):
            digest.update(chunk)
            for metric in METRICS:
                histograms[metric].add(chunk[metric])
                sums[metric] += float(chunk[metric].sum())
            if journal is not None:
                journal.emit("session_chunk", arm=arm, chunk=index,
                             sessions=int(chunk[METRICS[0]].size))
    means = {metric: sums[metric] / workload.n_sessions
             for metric in METRICS}
    return ArmResult(arm=arm, sessions=workload.n_sessions,
                     digest=digest.hexdigest(), means=means,
                     histograms=histograms)


def build_session_workload(scenario: Scenario,
                           model: CdnModel | None = None,
                           ) -> SessionWorkload:
    """Derive the session workload (sites, paths, capacity) from a scenario."""
    if model is None:
        model = CdnModel(scenario)
    latencies = model.latencies
    wifi = access_profile(AccessType.WIFI)
    return SessionWorkload(
        seed=scenario.seed,
        n_sessions=scenario.qoe_session_count,
        n_ticks=scenario.qoe_session_ticks,
        abr=scenario.qoe_abr,
        site_hit_ratios=model.site_hit_ratios,
        hit_rtt_ms=latencies.hit_rtt_ms,
        miss_rtt_ms=latencies.miss_rtt_ms,
        cloud_rtt_ms=latencies.cloud_rtt_ms,
        downlink_mean_mbps=wifi.downlink_mean_mbps * SESSION_SHARE,
    )


@dataclass(frozen=True)
class QoeSessionsResult:
    """Edge-vs-cloud QoE distributions over the full session population."""

    sessions: int
    ticks: int
    abr: str
    cache_mb: int
    cache_eviction: str
    hit_ratio_mean: float
    hit_rtt_ms: float
    miss_rtt_ms: float
    cloud_rtt_ms: float
    arms: dict[str, ArmResult]

    def metrics(self) -> dict[str, float]:
        """Flat metric columns for ``repro sweep report``."""
        edge, cloud = self.arms["edge"], self.arms["cloud"]
        return {
            "qoe_hit_ratio": self.hit_ratio_mean,
            "qoe_edge_startup_p50_s": edge.quantile("startup_s", 0.5),
            "qoe_cloud_startup_p50_s": cloud.quantile("startup_s", 0.5),
            "qoe_edge_rebuffer_p90": edge.quantile("rebuffer_ratio", 0.9),
            "qoe_cloud_rebuffer_p90": cloud.quantile("rebuffer_ratio", 0.9),
            "qoe_edge_bitrate_mbps": edge.means["mean_bitrate_mbps"],
            "qoe_cloud_bitrate_mbps": cloud.means["mean_bitrate_mbps"],
        }

    def format(self) -> str:
        """Human-readable edge-vs-cloud distribution table."""
        lines = [
            f"Session-scale QoE: {self.sessions} sessions x "
            f"{self.ticks} ticks, {self.abr} ABR, "
            f"{self.cache_mb} MB {self.cache_eviction.upper()} cache "
            f"(mean hit ratio {self.hit_ratio_mean:.3f})",
            f"RTT ms: hit {self.hit_rtt_ms:.1f} / "
            f"miss {self.miss_rtt_ms:.1f} / cloud {self.cloud_rtt_ms:.1f}",
            "",
            f"{'metric':<22} {'arm':<6} {'mean':>8} {'p50':>8} "
            f"{'p90':>8} {'p99':>8}",
        ]
        for metric in METRICS:
            for arm in ARMS:
                result = self.arms[arm]
                lines.append(
                    f"{metric:<22} {arm:<6} "
                    f"{result.means[metric]:>8.3f} "
                    f"{result.quantile(metric, 0.5):>8.3f} "
                    f"{result.quantile(metric, 0.9):>8.3f} "
                    f"{result.quantile(metric, 0.99):>8.3f}")
        return "\n".join(lines)


def run_qoe_sessions(scenario: Scenario, jobs: int = 1,
                     journal=None) -> QoeSessionsResult:
    """The full experiment: both arms over one CDN model and workload."""
    model = CdnModel(scenario)
    workload = build_session_workload(scenario, model=model)
    arms = {arm: run_sessions(workload, arm, jobs=jobs, journal=journal)
            for arm in ARMS}
    return QoeSessionsResult(
        sessions=workload.n_sessions,
        ticks=workload.n_ticks,
        abr=workload.abr,
        cache_mb=scenario.qoe_cache_mb,
        cache_eviction=scenario.qoe_cache_eviction,
        hit_ratio_mean=float(model.site_hit_ratios.mean()),
        hit_rtt_ms=workload.hit_rtt_ms,
        miss_rtt_ms=workload.miss_rtt_ms,
        cloud_rtt_ms=workload.cloud_rtt_ms,
        arms=arms,
    )
