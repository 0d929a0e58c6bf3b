"""Per-app series rendering: the unit of parallel workload generation.

Workload generation splits into two stages.  The *placement* stage walks
the platform's app population sequentially (profile sampling, VM specs,
placement all consume the platform-level RNG streams and mutate the
platform, so they cannot reorder).  The *series* stage — the expensive
one at paper scale — renders each placed app's CPU/bandwidth rows, and
every app draws from its own named substream
(``RandomState(seed).child(recipe.stream_name).stream(app_id)``), so
app blocks are mutually independent and can render in any process, in
any order, with bit-identical output.

:func:`render_series_job` is that per-app unit.  Inside one app the
``SERIES_CHUNK_VMS`` chunks still execute in order (they share the app's
generator state, which is what keeps the output identical to the
original serial engine); across apps, :mod:`repro.parallel` fans the
jobs out over worker processes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
import numpy as np

from ..config import RandomState
from ..perf import PerfRegistry
from ..resilience import failpoint
from .apps import AppProfile
from .bandwidth import derive_private_series_batch, generate_bw_series_batch
from .cpu import generate_cpu_series_batch
from .patterns import pattern

#: VMs per batched series-generation chunk.  Bounds the transient float64
#: working set (a chunk is ~CHUNK x points x 8 bytes per component) so
#: paper-scale runs stay well inside memory while small apps still
#: vectorise as a single chunk.
SERIES_CHUNK_VMS = 256


class SeasonCache:
    """Memoises ``pattern(name)(minutes)`` per (pattern, axis).

    Every VM of every app with the same category recomputed the same
    seasonal curve; at paper scale that alone was minutes of work.  The
    cache holds one row per pattern per time axis (cpu and bw).

    The axis is identified by a stable value token — length plus first
    and last minute — rather than ``id(minutes)``: object ids are
    recycled after garbage collection, so an id-keyed cache could serve
    a curve computed for a *different* (freed) axis, and conversely
    never hits when equal axes are rebuilt per call.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int, float, float], np.ndarray] = {}

    @staticmethod
    def axis_token(minutes: np.ndarray) -> tuple[int, float, float]:
        """A stable identity for one time axis (length, first, last)."""
        return (minutes.shape[0], float(minutes[0]), float(minutes[-1]))

    def get(self, pattern_name: str, minutes: np.ndarray) -> np.ndarray:
        key = (pattern_name, *self.axis_token(minutes))
        curve = self._cache.get(key)
        if curve is None:
            curve = pattern(pattern_name)(minutes)
            self._cache[key] = curve
        return curve


@dataclass(frozen=True)
class SeriesRecipe:
    """Platform-family knobs of the per-app series draw sequence.

    NEP and the Azure-like cloud share one draw-order template; only the
    calibration constants (and whether private intra-site traffic is
    logged) differ.  Keeping them in a frozen, picklable recipe lets one
    worker function serve both platforms.
    """

    #: Name of the per-platform series stream family (the ``RandomState``
    #: child every app substream hangs off).
    stream_name: str
    #: Range of the per-app heterogeneity multiplier on ``within_app_sigma``.
    sigma_range: tuple[float, float]
    #: Clip bounds for per-VM mean CPU levels.
    cpu_clip: tuple[float, float]
    #: Floor for per-VM mean public bandwidth (Mbps).
    bw_floor_mbps: float
    #: Whether to derive private (intra-site) traffic rows.
    private: bool


#: NEP's recipe (§4.1 calibration; private traffic is logged, §2.1.2).
NEP_RECIPE = SeriesRecipe(stream_name="nep-series", sigma_range=(0.5, 1.6),
                          cpu_clip=(0.003, 0.92), bw_floor_mbps=0.05,
                          private=True)

#: The Azure-like cloud's recipe: tighter within-app spread, no private
#: traffic collector.
AZURE_RECIPE = SeriesRecipe(stream_name="azure-series",
                            sigma_range=(0.6, 1.4), cpu_clip=(0.005, 0.95),
                            bw_floor_mbps=0.01, private=False)


@dataclass(frozen=True)
class SeriesJob:
    """One app's series workload: everything a worker needs to render it.

    Deliberately tiny — the worker recreates the app's RNG substream from
    (seed, recipe, app_id) and the time axes from the scenario knobs, so
    dispatching a job ships a profile and two scalars, not arrays.
    """

    app_id: str
    profile: AppProfile
    vm_count: int


@dataclass
class SeriesBlock:
    """The rendered series of one app, rows aligned with its placed VMs."""

    app_id: str
    #: Per-VM mean public bandwidth (drives the subscribed-bandwidth field).
    mean_bws: np.ndarray
    #: ``(vm_count, cpu_points)`` float32 utilisation rows.
    cpu_rows: np.ndarray
    #: ``(vm_count, bw_points)`` float32 public-bandwidth rows.
    bw_rows: np.ndarray
    #: Private-traffic rows, or ``None`` when the recipe doesn't log them.
    private_rows: np.ndarray | None
    #: Spans/counters recorded while rendering, set by the farm task;
    #: the executor merges them into the caller's registry, and the
    #: blocks it yields leave this ``None``.
    perf: PerfRegistry | None = None
    #: The rows' :func:`~repro.core.chunks.block_row_stats`, computed
    #: by the farm task that rendered them; the workload sink gathers
    #: them into the dataset.
    stats: tuple[np.ndarray, ...] | None = None


def job_rng(seed: int, recipe: SeriesRecipe, app_id: str) -> np.random.Generator:
    """The app's series substream, identical in any process.

    This is the independence guarantee behind parallel generation: the
    substream depends only on (scenario seed, stream family, app id), so
    a worker recreating it draws exactly what the serial engine drew.
    """
    return RandomState(seed).child(recipe.stream_name).stream(app_id)


def render_series_job(job: SeriesJob, recipe: SeriesRecipe,
                      cpu_minutes: np.ndarray, bw_minutes: np.ndarray,
                      rng: np.random.Generator,
                      seasons: SeasonCache | None = None,
                      perf: PerfRegistry | None = None) -> SeriesBlock:
    """Render one app's CPU/bandwidth/private rows.

    The draw sequence (app-level draws, then per-chunk batch draws in
    chunk order) is exactly the original serial engine's, so output is
    bit-identical for a given ``rng`` state.  Rows are stored float32 —
    the dtype :meth:`repro.trace.dataset.TraceDataset.add_vm` keeps —
    chunk by chunk, so the float64 transients stay bounded.
    """
    if seasons is None:
        seasons = SeasonCache()
    # Chaos site: fires *before* any draw is consumed, so a retried
    # render replays the substream from scratch and stays bit-identical.
    failpoint("series.render", job.app_id)
    profile, n_vms = job.profile, job.vm_count
    span = (perf.span("series_render") if perf is not None
            else nullcontext())
    with span:
        base_level = profile.cpu_levels.sample(rng)
        base_bw = float(rng.lognormal(np.log(profile.bw_median_mbps),
                                      profile.bw_sigma))
        # The app's own heterogeneity: some apps balance their VMs well,
        # others (Figure 13) leave one VM hot and the rest idle.
        app_sigma = profile.within_app_sigma * float(
            rng.uniform(*recipe.sigma_range))
        # mean=-sigma^2/2 keeps the app-level mean at base_level while the
        # spread controls the Figure 13 cross-VM gap.
        multipliers = rng.lognormal(mean=-app_sigma ** 2 / 2,
                                    sigma=app_sigma, size=n_vms)
        mean_cpus = np.clip(base_level * multipliers, *recipe.cpu_clip)
        mean_bws = np.maximum(base_bw * multipliers, recipe.bw_floor_mbps)
        erratic = rng.random(n_vms) < profile.erratic_probability
        cpu_season = seasons.get(profile.pattern_name, cpu_minutes)
        bw_season = seasons.get(profile.pattern_name, bw_minutes)

        cpu_rows = np.empty((n_vms, cpu_minutes.size), dtype=np.float32)
        bw_rows = np.empty((n_vms, bw_minutes.size), dtype=np.float32)
        private_rows = (np.empty((n_vms, bw_minutes.size), dtype=np.float32)
                        if recipe.private else None)
        for start in range(0, n_vms, SERIES_CHUNK_VMS):
            stop = min(start + SERIES_CHUNK_VMS, n_vms)
            cpu_rows[start:stop] = generate_cpu_series_batch(
                profile, mean_cpus[start:stop], cpu_minutes, rng,
                season=cpu_season)
            bw_chunk = generate_bw_series_batch(
                profile, mean_bws[start:stop], bw_minutes, rng,
                erratic=erratic[start:stop], season=bw_season)
            bw_rows[start:stop] = bw_chunk
            if private_rows is not None:
                private_rows[start:stop] = derive_private_series_batch(
                    bw_chunk, rng)
    if perf is not None:
        perf.count("series_vms", n_vms)
    return SeriesBlock(app_id=job.app_id, mean_bws=mean_bws,
                       cpu_rows=cpu_rows, bw_rows=bw_rows,
                       private_rows=private_rows)
