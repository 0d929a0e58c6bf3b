"""Scenario configuration and deterministic randomness.

Everything stochastic in the library draws from a :class:`numpy.random.
Generator` funnelled through :class:`RandomState`, which derives independent
named substreams from one root seed.  Two runs with the same
:class:`Scenario` produce bit-identical datasets, campaigns, and analyses.

The real NEP trace spans 3 months of 1-minute CPU readings over *every* VM of
the platform; regenerating that verbatim would need tens of gigabytes.  The
default scenario keeps the structure (per-VM series, per-server placement,
>500 sites) but reduces the VM count and sampling resolution.  All knobs are
explicit fields, and :meth:`Scenario.paper_scale` returns the full-fidelity
settings for users with the patience for them.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
# numpy 2 loads ``numpy.random`` on first attribute access; load it with
# the library so the first :meth:`Scenario.stream` of a timed run does
# not pay its ~20 modules.
import numpy.random  # noqa: F401

from .errors import ConfigurationError

_DEFAULT_SEED = 20211102  # IMC 2021 opening day

#: Fault-injection profiles accepted by :attr:`Scenario.fault_profile`
#: (the CLI's ``--faults``).  ``off`` is the historical fair-weather
#: behaviour; the calibrations live in :mod:`repro.faults.schedule`.
FAULT_PROFILES = ("off", "paper", "harsh")

#: ABR policies accepted by :attr:`Scenario.qoe_abr` (the CLI's
#: ``--abr``); the implementations live in :mod:`repro.qoe.sessions`.
ABR_POLICIES = ("throughput", "buffer")

#: Edge-cache eviction models accepted by
#: :attr:`Scenario.qoe_cache_eviction` (see :mod:`repro.cdn`).
CACHE_EVICTIONS = ("lru", "ttl")

#: Autoscaling modes accepted by :attr:`Scenario.live_autoscale` (the
#: CLI's ``--autoscale``); the policy lives in :mod:`repro.live`.
AUTOSCALE_MODES = ("on", "off")

#: The §4.4 prediction window (minutes); the default of
#: :attr:`repro.prediction.evaluate.ExperimentSpec.window_minutes`.
PREDICTION_WINDOW_MINUTES = 30


#: Annotation of a :class:`Scenario` field -> (accepts value, expected).
#: ``bool`` is an ``int`` to Python but never a valid knob value.
_FIELD_KINDS = {
    "int": (lambda value: isinstance(value, numbers.Integral)
            and not isinstance(value, bool), "an integer"),
    "float": (lambda value: isinstance(value, numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value),
              "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
}

#: Integer :class:`Scenario` knobs that may be zero; every other
#: integer knob must be positive.
_NON_NEGATIVE_FIELDS = ("seed", "live_flash_crowds")

#: Enumerated :class:`Scenario` knobs -> the values each accepts.
_CHOICES = {
    "fault_profile": FAULT_PROFILES,
    "qoe_abr": ABR_POLICIES,
    "qoe_cache_eviction": CACHE_EVICTIONS,
    "live_autoscale": AUTOSCALE_MODES,
}


class RandomState:
    """A root seed plus a family of named, independent substreams.

    Substreams are derived with :class:`numpy.random.SeedSequence` spawn
    keys based on a stable hash of the stream name, so adding a new stream
    never perturbs existing ones and the same name always yields the same
    stream for a given root seed.
    """

    def __init__(self, seed: int = _DEFAULT_SEED) -> None:
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named substream.

        Calling twice with the same name returns two generators in the same
        initial state, which keeps independently-constructed components
        reproducible without shared mutable state.
        """
        if not name:
            raise ConfigurationError("stream name must be non-empty")
        # A stable (non-salted) digest of the name; Python's hash() is
        # randomised per process and must not be used here.
        digest = 0
        for ch in name:
            digest = (digest * 131 + ord(ch)) % (2**31 - 1)
        seq = np.random.SeedSequence([self.seed, digest])
        return np.random.default_rng(seq)

    def child(self, name: str) -> "RandomState":
        """Derive a child RandomState, for components that themselves fan out."""
        digest = 0
        for ch in name:
            digest = (digest * 131 + ord(ch)) % (2**31 - 1)
        return RandomState((self.seed * 1_000_003 + digest) % (2**63 - 1))


@dataclass(frozen=True)
class Scenario:
    """All scale and calibration knobs for one end-to-end reproduction.

    Attributes mirror the experiment design of the paper (§2.1); see
    DESIGN.md for the mapping from each knob to the figure it drives.
    """

    seed: int = _DEFAULT_SEED

    # --- platform topology (§2, Table 1) -------------------------------
    nep_site_count: int = 520          # ">500 sites in China"
    nep_servers_per_site_min: int = 8  # "tens or hundreds of servers"
    nep_servers_per_site_max: int = 96

    # --- workload trace (§2.1.2) ----------------------------------------
    nep_vm_count: int = 1200
    azure_vm_count: int = 1200
    trace_days: int = 28               # paper: 92 days (3 months)
    cpu_interval_minutes: int = 5      # paper: 1 minute
    bw_interval_minutes: int = 5       # paper: 5 minutes

    # --- crowd-sourced campaign (§2.1.1) --------------------------------
    participant_count: int = 158
    city_count: int = 41
    pings_per_target: int = 30
    throughput_participants: int = 25
    throughput_edge_vms: int = 20

    # --- session-scale QoE (beyond §3.3: CDN + ABR sessions) ------------
    qoe_session_count: int = 2000
    qoe_session_ticks: int = 120
    qoe_cache_mb: int = 512
    qoe_catalog_objects: int = 20_000
    qoe_zipf_alpha: float = 0.8
    qoe_abr: str = "throughput"
    qoe_cache_eviction: str = "lru"

    # --- billing study (§4.5) -------------------------------------------
    heaviest_app_count: int = 50

    # --- live platform engine (beyond the paper: repro.live) -------------
    live_ticks: int = 720
    live_tick_minutes: int = 1
    live_arrival_rate: float = 6.0        # mean VM arrivals per tick
    live_mean_lifetime_ticks: int = 180   # mean VM dwell time, in ticks
    live_autoscale: str = "on"
    live_flash_crowds: int = 2            # flash-crowd windows per run
    live_diurnal_amplitude: float = 0.6   # 0 = flat demand, <1

    # --- fault injection (availability study) ---------------------------
    fault_profile: str = "off"

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            accepts, expected = _FIELD_KINDS[spec.type]
            if not accepts(value):
                raise ConfigurationError(
                    f"{spec.name} must be {expected}, got {value!r}")
            if spec.type != "int":
                continue
            if spec.name in _NON_NEGATIVE_FIELDS:
                if value < 0:
                    raise ConfigurationError(
                        f"{spec.name} must be non-negative, got {value}")
            elif value <= 0:
                raise ConfigurationError(
                    f"{spec.name} must be positive, got {value}")
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigurationError(
                    f"{name} must be one of {choices}, got {value!r}")
        if self.nep_servers_per_site_min > self.nep_servers_per_site_max:
            raise ConfigurationError(
                "nep_servers_per_site_min exceeds nep_servers_per_site_max"
            )
        if PREDICTION_WINDOW_MINUTES % self.cpu_interval_minutes:
            raise ConfigurationError(
                f"the {PREDICTION_WINDOW_MINUTES}-minute prediction window "
                "must be a multiple of cpu_interval_minutes, "
                f"got {self.cpu_interval_minutes}")
        if (24 * 60) % self.bw_interval_minutes:
            raise ConfigurationError(
                "bw_interval_minutes must divide a day, "
                f"got {self.bw_interval_minutes}")
        if self.qoe_zipf_alpha <= 0:
            raise ConfigurationError(
                f"qoe_zipf_alpha must be positive, got {self.qoe_zipf_alpha}")
        if self.live_arrival_rate <= 0:
            raise ConfigurationError(
                f"live_arrival_rate must be positive, "
                f"got {self.live_arrival_rate}")
        if not 0.0 <= self.live_diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"live_diurnal_amplitude must be in [0, 1), "
                f"got {self.live_diurnal_amplitude}")

    @property
    def random(self) -> RandomState:
        """Root random state for this scenario."""
        return RandomState(self.seed)

    @property
    def trace_minutes(self) -> int:
        """Total trace span in minutes."""
        return self.trace_days * 24 * 60

    def with_overrides(self, **changes: object) -> "Scenario":
        """Return a copy of this scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def paper_scale(cls) -> "Scenario":
        """Full-fidelity settings matching the paper's data volumes.

        This is expensive (months of 1-minute series) and exists mostly to
        document what the defaults were scaled down from.
        """
        return cls(
            trace_days=92,
            cpu_interval_minutes=1,
            nep_vm_count=20_000,
            azure_vm_count=20_000,
            qoe_session_count=20_000,
            live_ticks=2880,
            live_arrival_rate=60.0,
        )

    @classmethod
    def city_scale(cls) -> "Scenario":
        """Beyond-paper settings: a ~1M-VM national edge fleet.

        One series kind at this scale is ~0.5 TB of float32 rows
        (1M VMs x 92 d of 1-minute readings), which no single process
        can hold — which is why every tier streams its series to
        sharded on-disk storage and analyses them in chunks (see
        ``docs/performance.md``).  The topology grows to 4000 sites
        with deeper racks, matching the "tens or hundreds of servers"
        envelope at metro density.
        """
        return cls(
            nep_site_count=4000,
            nep_servers_per_site_min=24,
            nep_servers_per_site_max=192,
            trace_days=92,
            cpu_interval_minutes=1,
            nep_vm_count=1_000_000,
            azure_vm_count=1_000_000,
            qoe_session_count=1_000_000,
            qoe_catalog_objects=50_000,
            live_ticks=1440,
            live_arrival_rate=700.0,
            live_mean_lifetime_ticks=360,
        )

    @classmethod
    def smoke_scale(cls) -> "Scenario":
        """Tiny settings for fast tests and CI smoke runs."""
        return cls(
            nep_site_count=60,
            nep_vm_count=120,
            azure_vm_count=120,
            trace_days=7,
            participant_count=24,
            city_count=12,
            pings_per_target=10,
            throughput_participants=6,
            throughput_edge_vms=5,
            qoe_session_count=500,
            qoe_session_ticks=60,
            qoe_catalog_objects=2000,
            heaviest_app_count=10,
            live_ticks=240,
            live_arrival_rate=3.0,
            live_mean_lifetime_ticks=90,
        )


DEFAULT_SCENARIO = Scenario()
