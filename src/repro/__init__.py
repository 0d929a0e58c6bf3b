"""edgescope: a reproduction of "From Cloud to Edge: A First Look at
Public Edge Platforms" (Xu et al., IMC 2021).

The library simulates everything the paper measured behind paid/closed
doors — the NEP edge platform, the crowd-sourced performance campaign,
the QoE testbeds, the 3-month VM trace, and the billing engines — and
implements the paper's analyses on top.

Quickstart::

    from repro import EdgeStudy, Scenario

    study = EdgeStudy(Scenario.smoke_scale())
    records = study.per_user               # Fig 2/3 inputs
    nep_trace = study.nep.dataset          # Fig 8-14 inputs

See DESIGN.md for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from .cache import ArtifactCache, default_cache_dir
from .config import DEFAULT_SCENARIO, FAULT_PROFILES, RandomState, Scenario
from .errors import (
    BillingError,
    CapacityError,
    ConfigurationError,
    FaultError,
    GeoError,
    MeasurementError,
    PlacementError,
    PredictionError,
    ReproError,
    SchedulingError,
    TopologyError,
    TraceError,
)
from .faults import FaultSchedule, build_fault_schedule
from .obs import RunJournal
from .parallel import resolve_jobs
from .perf import PerfRegistry
from .study import EdgeStudy, study_for

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "BillingError",
    "CapacityError",
    "ConfigurationError",
    "DEFAULT_SCENARIO",
    "EdgeStudy",
    "FAULT_PROFILES",
    "FaultError",
    "FaultSchedule",
    "GeoError",
    "MeasurementError",
    "PerfRegistry",
    "PlacementError",
    "PredictionError",
    "RandomState",
    "ReproError",
    "RunJournal",
    "Scenario",
    "SchedulingError",
    "TopologyError",
    "TraceError",
    "build_fault_schedule",
    "default_cache_dir",
    "resolve_jobs",
    "study_for",
    "__version__",
]
