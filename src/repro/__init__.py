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

from importlib import import_module

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

#: Public name -> the submodule that defines it.  They load on first
#: access, so a command that needs one layer (``repro trace``,
#: ``repro cache``) does not import numpy and the simulation stack.
_LAZY_EXPORTS = {
    "ArtifactCache": "cache",
    "default_cache_dir": "cache",
    "DEFAULT_SCENARIO": "config",
    "FAULT_PROFILES": "config",
    "RandomState": "config",
    "Scenario": "config",
    "FaultSchedule": "faults",
    "build_fault_schedule": "faults",
    "RunJournal": "obs",
    "resolve_jobs": "parallel",
    "PerfRegistry": "perf",
    "EdgeStudy": "study",
    "study_for": "study",
}


def __getattr__(name: str) -> object:
    """Import a public name's submodule on first access (PEP 562)."""
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


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
