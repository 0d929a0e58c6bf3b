"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` from internal bugs, ...) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A scenario or component was configured with invalid parameters."""


class GeoError(ReproError):
    """A geographic lookup failed (unknown city, province, or region)."""


class TopologyError(ReproError):
    """A network or platform topology is malformed or incomplete."""


class CapacityError(ReproError):
    """A placement or allocation exceeded the capacity of a resource."""


class PlacementError(CapacityError):
    """No feasible server could be found for a VM subscription request."""


class SchedulingError(ReproError):
    """An end-user request could not be routed to any serving VM."""


class TraceError(ReproError):
    """A trace dataset is malformed, inconsistent, or missing records."""


class MeasurementError(ReproError):
    """A measurement campaign or individual probe was mis-specified."""


class FaultError(ReproError):
    """A fault schedule, retry policy, or failover step was mis-specified."""


class PredictionError(ReproError):
    """A forecasting model received unusable input or failed to converge."""


class BillingError(ReproError):
    """A billing computation received unusable usage data or prices."""


class ParallelError(ReproError):
    """A worker or task failed in :mod:`repro.parallel`."""


class InjectedFault(ReproError):
    """A deterministic failpoint fired (see :mod:`repro.resilience`).

    Raised only by the failpoint registry at an instrumented site; the
    supervised layers (cache commit, shard flush, farm tasks) treat it
    as a transient infrastructure failure and retry with seeded
    backoff, which is exactly how chaos runs exercise the recovery
    paths without changing results.
    """


class QuarantineError(ParallelError):
    """A job kept failing past its retry budget and was quarantined.

    Carries the job identity, the attempt count, and the last error so
    a study fails loudly with context instead of hanging or silently
    dropping work.
    """
