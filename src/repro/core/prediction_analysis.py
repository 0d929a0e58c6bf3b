"""§4.4 analysis: head-to-head VM usage predictability, edge vs cloud.

Runs the paper's protocol over sampled VMs of two datasets (Holt-Winters
and LSTM, max and mean CPU targets, 3-week train / 1-week test) and
collects per-platform RMSE distributions plus the seasonality strengths
that explain them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PredictionError
from ..prediction.evaluate import (
    ExperimentSpec,
    PredictionOutcome,
    evaluate_holt_winters,
    evaluate_lstm,
    evaluate_seasonal_ar,
)
from ..prediction.seasonality import seasonality_strength
from ..trace.dataset import TraceDataset
from .chunks import per_vm_means
from .stats import ECDF


@dataclass
class PredictionStudyResult:
    """All outcomes of one platform's prediction study."""

    platform: str
    outcomes: list[PredictionOutcome] = field(default_factory=list)
    seasonality: list[float] = field(default_factory=list)

    def rmse_cdf(self, model: str, target: str) -> ECDF:
        values = [o.rmse_percent for o in self.outcomes
                  if o.model == model and o.target == target]
        if not values:
            raise PredictionError(
                f"no outcomes for model={model!r} target={target!r}"
            )
        return ECDF.from_samples(values)

    def median_rmse(self, model: str, target: str) -> float:
        return self.rmse_cdf(model, target).median

    @property
    def mean_seasonality(self) -> float:
        if not self.seasonality:
            raise PredictionError("no seasonality measurements")
        return float(np.mean(self.seasonality))


def _sample_vm_ids(dataset: TraceDataset, count: int,
                   rng: np.random.Generator) -> list[str]:
    """Sample prediction subjects, preferring VMs with non-trivial load.

    Every VM's mean CPU comes from one chunked pass over the series.
    """
    vm_ids = dataset.vm_ids()
    means = per_vm_means(dataset.cpu_series)
    active = [v for v in vm_ids if means[v] > 0.01]
    pool = active if len(active) >= count else vm_ids
    if len(pool) <= count:
        return list(pool)
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in idx]


def run_prediction_study(dataset: TraceDataset, vm_sample: int,
                         rng: np.random.Generator,
                         spec: ExperimentSpec | None = None,
                         lstm_epochs: int = 25,
                         lstm_sample: int | None = None,
                         include_seasonal_ar: bool = False,
                         ) -> PredictionStudyResult:
    """Run the full §4.4 study over one dataset.

    ``lstm_sample`` caps how many of the sampled VMs get LSTM models
    (LSTM training dominates run time); Holt-Winters runs on all.
    ``include_seasonal_ar`` adds the ARIMA-family baseline the paper's
    related work uses.

    Raises:
        PredictionError: if the trace is shorter than train+test days.
    """
    if spec is None:
        spec = ExperimentSpec(
            cpu_interval_minutes=dataset.cpu_interval_minutes)
    if dataset.trace_days < spec.train_days + spec.test_days:
        raise PredictionError(
            f"trace of {dataset.trace_days} days too short for "
            f"{spec.train_days}+{spec.test_days} day split"
        )
    result = PredictionStudyResult(platform=dataset.platform_name)
    vm_ids = _sample_vm_ids(dataset, vm_sample, rng)
    lstm_ids = set(vm_ids[:lstm_sample]) if lstm_sample is not None \
        else set(vm_ids)

    period = dataset.cpu_points_per_day
    for index, vm_id in enumerate(vm_ids):
        series = dataset.cpu_series[vm_id].astype(float)
        result.seasonality.append(seasonality_strength(series, period))
        for target in ("max", "mean"):
            result.outcomes.append(
                evaluate_holt_winters(vm_id, series, target, spec))
            if include_seasonal_ar:
                result.outcomes.append(
                    evaluate_seasonal_ar(vm_id, series, target, spec))
            if vm_id in lstm_ids:
                result.outcomes.append(
                    evaluate_lstm(vm_id, series, target, spec,
                                  epochs=lstm_epochs, seed=index))
    return result


@dataclass(frozen=True)
class PredictionComparison:
    """Figure 14: edge-vs-cloud RMSE medians per model and target."""

    edge: PredictionStudyResult
    cloud: PredictionStudyResult

    def median_table(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(model, target) -> (edge median RMSE %, cloud median RMSE %)."""
        table = {}
        for model in ("holt-winters", "lstm", "seasonal-ar"):
            for target in ("max", "mean"):
                try:
                    table[(model, target)] = (
                        self.edge.median_rmse(model, target),
                        self.cloud.median_rmse(model, target),
                    )
                except PredictionError:
                    continue
        return table

    @property
    def edge_easier_to_predict(self) -> bool:
        """The paper's headline: every (model, target) favours the edge."""
        table = self.median_table()
        return all(edge <= cloud for edge, cloud in table.values())
