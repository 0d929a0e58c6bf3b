"""Tests for the §4.4 prediction comparison driver (reduced scale)."""

import numpy as np
import pytest

from repro.core.prediction_analysis import (
    PredictionComparison,
    run_prediction_study,
)
from repro.errors import PredictionError
from repro.prediction.evaluate import ExperimentSpec


@pytest.fixture(scope="module")
def small_spec(request):
    return ExperimentSpec(cpu_interval_minutes=5, window_minutes=60,
                          train_days=4, test_days=2)


@pytest.fixture(scope="module")
def nep_study(small_spec):
    from repro import study_for
    study = study_for("smoke")
    return run_prediction_study(study.nep.dataset, vm_sample=4,
                                rng=np.random.default_rng(0),
                                spec=small_spec, lstm_epochs=4,
                                lstm_sample=2)


class TestStudy:
    def test_outcomes_cover_models_and_targets(self, nep_study):
        combos = {(o.model, o.target) for o in nep_study.outcomes}
        assert ("holt-winters", "max") in combos
        assert ("holt-winters", "mean") in combos
        assert ("lstm", "max") in combos

    def test_lstm_sample_cap_respected(self, nep_study):
        lstm_vms = {o.vm_id for o in nep_study.outcomes
                    if o.model == "lstm"}
        hw_vms = {o.vm_id for o in nep_study.outcomes
                  if o.model == "holt-winters"}
        assert len(lstm_vms) <= 2
        assert len(hw_vms) == 4

    def test_rmse_values_sane(self, nep_study):
        for outcome in nep_study.outcomes:
            assert 0.0 <= outcome.rmse_percent <= 100.0

    def test_seasonality_collected(self, nep_study):
        assert len(nep_study.seasonality) == 4
        assert 0.0 <= nep_study.mean_seasonality <= 1.0

    def test_rmse_cdf_lookup(self, nep_study):
        cdf = nep_study.rmse_cdf("holt-winters", "mean")
        assert len(cdf) == 4

    def test_missing_combo_rejected(self, nep_study):
        with pytest.raises(PredictionError):
            nep_study.rmse_cdf("arima", "mean")

    def test_trace_too_short_rejected(self, nep_dataset):
        spec = ExperimentSpec(cpu_interval_minutes=5, window_minutes=60,
                              train_days=30, test_days=10)
        with pytest.raises(PredictionError):
            run_prediction_study(nep_dataset, vm_sample=2,
                                 rng=np.random.default_rng(0), spec=spec)


class TestSeasonalArLeg:
    def test_included_on_request(self, small_spec):
        from repro import study_for

        study = study_for("smoke")
        result = run_prediction_study(
            study.nep.dataset, vm_sample=2,
            rng=np.random.default_rng(5), spec=small_spec,
            lstm_epochs=2, lstm_sample=0, include_seasonal_ar=True)
        models = {o.model for o in result.outcomes}
        assert "seasonal-ar" in models
        assert result.median_rmse("seasonal-ar", "mean") >= 0.0

    def test_excluded_by_default(self, nep_study):
        assert "seasonal-ar" not in {o.model for o in nep_study.outcomes}


class TestComparison:
    def test_median_table_and_headline(self, nep_study, small_spec):
        from repro import study_for
        study = study_for("smoke")
        azure_study = run_prediction_study(
            study.azure.dataset, vm_sample=4,
            rng=np.random.default_rng(1), spec=small_spec,
            lstm_epochs=4, lstm_sample=2)
        comparison = PredictionComparison(edge=nep_study, cloud=azure_study)
        table = comparison.median_table()
        assert ("holt-winters", "mean") in table
        edge_median, cloud_median = table[("holt-winters", "mean")]
        assert edge_median >= 0 and cloud_median >= 0
