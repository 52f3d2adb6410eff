"""Fig 13: the CMF predictor pipeline."""

import numpy as np
import pytest

from repro import constants
from repro.core.prediction import (
    build_dataset,
    default_architecture_grid,
    sweep_leads,
    tune_architecture,
    window_features,
    window_level_features,
)
from repro.telemetry.records import PREDICTOR_CHANNELS


@pytest.fixture(scope="module")
def dataset(year_windows):
    positives, negatives = year_windows
    return build_dataset(positives, negatives, lead_h=3.0)


class TestFeatures:
    def test_feature_vector_width(self, year_windows):
        positives, _ = year_windows
        features = window_features(positives[0], lead_h=3.0)
        # 6 channels x 3 lags.
        assert features.shape == (18,)

    def test_level_features_width(self, year_windows):
        positives, _ = year_windows
        features = window_level_features(positives[0], lead_h=3.0)
        assert features.shape == (len(PREDICTOR_CHANNELS),)

    def test_lead_too_long_rejected(self, year_windows):
        positives, _ = year_windows
        with pytest.raises(ValueError):
            window_features(positives[0], lead_h=10.0)

    def test_features_finite(self, year_windows):
        positives, negatives = year_windows
        for window in positives[:5] + negatives[:5]:
            assert np.isfinite(window_features(window, 1.0)).all()


class TestDataset:
    def test_balanced(self, dataset):
        assert dataset.positives == dataset.negatives

    def test_labels_binary(self, dataset):
        assert set(np.unique(dataset.labels)) == {0, 1}

    def test_empty_class_rejected(self, year_windows):
        positives, _ = year_windows
        with pytest.raises(ValueError):
            build_dataset(positives, [], lead_h=1.0)


class TestEvaluation:
    def test_accuracy_curve_shape(self, year_windows):
        positives, negatives = year_windows
        evaluations = sweep_leads(
            positives, negatives, leads_h=(6.0, 3.0, 0.5)
        )
        acc = {e.lead_h: e.report.accuracy for e in evaluations}
        # Paper: 87 % at 6 h rising to 97 % at 30 min.
        assert 0.75 < acc[6.0] < 0.98
        assert acc[0.5] > acc[6.0]
        assert acc[0.5] > 0.90

    def test_fpr_improves_with_shorter_lead(self, year_windows):
        positives, negatives = year_windows
        evaluations = sweep_leads(
            positives, negatives, leads_h=(6.0, 0.5)
        )
        fpr = {e.lead_h: e.report.false_positive_rate for e in evaluations}
        assert fpr[0.5] < fpr[6.0]
        assert fpr[0.5] < 0.08  # paper: 1.2 %

    def test_five_folds(self, year_windows):
        positives, negatives = year_windows
        evaluations = sweep_leads(positives, negatives, leads_h=(1.0,))
        assert len(evaluations[0].cross_validation.fold_reports) == 5

    def test_level_features_underperform_changes_at_long_lead(self, year_windows):
        """Section VI-D: thresholds on levels lose to change features."""
        positives, negatives = year_windows
        change = sweep_leads(positives, negatives, leads_h=(4.0,))[0]
        level = sweep_leads(
            positives, negatives, leads_h=(4.0,), feature_fn=window_level_features
        )[0]
        assert change.report.accuracy > level.report.accuracy


class TestArchitectureTuning:
    def test_grid_contains_paper_architecture(self):
        assert constants.PREDICTOR_HIDDEN_LAYERS in default_architecture_grid()

    def test_grid_is_monotone_nonincreasing(self):
        for a, b, c in default_architecture_grid():
            assert a >= b >= c

    def test_tuning_returns_good_candidate(self, dataset):
        hidden, score = tune_architecture(dataset, budget=6, epochs=20)
        assert len(hidden) == 3
        assert score > 0.8
