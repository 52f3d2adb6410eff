"""Ablation: the Section VI-D claims, quantified.

1. *Threshold-based monitoring is not sufficient*: a conventional
   level-threshold alarm vs the change-feature MLP.
2. *Changes, not levels, carry the signal*: the same MLP trained on
   level features vs change features.
3. A linear model (logistic regression) as a capacity ablation.
"""

import numpy as np

from repro import constants

from repro.core.prediction import (
    build_dataset,
    sweep_leads,
    window_features,
    window_level_features,
)
from repro.core.report import ReportRow, format_table
from repro.ml.baselines import LogisticRegression, ThresholdAlarmDetector
from repro.ml.crossval import cross_validate
from repro.ml.metrics import evaluate_binary
from repro.monitoring.anomaly import CusumConfig, CusumDetector

# The operationally interesting horizon: the paper's whole point is
# warning *early*, and early is exactly where level thresholds fail
# (the precursor levels are still inside the healthy band at 6 h out
# while their *changes* are already distinctive).
LEAD_H = 6.0


def _cusum_window_prediction(window, lead_h):
    """1 if CUSUM alarms at or before the prediction time."""
    detector = CusumDetector(CusumConfig(warmup_samples=12))
    cutoff = window.end_epoch_s - lead_h * 3600.0
    for i, epoch in enumerate(window.epoch_s):
        if epoch > cutoff:
            break
        sample = {ch: float(window.channels[ch][i]) for ch in window.channels}
        if detector.consume(float(epoch), window.rack_id, sample):
            return 1
    return 0


def _run_ablation(positives, negatives):
    change_ds = build_dataset(positives, negatives, LEAD_H)
    level_ds = build_dataset(
        positives, negatives, LEAD_H, feature_fn=window_level_features
    )

    # Conventional threshold alarm on raw levels.
    healthy = level_ds.features[level_ds.labels == 0]
    detector = ThresholdAlarmDetector(k_sigma=3.0).fit(healthy)
    threshold_report = evaluate_binary(
        level_ds.labels, detector.predict(level_ds.features)
    )

    # Logistic regression on change features (5-fold CV).
    def logistic_fit_predict(x_train, y_train, x_test):
        return LogisticRegression().fit(x_train, y_train).predict(x_test)

    logistic_report = cross_validate(
        logistic_fit_predict,
        change_ds.features,
        change_ds.labels,
        rng=np.random.default_rng(0),
    ).summary()

    # The MLP on change and on level features.
    nn_change = sweep_leads(positives, negatives, leads_h=(LEAD_H,))[0].report
    nn_level = sweep_leads(
        positives, negatives, leads_h=(LEAD_H,), feature_fn=window_level_features
    )[0].report

    # CUSUM: the classical untrained change detector.
    cusum_true = np.array([1] * len(positives) + [0] * len(negatives))
    cusum_pred = np.array(
        [_cusum_window_prediction(w, LEAD_H) for w in positives]
        + [_cusum_window_prediction(w, LEAD_H) for w in negatives]
    )
    cusum_report = evaluate_binary(cusum_true, cusum_pred)
    return threshold_report, logistic_report, nn_change, nn_level, cusum_report


def test_ablation_predictor(benchmark, canonical_windows):
    positives, negatives = canonical_windows
    (
        threshold_report,
        logistic_report,
        nn_change,
        nn_level,
        cusum_report,
    ) = benchmark.pedantic(
        _run_ablation, args=(positives, negatives), rounds=1, iterations=1
    )

    print(f"\nAblation at a {LEAD_H:.0f} h prediction lead:")
    print(f"  threshold alarm (levels)       : {threshold_report.as_row()}")
    print(f"  logistic regression (changes)  : {logistic_report.as_row()}")
    print(f"  MLP on level features          : {nn_level.as_row()}")
    print(f"  CUSUM change detector          : {cusum_report.as_row()}")
    print(f"  MLP on change features (paper) : {nn_change.as_row()}")

    rows = [
        ReportRow("Sec VI-D", "threshold-alarm accuracy (insufficient)",
                  0.6, threshold_report.accuracy),
        ReportRow("Sec VI-D", "threshold-alarm recall at 6 h",
                  0.2, threshold_report.recall),
        ReportRow("Sec VI-D", "MLP accuracy on change features",
                  constants.PREDICTOR_ACCURACY_6H, nn_change.accuracy),
    ]
    print("\n" + format_table(rows, "Ablation — thresholds vs change features"))

    # The paper's qualitative claims must hold quantitatively.
    assert nn_change.accuracy > threshold_report.accuracy + 0.1
    assert nn_change.recall > threshold_report.recall + 0.2
    assert nn_change.accuracy >= nn_level.accuracy - 0.02
    assert nn_change.f1 >= logistic_report.f1 - 0.02
    # CUSUM beats fixed level thresholds (it sees changes) but the
    # trained MLP still wins overall.
    assert cusum_report.recall > threshold_report.recall
    assert nn_change.accuracy >= cusum_report.accuracy - 0.02
