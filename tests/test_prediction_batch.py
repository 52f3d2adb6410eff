"""Batched feature extraction and the parallel lead sweep.

The contract under test: :func:`batch_change_features` reproduces the
per-window :func:`window_features` reference bit-for-bit (including
NaN propagation through faulted windows), and ``sweep_leads`` /
``tune_architecture`` return identical results for any worker count.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.prediction import (
    FEATURE_LAGS_H,
    batch_change_features,
    batch_level_features,
    build_dataset,
    build_datasets,
    stack_windows,
    sweep_leads,
    tune_architecture,
    window_features,
    window_level_features,
)
from repro.facility.topology import RackId
from repro.ml.crossval import CrossValidationResult, stratified_k_fold
from repro.ml.metrics import evaluate_binary
from repro.ml.network import NeuralNetwork
from repro.ml.train import TrainConfig, three_way_split, train_classifier
from repro.simulation.windows import LeadupWindow
from repro.telemetry.records import PREDICTOR_CHANNELS

LEADS = (6.0, 3.0, 1.0, 0.5)


def synthetic_windows(n_pos, n_neg, seed=0, history_h=12.5, dt_s=300.0):
    """Deterministic lead-up windows with a precursor-like ramp on positives."""
    rng = np.random.default_rng(seed)
    count = int(round(history_h * 3600.0 / dt_s))
    windows = []
    for i in range(n_pos + n_neg):
        positive = i < n_pos
        end = 1.6e9 + i * 7211.0
        grid = end - dt_s * np.arange(count, -1, -1, dtype="float64")
        rel = grid - end
        channels = {}
        for c, channel in enumerate(PREDICTOR_CHANNELS):
            base = 40.0 + 11.0 * c
            series = (
                base
                + rng.normal(0.0, 0.4, grid.shape)
                + rng.normal(0.0, 0.05) * rel / 3600.0
            )
            if positive:
                series = series * (1.0 + 0.1 * np.exp(rel / 7200.0))
            channels[channel] = series
        windows.append(
            LeadupWindow(
                rack_id=RackId.from_flat_index(i % 48),
                end_epoch_s=end,
                epoch_s=grid,
                channels=channels,
                is_positive=positive,
            )
        )
    return windows[:n_pos], windows[n_pos:]


@pytest.fixture(scope="module")
def windows():
    return synthetic_windows(24, 24)


class TestBatchMatchesPerWindow:
    def test_change_features_match_to_1e12(self, windows):
        positives, negatives = windows
        all_windows = positives + negatives
        batch = batch_change_features(all_windows, LEADS)
        reference = np.stack(
            [[window_features(w, lead) for w in all_windows] for lead in LEADS]
        )
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)

    def test_level_features_match(self, windows):
        positives, _ = windows
        batch = batch_level_features(positives, LEADS)
        reference = np.stack(
            [[window_level_features(w, lead) for w in positives] for lead in LEADS]
        )
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)

    def test_real_synthesizer_windows_match(self, year_windows):
        """The acceptance check on a real (simulated) demo dataset."""
        positives, negatives = year_windows
        sample = positives[:10] + negatives[:10]
        batch = batch_change_features(sample, LEADS)
        reference = np.stack(
            [[window_features(w, lead) for w in sample] for lead in LEADS]
        )
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)

    def test_too_long_lead_raises_like_reference(self, windows):
        positives, _ = windows
        with pytest.raises(ValueError, match="window too short"):
            batch_change_features(positives, (10.0,))

    def test_mixed_geometry_falls_back(self, windows):
        positives, _ = windows
        short = synthetic_windows(1, 1, seed=9, history_h=8.0)[0][0]
        mixed = positives[:3] + [short]
        assert stack_windows(mixed) is None
        batch = batch_change_features(mixed, (1.0,))
        reference = np.stack([[window_features(w, 1.0) for w in mixed]])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)


class TestDegenerateDatasets:
    def test_window_exactly_at_minimum_lookback(self):
        """A window of exactly lead + max(lag) hours is usable, no shorter."""
        lead = 1.0
        exact_h = lead + max(FEATURE_LAGS_H)
        pos, neg = synthetic_windows(2, 2, seed=3, history_h=exact_h)
        batch = batch_change_features(pos + neg, (lead,))
        reference = np.stack([[window_features(w, lead) for w in pos + neg]])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="window too short"):
            batch_change_features(pos + neg, (lead + 0.5,))
        with pytest.raises(ValueError, match="window too short"):
            window_features(pos[0], lead + 0.5)

    def test_nan_holed_windows_flow_through(self, windows):
        """Faulted (NaN-holed) windows yield NaN rows, same as per-window."""
        positives, negatives = windows
        holed = list(positives)
        channel = PREDICTOR_CHANNELS[0]
        channels = dict(holed[2].channels)
        values = channels[channel].copy()
        values[-30:-20] = np.nan  # hole covering the 1 h-lag query point
        channels[channel] = values
        holed[2] = dataclasses.replace(holed[2], channels=channels)
        batch = batch_change_features(holed, (1.0,))
        reference = np.stack([[window_features(w, 1.0) for w in holed]])
        assert (np.isnan(batch) == np.isnan(reference)).all()
        np.testing.assert_allclose(
            batch, reference, rtol=1e-12, atol=1e-12, equal_nan=True
        )
        assert np.isnan(batch[0, 2]).any()

        datasets = build_datasets(holed, negatives, (1.0,))
        assert not datasets[0].finite_mask()[2]
        assert datasets[0].finite_mask().sum() == len(holed) + len(negatives) - 1

    def test_drop_nonfinite_removes_quality_masked_rows(self, windows):
        positives, negatives = windows
        holed = list(positives)
        channels = dict(holed[0].channels)
        channels[PREDICTOR_CHANNELS[1]] = np.full_like(
            channels[PREDICTOR_CHANNELS[1]], np.nan
        )
        holed[0] = dataclasses.replace(holed[0], channels=channels)
        dataset = build_dataset(holed, negatives, 1.0, drop_nonfinite=True)
        assert dataset.positives == len(positives) - 1
        assert dataset.negatives == len(negatives)
        assert np.isfinite(dataset.features).all()

    def test_drop_nonfinite_emptying_a_class_raises(self, windows):
        positives, negatives = windows
        ruined = []
        for window in positives:
            channels = {
                ch: np.full_like(v, np.nan) for ch, v in window.channels.items()
            }
            ruined.append(dataclasses.replace(window, channels=channels))
        with pytest.raises(ValueError, match="emptied a class"):
            build_dataset(ruined, negatives, 1.0, drop_nonfinite=True)

    def test_single_class_labels_still_partition(self):
        """Splitters handle a single-class label vector without crashing."""
        y = np.zeros(20, dtype=int)
        folds = stratified_k_fold(y, 4, np.random.default_rng(0))
        assert sum(len(test) for _, test in folds) == 20
        x = np.arange(40.0).reshape(20, 2)
        (xt, yt), (xs, ys), (xv, yv) = three_way_split(
            x, y, np.random.default_rng(0)
        )
        assert len(yt) + len(ys) + len(yv) == 20
        assert set(np.unique(np.concatenate([yt, ys, yv]))) == {0}

    def test_explicit_generator_required(self):
        with pytest.raises(TypeError, match="Generator"):
            stratified_k_fold(np.tile([0, 1], 10), 2, 1234)
        with pytest.raises(TypeError, match="Generator"):
            three_way_split(np.ones((10, 2)), np.tile([0, 1], 5), 1234)


class TestWorkerDeterminism:
    def test_sweep_bit_identical_across_worker_counts(self, windows):
        positives, negatives = windows
        kwargs = dict(leads_h=(1.0, 0.5), epochs=6, folds=3, seed=11)
        serial = sweep_leads(positives, negatives, workers=1, **kwargs)
        parallel = sweep_leads(positives, negatives, workers=4, **kwargs)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a.lead_h == b.lead_h
            # Dataclass equality on the float fields: bit-identical.
            assert a.cross_validation == b.cross_validation

    def test_tune_bit_identical_across_worker_counts(self, windows):
        positives, negatives = windows
        dataset = build_dataset(positives, negatives, 1.0)
        grid = [(8, 6, 4), (6, 6, 4), (12, 8, 6), (8, 8, 6), (6, 4, 4)]
        serial = tune_architecture(
            dataset, candidates=grid, budget=5, epochs=5, workers=1
        )
        parallel = tune_architecture(
            dataset, candidates=grid, budget=5, epochs=5, workers=3
        )
        assert serial == parallel

    def test_evaluation_matches_legacy_serial_protocol(self, windows):
        """The sweep reproduces cross_validate's fold protocol exactly."""
        from repro.ml.crossval import cross_validate

        def fit_predict(x_train, y_train, x_test):
            rng = np.random.default_rng(11)
            network = NeuralNetwork.mlp(x_train.shape[1], (8, 6, 4), rng=rng)
            result = train_classifier(
                network, x_train, y_train, config=TrainConfig(epochs=6), rng=rng
            )
            return result.predict(x_test)

        positives, negatives = windows
        dataset = build_dataset(positives, negatives, 1.0)
        legacy = cross_validate(
            fit_predict,
            dataset.features,
            dataset.labels,
            k=3,
            rng=np.random.default_rng(11),
        )
        swept = sweep_leads(
            positives,
            negatives,
            leads_h=(1.0,),
            hidden=(8, 6, 4),
            epochs=6,
            folds=3,
            seed=11,
            workers=1,
        )
        assert swept[0].cross_validation == legacy

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lockstep_groups_match_per_fold_training(self, workers):
        """Folds of unequal size form several lockstep groups; every
        (lead, fold) cell still equals training it alone."""
        positives, negatives = synthetic_windows(23, 22, seed=3)
        leads, hidden, epochs, folds, seed = (3.0, 1.0, 0.5), (8, 6, 4), 6, 3, 11
        expected = []
        sizes = set()
        for dataset in build_datasets(positives, negatives, leads):
            reports = []
            x, y = dataset.features, dataset.labels
            for train_idx, test_idx in stratified_k_fold(
                y, folds, np.random.default_rng(seed)
            ):
                sizes.add(len(train_idx))
                rng = np.random.default_rng(seed)
                network = NeuralNetwork.mlp(x.shape[1], hidden, rng=rng)
                result = train_classifier(
                    network, x[train_idx], y[train_idx],
                    config=TrainConfig(epochs=epochs), rng=rng,
                )
                reports.append(
                    evaluate_binary(y[test_idx], result.predict(x[test_idx]))
                )
            expected.append(CrossValidationResult(fold_reports=tuple(reports)))
        assert len(sizes) >= 2
        swept = sweep_leads(
            positives, negatives, leads_h=leads, hidden=hidden, epochs=epochs,
            folds=folds, seed=seed, workers=workers,
        )
        assert [e.lead_h for e in swept] == list(leads)
        assert [e.cross_validation for e in swept] == expected
