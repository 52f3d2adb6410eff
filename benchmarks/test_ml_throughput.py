"""Predictor-pipeline throughput: batch featurization and the lockstep sweep.

Times the two optimizations behind the Fig 13 pipeline:

1. **Featurization** — the per-window reference loop
   (:func:`window_features` over every window and lead) against
   :func:`batch_change_features`, which extracts the same features in
   one columnar interpolation pass.  The two outputs are asserted
   equal, so the speedup is never bought with a numerics change.
2. **Lead sweep** — the paper's seven leads with 5-fold CV, 35
   (lead, fold) cells.  The reference loop trains every cell with its
   own :func:`train_classifier` call; ``sweep_leads(workers=1)``
   trains each group of cells that shares a batch schedule as one
   stack, one minibatch step for the whole group.  The two results
   are asserted equal, and so is the sweep over the process pool
   (``workers=resolve_workers(None)``), whose time is recorded but not
   gated: these 35 cells have one training-set size, so they form one
   group and one pool task.

Results are written to ``BENCH_ml.json`` at the repo root so CI can
surface regressions.  Both gates compare two ways of doing the same
work in one process, so they run on any core count.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_json import write_bench_json
from repro import constants
from repro.core.prediction import (
    DEFAULT_LEADS_H,
    batch_change_features,
    build_datasets,
    sweep_leads,
    window_features,
)
from repro.facility.topology import RackId
from repro.ml.crossval import CrossValidationResult, stratified_k_fold
from repro.ml.metrics import evaluate_binary
from repro.ml.network import NeuralNetwork
from repro.ml.train import TrainConfig, train_classifier
from repro.parallel import resolve_workers
from repro.simulation.windows import LeadupWindow
from repro.telemetry.records import PREDICTOR_CHANNELS


#: Minimum batch-over-loop featurization speedup (measured: >30x).
MIN_FEATURIZATION_SPEEDUP = 5.0

#: Minimum lockstep-over-per-cell sweep speedup (measured: 4.8-6.0x on
#: a 2-core box).
MIN_LOCKSTEP_SPEEDUP = 3.0


def _synthetic_windows(n_pos, n_neg, seed=0, history_h=12.5, dt_s=300.0):
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


def _per_cell_sweep(positives, negatives, leads, epochs, folds, seed):
    """The reference loop: one ``train_classifier`` call per (lead, fold)
    cell, with the fold assignment and seeding of ``sweep_leads``.

    Returns:
        (one CrossValidationResult per lead, the distinct training-set
        sizes).
    """
    results, sizes = [], set()
    for dataset in build_datasets(positives, negatives, leads):
        x, y = dataset.features, dataset.labels
        reports = []
        for train_idx, test_idx in stratified_k_fold(
            y, folds, np.random.default_rng(seed)
        ):
            sizes.add(len(train_idx))
            rng = np.random.default_rng(seed)
            network = NeuralNetwork.mlp(
                x.shape[1], constants.PREDICTOR_HIDDEN_LAYERS, rng=rng
            )
            result = train_classifier(
                network, x[train_idx], y[train_idx],
                config=TrainConfig(epochs=epochs), rng=rng,
            )
            reports.append(evaluate_binary(y[test_idx], result.predict(x[test_idx])))
        results.append(CrossValidationResult(fold_reports=tuple(reports)))
    return results, sizes


def test_ml_throughput():
    positives, negatives = _synthetic_windows(220, 220, seed=7)
    all_windows = positives + negatives
    leads = DEFAULT_LEADS_H

    # -- featurization: per-window loop vs one columnar pass --------------
    start = time.perf_counter()
    loop = np.stack(
        [[window_features(w, lead) for w in all_windows] for lead in leads]
    )
    loop_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = batch_change_features(all_windows, leads)
    batch_s = time.perf_counter() - start

    np.testing.assert_allclose(batch, loop, rtol=1e-9, atol=1e-9)
    n_extractions = len(all_windows) * len(leads)
    featurization = {
        "windows": len(all_windows),
        "leads": len(leads),
        "loop_seconds": round(loop_s, 4),
        "batch_seconds": round(batch_s, 4),
        "loop_windows_per_sec": round(n_extractions / loop_s, 1),
        "batch_windows_per_sec": round(n_extractions / batch_s, 1),
        "speedup": round(loop_s / batch_s, 2),
    }

    # -- lead sweep: per-cell loop vs lockstep groups (vs the pool) -------
    epochs, folds, seed = 50, 5, 5
    start = time.perf_counter()
    per_cell, sizes = _per_cell_sweep(positives, negatives, leads, epochs, folds, seed)
    per_cell_s = time.perf_counter() - start

    sweep_kwargs = dict(epochs=epochs, folds=folds, seed=seed)
    start = time.perf_counter()
    serial = sweep_leads(positives, negatives, workers=1, **sweep_kwargs)
    serial_s = time.perf_counter() - start

    pool_workers = resolve_workers(None)
    start = time.perf_counter()
    parallel = sweep_leads(
        positives, negatives, workers=pool_workers, **sweep_kwargs
    )
    parallel_s = time.perf_counter() - start

    assert [e.cross_validation for e in serial] == per_cell, (
        "lockstep sweep diverged from per-cell training"
    )
    assert [e.lead_h for e in serial] == [e.lead_h for e in parallel]
    for a, b in zip(serial, parallel):
        assert a.cross_validation == b.cross_validation, (
            "parallel sweep diverged from serial"
        )

    sweep = {
        "leads": len(leads),
        "folds": folds,
        "epochs": epochs,
        "cells": len(leads) * folds,
        "groups": len(sizes),
        "workers": pool_workers,
        "per_cell_seconds": round(per_cell_s, 4),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "lockstep_speedup": round(per_cell_s / serial_s, 2),
        "pool_speedup": round(serial_s / parallel_s, 2),
    }

    write_bench_json("ml", {"featurization": featurization, "lead_sweep": sweep})

    print("\npredictor throughput (440 windows, 7 leads):")
    print(
        f"  featurization: loop {loop_s:.3f}s vs batch {batch_s:.3f}s"
        f" -> {featurization['speedup']:.1f}x"
    )
    print(
        f"  lead sweep: per-cell {per_cell_s:.2f}s vs lockstep {serial_s:.2f}s"
        f" -> {sweep['lockstep_speedup']:.2f}x ({sweep['groups']} group(s));"
        f" {pool_workers} workers {parallel_s:.2f}s"
    )

    assert featurization["speedup"] > MIN_FEATURIZATION_SPEEDUP
    assert sweep["lockstep_speedup"] >= MIN_LOCKSTEP_SPEEDUP, (
        f"lockstep sweep speedup {sweep['lockstep_speedup']}x below "
        f"{MIN_LOCKSTEP_SPEEDUP}x"
    )
