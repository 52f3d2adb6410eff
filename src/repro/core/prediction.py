"""The CMF predictor: Fig 13.

The paper's pipeline, end to end:

1. **Dataset**: for every CMF, the coolant-monitor metrics from the
   six hours before it (positive class); an equal number of samples
   drawn evenly across the production period with no CMF within the
   horizon (negative class).
2. **Features**: the *change* in each monitored metric (flow, outlet
   temperature, inlet temperature, power, DC temperature, DC
   humidity) over the past six hours, evaluated at the prediction
   time — Section VI-D stresses that changes, not levels, carry the
   signal.
3. **Model**: an MLP with hidden layers (12, 12, 6) — sized by
   Bayesian optimization — ReLU activations, a sigmoid output, 50
   training epochs.
4. **Evaluation**: accuracy/precision/recall/F1 (plus FPR) under
   5-fold cross-validation, swept over prediction leads from six
   hours down to 30 minutes before the failure.

Since model retraining is a recurring production workload in
operational-data-analytics deployments, the pipeline is built for
throughput: features for *all* windows and *all* leads come out of
one columnar interpolation pass (:func:`batch_change_features`); the
lead sweep's cross-validation folds train in lockstep groups, one
stacked minibatch step for every fold that shares a batch schedule;
and the groups and the Bayesian-optimization initial design fan out
over a process pool via :mod:`repro.parallel`.
:func:`window_features` remains as the per-window reference
implementation; the batch path matches it to float precision, and
results are bit-identical between ``workers=1`` and ``workers>1``
because every task reseeds from the same constants.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants, timeutil
from repro.ml.bayesopt import BayesianOptimizer
from repro.ml.crossval import CrossValidationResult, stratified_k_fold
from repro.ml.metrics import BinaryClassificationReport, evaluate_binary
from repro.ml.network import NeuralNetwork
from repro.ml.train import (
    TrainConfig,
    three_way_split,
    train_classifier,
    train_classifiers,
)
from repro.parallel import pmap
from repro.simulation.windows import LeadupWindow
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

#: Lags (hours) over which per-channel changes are computed.
FEATURE_LAGS_H: Tuple[float, ...] = (6.0, 3.0, 1.0)

#: The prediction leads of Fig 13, hours before the CMF.
DEFAULT_LEADS_H: Tuple[float, ...] = (6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5)


def window_features(window: LeadupWindow, lead_h: float) -> np.ndarray:
    """Change features for one window at one prediction lead.

    For each predictor channel and each lag in :data:`FEATURE_LAGS_H`,
    the relative change between the value at prediction time and the
    value ``lag`` earlier.

    This is the per-window reference implementation; the pipeline
    itself runs :func:`batch_change_features`, which computes the same
    features for every window and lead in one vectorized pass.

    Raises:
        ValueError: if the window is too short for the largest lag.
    """
    t_pred = window.end_epoch_s - lead_h * timeutil.HOUR_S
    earliest_needed = t_pred - max(FEATURE_LAGS_H) * timeutil.HOUR_S
    if earliest_needed < window.epoch_s[0] - 1e-6:
        raise ValueError(
            f"window too short: needs data at lead {lead_h} h plus "
            f"{max(FEATURE_LAGS_H)} h of lookback"
        )
    features: List[float] = []
    for channel in PREDICTOR_CHANNELS:
        now = window.value_at(channel, t_pred)
        for lag_h in FEATURE_LAGS_H:
            then = window.value_at(channel, t_pred - lag_h * timeutil.HOUR_S)
            denominator = abs(then) if abs(then) > 1e-9 else 1.0
            features.append((now - then) / denominator)
    return np.array(features)


def window_level_features(window: LeadupWindow, lead_h: float) -> np.ndarray:
    """Raw channel *levels* at the prediction time (ablation baseline).

    This is what conventional threshold-based monitoring sees; the
    Section VI-D ablation contrasts it with the change features.
    """
    t_pred = window.end_epoch_s - lead_h * timeutil.HOUR_S
    return np.array(
        [window.value_at(channel, t_pred) for channel in PREDICTOR_CHANNELS]
    )


# -- batched feature extraction ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class WindowStack:
    """A columnar view over same-geometry lead-up windows.

    Attributes:
        values: ``(n_windows, n_channels, n_times)`` channel samples in
            :data:`PREDICTOR_CHANNELS` order.
        rel_s: ``(n_windows, n_times)`` sample times relative to each
            window's end (non-positive, ascending per row).
        end_epoch_s: ``(n_windows,)`` absolute window end times.
    """

    values: np.ndarray
    rel_s: np.ndarray
    end_epoch_s: np.ndarray


def stack_windows(windows: Sequence[LeadupWindow]) -> Optional[WindowStack]:
    """Build the columnar view, or ``None`` if geometries differ.

    All windows from one :class:`WindowSynthesizer` share the same
    sample count and (up to float rounding of the absolute epochs) the
    same relative grid; windows of differing shapes force the callers
    back onto the per-window path.
    """
    if not windows:
        return None
    n_t = windows[0].epoch_s.shape[0]
    n_w = len(windows)
    n_c = len(PREDICTOR_CHANNELS)
    values = np.empty((n_w, n_c, n_t), dtype="float64")
    rel = np.empty((n_w, n_t), dtype="float64")
    ends = np.empty(n_w, dtype="float64")
    ref = windows[0].epoch_s - windows[0].end_epoch_s
    for i, window in enumerate(windows):
        if window.epoch_s.shape[0] != n_t:
            return None
        ends[i] = window.end_epoch_s
        # Relative offsets are exact (Sterbenz subtraction), so the
        # batch interpolation reproduces the absolute-coordinate
        # per-window result to float precision.
        rel[i] = window.epoch_s - window.end_epoch_s
        if np.abs(rel[i] - ref).max() > 1e-3:
            return None
        for c, channel in enumerate(PREDICTOR_CHANNELS):
            values[i, c] = window.channels[channel]
    return WindowStack(values=values, rel_s=rel, end_epoch_s=ends)


def _batch_interp(stack: WindowStack, rel_q: np.ndarray) -> np.ndarray:
    """Linear interpolation of every channel at per-window offsets.

    One ``searchsorted`` over the shared grid geometry locates each
    query's bracket; a one-step per-window fix-up absorbs the sub-ulp
    differences between window grids so the bracket always contains
    the query, and exact grid hits return the stored sample verbatim
    (matching ``np.interp``, including through NaN-holed data).

    Args:
        stack: The columnar window view.
        rel_q: ``(n_windows, n_queries)`` query offsets relative to
            each window's end.

    Returns:
        ``(n_windows, n_channels, n_queries)`` interpolated values,
        clamped at the window edges like ``np.interp``.
    """
    values, rel = stack.values, stack.rel_s
    n_w, n_c, n_t = values.shape
    n_q = rel_q.shape[1]
    hi = np.clip(np.searchsorted(rel[0], rel_q[0], side="left"), 1, n_t - 1)
    hi = np.broadcast_to(hi, (n_w, n_q)).copy()
    rows = np.arange(n_w)[:, None]
    # Per-window bracket fix-up: grids differ only in the last float
    # bits, so at most one shift in either direction is ever needed.
    shift = (rel_q > rel[rows, hi]) & (hi < n_t - 1)
    hi[shift] += 1
    shift = (rel_q < rel[rows, hi - 1]) & (hi > 1)
    hi[shift] -= 1
    lo = hi - 1
    x0 = rel[rows, lo]
    x1 = rel[rows, hi]
    with np.errstate(invalid="ignore"):
        t = np.clip((rel_q - x0) / (x1 - x0), 0.0, 1.0)[:, None, :]
    cols = np.arange(n_c)[None, :, None]
    v0 = values[rows[:, :, None], cols, lo[:, None, :]]
    v1 = values[rows[:, :, None], cols, hi[:, None, :]]
    out = v0 + (v1 - v0) * t
    # Exact grid hits return the sample itself (np.interp semantics),
    # which matters both for bit-exactness and for NaN-holed windows
    # where the interpolation formula would smear the hole.
    out = np.where((rel_q == x0)[:, None, :], v0, out)
    out = np.where((rel_q == x1)[:, None, :], v1, out)
    return out


def _change_query_offsets(
    stack: WindowStack, leads_h: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-window relative offsets for the now/then change queries.

    Replicates the per-window arithmetic (``end - lead`` then
    ``- lag``) before re-basing to window-relative coordinates, so the
    batch path lands on the exact same float queries as
    :func:`window_features`.

    Returns:
        (now offsets ``(n_w, n_leads)``,
        then offsets ``(n_w, n_leads * n_lags)``).
    """
    ends = stack.end_epoch_s[:, None]
    leads = np.asarray(leads_h, dtype="float64")[None, :]
    t_pred = ends - leads * timeutil.HOUR_S
    lags = np.asarray(FEATURE_LAGS_H, dtype="float64")[None, None, :]
    t_then = t_pred[:, :, None] - lags * timeutil.HOUR_S
    earliest = t_pred - max(FEATURE_LAGS_H) * timeutil.HOUR_S
    starts = stack.rel_s[:, 0] + stack.end_epoch_s
    short = earliest < starts[:, None] - 1e-6
    if short.any():
        lead = float(leads.ravel()[int(np.argmax(short.any(axis=0)))])
        raise ValueError(
            f"window too short: needs data at lead {lead} h plus "
            f"{max(FEATURE_LAGS_H)} h of lookback"
        )
    ends3 = stack.end_epoch_s[:, None, None]
    return t_pred - stack.end_epoch_s[:, None], (t_then - ends3).reshape(
        len(stack.end_epoch_s), -1
    )


def batch_change_features(
    windows: Sequence[LeadupWindow], leads_h: Sequence[float]
) -> np.ndarray:
    """:func:`window_features` for every window and lead in one pass.

    Returns:
        ``(n_leads, n_windows, n_channels * n_lags)`` features, rows
        ordered like the input windows, columns channel-major then lag
        (identical to the per-window layout).

    Raises:
        ValueError: if any window is too short for the largest lag at
            any requested lead.
    """
    stack = stack_windows(windows)
    if stack is None:
        return np.stack(
            [[window_features(w, lead) for w in windows] for lead in leads_h]
        )
    n_w = len(windows)
    n_leads = len(leads_h)
    n_lags = len(FEATURE_LAGS_H)
    q_now, q_then = _change_query_offsets(stack, leads_h)
    merged = _batch_interp(stack, np.concatenate([q_now, q_then], axis=1))
    now = merged[:, :, :n_leads, None]
    then = merged[:, :, n_leads:].reshape(n_w, -1, n_leads, n_lags)
    with np.errstate(invalid="ignore"):
        magnitude = np.abs(then)
        denominator = np.where(magnitude > 1e-9, magnitude, 1.0)
        features = (now - then) / denominator
    # (n_w, n_c, n_leads, n_lags) -> (n_leads, n_w, n_c * n_lags)
    return np.transpose(features, (2, 0, 1, 3)).reshape(n_leads, n_w, -1)


def batch_level_features(
    windows: Sequence[LeadupWindow], leads_h: Sequence[float]
) -> np.ndarray:
    """:func:`window_level_features` for every window and lead.

    Returns:
        ``(n_leads, n_windows, n_channels)`` channel levels at each
        prediction time.
    """
    stack = stack_windows(windows)
    if stack is None:
        return np.stack(
            [
                [window_level_features(w, lead) for w in windows]
                for lead in leads_h
            ]
        )
    leads = np.asarray(leads_h, dtype="float64")[None, :]
    t_pred = stack.end_epoch_s[:, None] - leads * timeutil.HOUR_S
    levels = _batch_interp(stack, t_pred - stack.end_epoch_s[:, None])
    return np.transpose(levels, (2, 0, 1))


@dataclasses.dataclass(frozen=True)
class PredictorDataset:
    """A labeled feature matrix for one prediction lead."""

    lead_h: float
    features: np.ndarray
    labels: np.ndarray

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return int((1 - self.labels).sum())

    def finite_mask(self) -> np.ndarray:
        """Rows whose features are all finite (quality-usable samples).

        NaN-holed (faulted) windows flow through the batch extractor
        as NaN feature rows; this mask is how callers respect them.
        """
        return np.isfinite(self.features).all(axis=1)


def build_datasets(
    positive_windows: Sequence[LeadupWindow],
    negative_windows: Sequence[LeadupWindow],
    leads_h: Sequence[float],
    feature_fn: Callable[[LeadupWindow, float], np.ndarray] = window_features,
    drop_nonfinite: bool = False,
) -> List[PredictorDataset]:
    """Assemble the balanced datasets for every lead in one pass.

    The known feature functions (:func:`window_features`,
    :func:`window_level_features`) route through the batch extractor,
    so the window tensor is built and interpolated once for the whole
    lead sweep; any other callable falls back to per-window calls.

    Args:
        drop_nonfinite: Drop rows with non-finite features (NaN-holed
            faulted windows) instead of passing them to training.

    Raises:
        ValueError: if either class is empty, any window is too short,
            or dropping non-finite rows empties a class.
    """
    if not positive_windows or not negative_windows:
        raise ValueError("both classes need at least one window")
    windows = list(positive_windows) + list(negative_windows)
    labels = np.array(
        [1] * len(positive_windows) + [0] * len(negative_windows), dtype=int
    )
    if feature_fn is window_features:
        features = batch_change_features(windows, leads_h)
    elif feature_fn is window_level_features:
        features = batch_level_features(windows, leads_h)
    else:
        features = np.stack(
            [[feature_fn(w, lead) for w in windows] for lead in leads_h]
        )
    datasets = []
    for i, lead_h in enumerate(leads_h):
        x, y = features[i], labels
        if drop_nonfinite:
            keep = np.isfinite(x).all(axis=1)
            x, y = x[keep], y[keep]
            if y.sum() == 0 or (1 - y).sum() == 0:
                raise ValueError(
                    "dropping non-finite feature rows emptied a class; "
                    "too many faulted windows"
                )
        datasets.append(
            PredictorDataset(lead_h=float(lead_h), features=x, labels=y)
        )
    return datasets


def build_dataset(
    positive_windows: Sequence[LeadupWindow],
    negative_windows: Sequence[LeadupWindow],
    lead_h: float,
    feature_fn: Callable[[LeadupWindow, float], np.ndarray] = window_features,
    drop_nonfinite: bool = False,
) -> PredictorDataset:
    """Assemble the balanced dataset for one lead time.

    Raises:
        ValueError: if either class is empty.
    """
    return build_datasets(
        positive_windows,
        negative_windows,
        [lead_h],
        feature_fn=feature_fn,
        drop_nonfinite=drop_nonfinite,
    )[0]


@dataclasses.dataclass(frozen=True)
class PredictorEvaluation:
    """Fig 13 point: cross-validated metrics at one lead."""

    lead_h: float
    cross_validation: CrossValidationResult

    @property
    def report(self) -> BinaryClassificationReport:
        return self.cross_validation.summary()


def _group_task(payload: tuple) -> List[BinaryClassificationReport]:
    """Train and score one lockstep group of (lead, fold) cells — the
    pool work unit.

    Every cell of the group shares the initial weights and batch order
    a lone cell would draw from ``default_rng(seed)``, so the group
    builds the network once, copies it per cell and trains the copies
    as one stack.  The reports depend only on the payload, never on
    worker identity or order.
    """
    hidden, epochs, seed, cells = payload
    rng = np.random.default_rng(seed)
    network = NeuralNetwork.mlp(cells[0][0].shape[1], hidden, rng=rng)
    results = train_classifiers(
        [copy.deepcopy(network) for _ in cells],
        [x_train for x_train, _, _, _ in cells],
        [y_train for _, y_train, _, _ in cells],
        config=TrainConfig(epochs=epochs),
        rng=rng,
    )
    return [
        evaluate_binary(y_test, result.predict(x_test))
        for result, (_, _, x_test, y_test) in zip(results, cells)
    ]


def sweep_leads(
    positive_windows: Sequence[LeadupWindow],
    negative_windows: Sequence[LeadupWindow],
    leads_h: Sequence[float] = DEFAULT_LEADS_H,
    hidden: Sequence[int] = constants.PREDICTOR_HIDDEN_LAYERS,
    epochs: int = constants.PREDICTOR_EPOCHS,
    folds: int = constants.PREDICTOR_CV_FOLDS,
    seed: int = 5,
    feature_fn: Callable[[LeadupWindow, float], np.ndarray] = window_features,
    workers: Optional[int] = None,
    drop_nonfinite: bool = False,
) -> List[PredictorEvaluation]:
    """Sweep prediction leads and cross-validate at each (Fig 13).

    Features for all leads come from one batch-extraction pass, and
    fold assignment happens up front with an explicit per-lead
    generator.  Each of the ``len(leads_h) * folds`` train/score cells
    would train a network built from ``default_rng(seed)`` and shuffle
    with the same generator, so cells whose training sets have the same
    width and row count share their initial weights and batch order.
    Those cells form one lockstep group, trained as one stack (see
    :func:`~repro.ml.train.train_classifiers`), which gives every cell
    the same bits as training it alone; each group is one task on the
    process pool.  Groups depend only on the data, never on the worker
    count, so results are bit-identical for any worker count.

    Args:
        workers: Process-pool size (None = ``REPRO_WORKERS`` or all
            cores; 1 = serial in-process).
    """
    datasets = build_datasets(
        positive_windows,
        negative_windows,
        leads_h,
        feature_fn=feature_fn,
        drop_nonfinite=drop_nonfinite,
    )
    hidden = tuple(int(h) for h in hidden)
    # (lead index, fold index) cells keyed by what fixes their initial
    # weights and batch order; hidden sizes, epochs and seed are the
    # same for every cell of one sweep.
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    cells = {}
    fold_counts = []
    for lead, dataset in enumerate(datasets):
        assignments = stratified_k_fold(
            dataset.labels, folds, np.random.default_rng(seed)
        )
        fold_counts.append(len(assignments))
        x = np.asarray(dataset.features, dtype="float64")
        y = dataset.labels
        for fold, (train_idx, test_idx) in enumerate(assignments):
            cells[lead, fold] = (x[train_idx], y[train_idx], x[test_idx], y[test_idx])
            groups.setdefault((x.shape[1], len(train_idx)), []).append((lead, fold))
    members = list(groups.values())
    tasks = [
        (hidden, epochs, seed, [cells[cell] for cell in group]) for group in members
    ]
    reports = {}
    for group, group_reports in zip(members, pmap(_group_task, tasks, workers=workers)):
        reports.update(zip(group, group_reports))
    return [
        PredictorEvaluation(
            lead_h=dataset.lead_h,
            cross_validation=CrossValidationResult(
                fold_reports=tuple(reports[lead, fold] for fold in range(count))
            ),
        )
        for lead, (dataset, count) in enumerate(zip(datasets, fold_counts))
    ]


def default_architecture_grid() -> List[Tuple[int, int, int]]:
    """The layer-size search space for Bayesian optimization."""
    sizes = (4, 6, 8, 12, 16, 24)
    return [
        (a, b, c)
        for a in sizes
        for b in sizes
        for c in (4, 6, 8, 12)
        if a >= b >= c
    ]


def _trial_task(payload: tuple) -> float:
    """Train one architecture candidate and return validation accuracy."""
    candidate, epochs, seed, x_train, y_train, x_val, y_val = payload
    hidden = tuple(int(h) for h in candidate)
    rng = np.random.default_rng(seed)
    network = NeuralNetwork.mlp(x_train.shape[1], hidden, rng=rng)
    result = train_classifier(
        network,
        x_train,
        y_train,
        config=TrainConfig(epochs=epochs),
        rng=rng,
    )
    return evaluate_binary(y_val, result.predict(x_val)).accuracy


def tune_architecture(
    dataset: PredictorDataset,
    candidates: Optional[Sequence[Tuple[int, ...]]] = None,
    budget: int = 10,
    epochs: int = constants.PREDICTOR_EPOCHS,
    seed: int = 5,
    workers: Optional[int] = None,
) -> Tuple[Tuple[int, ...], float]:
    """Bayesian-optimize the hidden-layer sizes (Section VI-B).

    The objective is validation accuracy under the paper's 3:1:1
    split.  The optimizer's initial random design — the only batch of
    trials that is independent by construction — is evaluated on the
    process pool; the sequential expected-improvement phase stays in
    the parent.  Scores depend only on the candidate and ``seed``, so
    the search trajectory is identical for any worker count.

    Returns:
        (best hidden-layer sizes, best validation accuracy).
    """
    grid = list(candidates) if candidates is not None else default_architecture_grid()
    rng = np.random.default_rng(seed)
    (x_train, y_train), _, (x_val, y_val) = three_way_split(
        dataset.features, dataset.labels, rng, ratio=constants.PREDICTOR_SPLIT
    )

    def payload(candidate: Tuple[float, ...]) -> tuple:
        return (candidate, epochs, seed, x_train, y_train, x_val, y_val)

    def objective(candidate: Tuple[float, ...]) -> float:
        return _trial_task(payload(candidate))

    def evaluate_batch(batch: Sequence[Tuple[float, ...]]) -> List[float]:
        return pmap(_trial_task, [payload(c) for c in batch], workers=workers)

    optimizer = BayesianOptimizer(grid, rng=rng)
    best, _ = optimizer.maximize(
        objective, budget=budget, evaluate_batch=evaluate_batch
    )
    return tuple(int(h) for h in best.candidate), best.score
