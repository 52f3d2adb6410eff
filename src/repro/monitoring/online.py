"""The streaming CMF predictor.

The offline pipeline (:mod:`repro.core.prediction`) evaluates windows
*around known failures*.  Operations need the opposite direction: a
predictor that rides along with the live telemetry, maintaining a
rolling history per rack and emitting a failure probability every time
a new coolant monitor sample arrives.

:func:`train_online_predictor` fits the paper's MLP on change features
pooled across prediction leads (so the model fires progressively as a
failure approaches rather than being tuned to one horizon), and
:class:`OnlineCmfPredictor` serves it over per-rack ring buffers.

Degraded-stream tolerance
-------------------------

Production telemetry arrives with holes, duplicates, and gaps (see
:mod:`repro.faults`).  By default the predictor *absorbs* delivery
problems instead of raising:

* missing or NaN channels are filled by last-observation-carried-
  forward, capped at :attr:`~OnlineCmfPredictor.locf_staleness_s`;
  samples too incomplete to repair are dropped,
* late or duplicate-timestamp samples are dropped,
* a rack whose stream goes silent longer than
  :attr:`~OnlineCmfPredictor.gap_reset_s` has its history reset, so
  features never interpolate across an outage.

Every such decision increments :class:`PredictorCounters`.  Passing
``strict=True`` restores the historical contract: missing channels and
out-of-order samples raise ``ValueError``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import constants, timeutil
from repro.core.prediction import FEATURE_LAGS_H, build_dataset
from repro.facility.topology import RackId
from repro.metrics import Counters
from repro.ml.network import NeuralNetwork
from repro.ml.train import TrainConfig, TrainResult, train_classifier
from repro.simulation.windows import LeadupWindow
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel


def train_online_predictor(
    positive_windows: Sequence[LeadupWindow],
    negative_windows: Sequence[LeadupWindow],
    leads_h: Sequence[float] = (6.0, 4.0, 2.0, 1.0, 0.5),
    hidden: Sequence[int] = constants.PREDICTOR_HIDDEN_LAYERS,
    epochs: int = constants.PREDICTOR_EPOCHS,
    seed: int = 9,
) -> TrainResult:
    """Fit the streaming model on change features pooled across leads.

    Raises:
        ValueError: if either window class is empty.
    """
    if not positive_windows or not negative_windows:
        raise ValueError("both window classes are required for training")
    features: List[np.ndarray] = []
    labels: List[int] = []
    for lead_h in leads_h:
        dataset = build_dataset(positive_windows, negative_windows, lead_h)
        features.append(dataset.features)
        labels.append(dataset.labels)
    x = np.vstack(features)
    y = np.concatenate(labels)
    rng = np.random.default_rng(seed)
    network = NeuralNetwork.mlp(x.shape[1], tuple(hidden), rng=rng)
    return train_classifier(
        network, x, y, config=TrainConfig(epochs=epochs), rng=rng
    )


@dataclasses.dataclass(frozen=True)
class Prediction:
    """One streaming evaluation."""

    epoch_s: float
    rack_id: RackId
    probability: float


class PredictorCounters(Counters):
    """Observability counters for every degraded-stream decision."""

    #: Samples offered (rows of :meth:`OnlineCmfPredictor.consume_block`).
    consumed: int
    #: Predictions emitted.
    predictions: int
    #: Individual channel values filled by carry-forward.
    locf_fills: int
    #: Samples dropped because too stale/incomplete to repair.
    dropped_incomplete: int
    #: Samples dropped for arriving behind the rack's newest timestamp.
    dropped_late: int
    #: Samples dropped for duplicating the rack's newest timestamp.
    dropped_duplicate: int
    #: Rack histories reset after a silent gap.
    gap_resets: int


class _RackHistory:
    """A growable (times, values) window with O(1) amortized append.

    Replaces the old per-sample ``Deque[Tuple[float, Dict]]`` whose
    every feature evaluation rebuilt full numpy arrays — O(history)
    per sample.  Here interpolation reads contiguous array views
    directly, so a sample costs O(channels x lags x log history).
    """

    __slots__ = ("times", "values", "start", "size")

    def __init__(self, num_channels: int, capacity: int = 128) -> None:
        self.times = np.empty(capacity, dtype="float64")
        self.values = np.empty((capacity, num_channels), dtype="float64")
        self.start = 0
        self.size = 0

    def append(self, epoch_s: float, row: np.ndarray) -> None:
        end = self.start + self.size
        if end == len(self.times):
            if self.start > 0:
                # Slide the live window back to the front.
                self.times[: self.size] = self.times[self.start : end]
                self.values[: self.size] = self.values[self.start : end]
                self.start = 0
                end = self.size
            if end == len(self.times):
                self.times = np.concatenate([self.times, np.empty_like(self.times)])
                self.values = np.concatenate(
                    [self.values, np.empty_like(self.values)]
                )
        self.times[end] = epoch_s
        self.values[end] = row
        self.size += 1

    def prune_before(self, cutoff_s: float) -> None:
        times = self.times
        while self.size and times[self.start] < cutoff_s:
            self.start += 1
            self.size -= 1

    def reserve(self, count: int) -> None:
        """Guarantee ``count`` appends without compaction or realloc.

        Called once before a block of appends so that ``(start, size)``
        snapshots taken mid-block keep referencing the same arrays —
        the batched feature pass reads them after the block completes.
        """
        needed = self.start + self.size + count
        if needed <= len(self.times):
            return
        if self.start > 0:
            end = self.start + self.size
            self.times[: self.size] = self.times[self.start : end]
            self.values[: self.size] = self.values[self.start : end]
            self.start = 0
            needed = self.size + count
        while needed > len(self.times):
            self.times = np.concatenate([self.times, np.empty_like(self.times)])
            self.values = np.concatenate([self.values, np.empty_like(self.values)])

    @property
    def times_view(self) -> np.ndarray:
        return self.times[self.start : self.start + self.size]

    @property
    def values_view(self) -> np.ndarray:
        return self.values[self.start : self.start + self.size]

    @property
    def last_time(self) -> float:
        return float(self.times[self.start + self.size - 1])

    @property
    def last_row(self) -> np.ndarray:
        return self.values[self.start + self.size - 1]

    def span_s(self) -> float:
        """Seconds between the oldest and the newest held sample."""
        if self.size < 2:
            return 0.0
        return self.last_time - float(self.times[self.start])


class OnlineCmfPredictor:
    """Per-rack rolling-history inference.

    Feed it monitor samples via :meth:`consume`; once a rack's history
    spans the longest feature lag (six hours) it returns failure
    probabilities.

    Args:
        model: A trained classifier from
            :func:`train_online_predictor` (or the offline pipeline).
        sample_period_s: Expected cadence; history is pruned to the
            feature span plus slack, and the tolerance defaults below
            scale with it.
        strict: Restore the historical contract — missing channels and
            out-of-order arrivals raise ``ValueError`` instead of
            being repaired/dropped.
        locf_staleness_s: How old the rack's newest sample may be and
            still donate carry-forward values (default: six sample
            periods).
        gap_reset_s: Silent gap after which a rack's history is
            discarded rather than interpolated across (default: the
            larger of two hours and eight sample periods).
    """

    #: Extra history retained beyond the longest lag, seconds.
    HISTORY_SLACK_S = 30 * 60

    def __init__(
        self,
        model: TrainResult,
        sample_period_s: float = float(constants.MONITOR_SAMPLE_PERIOD_S),
        strict: bool = False,
        locf_staleness_s: Optional[float] = None,
        gap_reset_s: Optional[float] = None,
    ) -> None:
        if sample_period_s <= 0:
            raise ValueError("sample period must be positive")
        self.model = model
        self.sample_period_s = sample_period_s
        self.strict = strict
        self.locf_staleness_s = (
            6.0 * sample_period_s if locf_staleness_s is None else locf_staleness_s
        )
        self.gap_reset_s = (
            max(2.0 * timeutil.HOUR_S, 8.0 * sample_period_s)
            if gap_reset_s is None
            else gap_reset_s
        )
        if self.locf_staleness_s < 0 or self.gap_reset_s <= 0:
            raise ValueError("tolerance windows must be positive")
        self.counters = PredictorCounters()
        #: History span a rack needs before it predicts: the longest lag.
        self._ready_span_s = max(FEATURE_LAGS_H) * timeutil.HOUR_S
        self._span_s = self._ready_span_s + self.HISTORY_SLACK_S
        self._lag_offsets_s = np.array(FEATURE_LAGS_H) * timeutil.HOUR_S
        self._history: Dict[RackId, _RackHistory] = {}

    # -- history management ------------------------------------------------------

    def _rack(self, rack_id: RackId) -> Optional[_RackHistory]:
        return self._history.get(rack_id)

    def history_span_s(self, rack_id: RackId) -> float:
        """Seconds of history currently held for a rack."""
        history = self._rack(rack_id)
        return 0.0 if history is None else history.span_s()

    def ready(self, rack_id: RackId) -> bool:
        """Whether the rack has enough history for a prediction."""
        history = self._rack(rack_id)
        return history is not None and self._ready(history)

    def _ready(self, history: _RackHistory) -> bool:
        """The readiness rule, shared by :meth:`ready` and the block fold."""
        return history.span_s() >= self._ready_span_s

    # -- inference ---------------------------------------------------------------

    def consume(
        self,
        epoch_s: float,
        rack_id: RackId,
        channel_values: Dict[Channel, float],
    ) -> Optional[Prediction]:
        """Ingest one sample: :meth:`consume_block` of one row.

        Missing or NaN predictor channels are repaired by carry-forward
        when recent history allows; late and duplicate samples are
        dropped.  With ``strict=True`` missing channels and late
        arrivals raise ``ValueError`` as they historically did.

        Returns:
            The prediction, once the rack's history suffices.

        Raises:
            ValueError: strict mode only — on missing channels or
                out-of-order arrival.
        """
        if self.strict:
            missing = [ch for ch in PREDICTOR_CHANNELS if ch not in channel_values]
            if missing:
                raise ValueError(
                    f"missing channels: {[m.column for m in missing]}"
                )
        row = [[float(channel_values.get(ch, np.nan)) for ch in PREDICTOR_CHANNELS]]
        predictions = self.consume_block(np.array([epoch_s]), rack_id, np.array(row))
        return predictions[0] if predictions else None

    def consume_block(
        self,
        epoch_s: np.ndarray,
        rack_id: RackId,
        values: np.ndarray,
    ) -> List[Prediction]:
        """Ingest a block of one rack's samples; return its predictions.

        The late/duplicate/gap/carry-forward state machine runs per row
        in arrival order (missing measurements are NaN), so counters
        and emitted predictions do not depend on how a stream is split
        into blocks.  The expensive parts run once per block: lag
        interpolation and feature assembly in one vectorized pass per
        history, and one ``predict_proba`` call over every emission.

        The model's ``predict_proba`` must be row-independent (a row
        gets the same bits alone as in any batch, as
        :meth:`~repro.ml.network.NeuralNetwork.predict_proba` does), so
        probabilities do not depend on the split either, bit for bit.

        Args:
            epoch_s: ``(timesteps,)`` sample timestamps.
            values: ``(timesteps, len(PREDICTOR_CHANNELS))`` rows in
                :data:`~repro.telemetry.records.PREDICTOR_CHANNELS`
                order.
        """
        epochs = np.asarray(epoch_s, dtype="float64")
        block = np.asarray(values, dtype="float64")
        n = len(epochs)
        if block.shape != (n, len(PREDICTOR_CHANNELS)):
            raise ValueError(
                f"values must have shape ({n}, {len(PREDICTOR_CHANNELS)}), "
                f"got {block.shape}"
            )
        history = self._rack(rack_id)
        if history is not None:
            history.reserve(n)
        finite = np.isfinite(block)
        complete = finite.all(axis=1).tolist()
        # (history, start, end, epoch) snapshots; feature extraction is
        # deferred so it can run batched once the block is absorbed.
        pending: List[tuple] = []
        # Counted in locals and added once per block: a locked bump
        # costs about a microsecond, too much to pay per row.
        consumed = 0
        tally: "collections.Counter[str]" = collections.Counter()
        try:
            for i, epoch in enumerate(epochs.tolist()):
                consumed += 1
                row = block[i]
                if history is not None and history.size:
                    last = history.last_time
                    if epoch < last:
                        if self.strict:
                            raise ValueError(
                                "samples must arrive in time order per rack"
                            )
                        tally["dropped_late"] += 1
                        continue
                    if not self.strict and epoch == last:
                        tally["dropped_duplicate"] += 1
                        continue
                    if epoch - last > self.gap_reset_s:
                        # The stream went silent; interpolating across the
                        # gap would fabricate six hours of physics.  Start over.
                        self.reset(rack_id)
                        history = None
                        tally["gap_resets"] += 1
                if not complete[i]:
                    holes = ~finite[i]
                    donor = None
                    if (
                        history is not None
                        and history.size
                        and epoch - history.last_time <= self.locf_staleness_s
                    ):
                        donor = history.last_row
                    if donor is None or not np.isfinite(donor[holes]).all():
                        tally["dropped_incomplete"] += 1
                        continue
                    row = np.where(holes, donor, row)
                    tally["locf_fills"] += int(holes.sum())
                if history is None:
                    history = _RackHistory(len(PREDICTOR_CHANNELS))
                    history.reserve(n - i)
                    self._history[rack_id] = history
                history.append(epoch, row)
                history.prune_before(epoch - self._span_s)
                if self._ready(history):
                    start = history.start
                    pending.append((history, start, start + history.size, epoch))
        finally:
            self.counters.add(consumed=consumed, predictions=len(pending), **tally)
        if not pending:
            return []
        features: List[np.ndarray] = []
        lo = 0
        while lo < len(pending):  # contiguous runs share a history object
            hi = lo
            while hi < len(pending) and pending[hi][0] is pending[lo][0]:
                hi += 1
            features.append(self._batch_features(pending[lo][0], pending[lo:hi]))
            lo = hi
        probabilities = self.model.predict_proba(np.concatenate(features))
        return [
            Prediction(epoch_s=snapshot[3], rack_id=rack_id, probability=probability)
            for snapshot, probability in zip(pending, probabilities.tolist())
        ]

    def _batch_features(
        self, history: _RackHistory, group: List[tuple]
    ) -> np.ndarray:
        """Features for a group of emission snapshots, one vector each.

        Each snapshot's lag values are linearly interpolated on its own
        ``[start, end)`` history view with ``np.interp`` clip
        semantics: the "now" query is always an exact hit on the view's
        last row, lag queries before the view clamp to its first row,
        and exact hits take the row itself (both by mask, not by
        re-deriving through the interpolation formula).  The result is
        ordered like :func:`repro.core.prediction.window_features`.
        """
        starts = np.array([g[1] for g in group], dtype=np.intp)
        ends = np.array([g[2] for g in group], dtype=np.intp)
        nows = np.array([g[3] for g in group], dtype="float64")
        times, rows = history.times, history.values
        now_values = rows[ends - 1]  # (E, C): exact hit on the newest row
        queries = nows[:, None] - self._lag_offsets_s[None, :]  # (E, L)
        upper = int(ends.max())
        # Lag queries satisfy q < now == times[end-1] <= times[upper-1],
        # so the global insertion point already respects each view's
        # right edge; only the left edge needs clamping per view.
        index = np.searchsorted(times[:upper], queries.ravel()).reshape(
            queries.shape
        )
        before = index <= starts[:, None]
        safe = np.clip(index, 1, upper - 1)
        x0, x1 = times[safe - 1], times[safe]
        exact = x1 == queries
        weight = (queries - x0) / (x1 - x0)
        v0, v1 = rows[safe - 1], rows[safe]
        then_values = v0 + weight[:, :, None] * (v1 - v0)
        then_values = np.where(exact[:, :, None], v1, then_values)
        then_values = np.where(
            before[:, :, None], rows[starts][:, None, :], then_values
        )
        denominator = np.where(
            np.abs(then_values) > 1e-9, np.abs(then_values), 1.0
        )
        fractions = (now_values[:, None, :] - then_values) / denominator
        # (E, lags, channels) -> channel-major/lag-minor per emission.
        return np.transpose(fractions, (0, 2, 1)).reshape(len(group), -1)

    def consume_window(self, window: LeadupWindow) -> List[Prediction]:
        """Replay a synthesized window through the streaming path.

        Useful for testing that the online path agrees with the
        offline feature extraction on identical data.
        """
        values = np.stack(
            [window.channels[channel] for channel in PREDICTOR_CHANNELS], axis=1
        )
        return self.consume_block(window.epoch_s, window.rack_id, values)

    def reset(self, rack_id: Optional[RackId] = None) -> None:
        """Drop history for one rack (after an outage) or all racks."""
        if rack_id is None:
            self._history.clear()
        else:
            self._history.pop(rack_id, None)

    # -- durability ---------------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Picklable per-rack history windows plus counters.

        The trained model is deliberately **excluded**: recovery
        constructs the predictor with the same model object and
        restores only the streaming state around it.
        """
        return {
            "counters": self.counters.as_dict(),
            "history": {
                rack_id: (history.times_view.copy(), history.values_view.copy())
                for rack_id, history in self._history.items()
            },
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`get_state` copy.

        Feature interpolation reads only the live ``(times, values)``
        window, so rebuilding each ring buffer front-aligned is
        bit-identical to the pre-crash layout.
        """
        self.counters = PredictorCounters(**state["counters"])
        self._history = {}
        for rack_id, (times, values) in state["history"].items():
            n = len(times)
            history = _RackHistory(values.shape[1], capacity=max(128, n))
            history.times[:n] = times
            history.values[:n] = values
            history.start = 0
            history.size = n
            self._history[rack_id] = history
