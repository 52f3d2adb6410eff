"""First-class bus subscribers: the online analytics ride the stream.

Adapters that wire the existing monitoring stack —
:class:`~repro.monitoring.online.OnlineCmfPredictor`, the
:class:`~repro.monitoring.anomaly.CusumDetector`, and the
:class:`~repro.monitoring.alerts.AlertEngine` — onto
:class:`~repro.service.bus.ReplayBus` chunks, plus the
:class:`RollupSubscriber` that keeps the
:class:`~repro.service.rollup.RollupStore` current and a
:class:`CountingSubscriber` used by tests and benchmarks (optionally
artificially slow, to exercise backpressure).

Each adapter is a plain callable: ``subscription =
bus.subscribe(name, adapter)``.  Adapters run on their subscription's
worker thread; the objects they wrap are not shared across
subscriptions, so no extra locking is needed.
"""

from __future__ import annotations

import dataclasses
import time
from operator import attrgetter
from typing import List, Optional

import numpy as np

from repro import constants
from repro.facility.topology import RackId
from repro.monitoring.alerts import Alert, AlertEngine, AlertLog
from repro.monitoring.anomaly import CusumAlarm, CusumDetector
from repro.monitoring.online import OnlineCmfPredictor, Prediction
from repro.service.bus import BusChunk
from repro.service.rollup import RollupStore
from repro.telemetry.records import PREDICTOR_CHANNELS

#: Flat index -> RackId, precomputed (adapters touch it per rack).
_RACK_IDS = tuple(
    RackId.from_flat_index(i) for i in range(constants.NUM_RACKS)
)


class RollupSubscriber:
    """Folds every chunk into a :class:`RollupStore` as it arrives."""

    def __init__(self, store: RollupStore) -> None:
        self.store = store

    def __call__(self, chunk: BusChunk) -> None:
        self.store.add_block(chunk.epoch_s, chunk.values, chunk.quality)

    def get_state(self) -> dict:
        """Picklable snapshot payload (see the durability layer)."""
        return {"store": self.store.get_state()}

    def set_state(self, state: dict) -> None:
        self.store.set_state(state["store"])


class PredictorSubscriber:
    """Fans whole-floor chunks into the streaming CMF predictor.

    Racks with no finite predictor channel in a row are skipped for
    that row (the rack is down or dark; offering the row would only
    inflate the predictor's ``dropped_incomplete`` counter).  Emitted
    predictions are recorded and, when an alert engine is attached,
    pushed through the alert policy into the alert log.
    """

    def __init__(
        self,
        predictor: OnlineCmfPredictor,
        alert_engine: Optional[AlertEngine] = None,
        alert_log: Optional[AlertLog] = None,
    ) -> None:
        self.predictor = predictor
        self.alert_engine = alert_engine
        self.alert_log = alert_log if alert_log is not None else AlertLog()
        self.predictions: List[Prediction] = []

    def __call__(self, chunk: BusChunk) -> None:
        """One predictor pass per rack, then time-ordered emission.

        Each rack's rows with any finite predictor channel go through
        :meth:`~repro.monitoring.online.OnlineCmfPredictor.consume_block`;
        the per-rack predictions are then merged time-major, rack
        ascending, so recorded predictions and downstream alerts do not
        depend on the chunk size.  Racks are visited in ascending order
        and the sort is stable, so sorting by epoch alone suffices.
        """
        cube = np.stack(
            [chunk.values[ch] for ch in PREDICTOR_CHANNELS], axis=2
        )  # (timesteps, racks, channels)
        finite_any = np.isfinite(cube).any(axis=2)
        epochs = np.asarray(chunk.epoch_s, dtype="float64")
        merged: List[Prediction] = []
        for rack in np.flatnonzero(finite_any.any(axis=0)):
            mask = finite_any[:, rack]
            merged.extend(
                self.predictor.consume_block(
                    epochs[mask], _RACK_IDS[rack], cube[mask, rack, :]
                )
            )
        merged.sort(key=attrgetter("epoch_s"))
        for prediction in merged:
            self._emit(prediction)

    def _emit(self, prediction: Prediction) -> None:
        self.predictions.append(prediction)
        if self.alert_engine is not None:
            alert = self.alert_engine.process(prediction)
            if alert is not None:
                self.alert_log.record(alert)

    @property
    def alerts(self) -> List[Alert]:
        return list(self.alert_log.alerts)

    def get_state(self) -> dict:
        """Predictor history, alert state machine, and emission logs.

        The trained model is excluded (recovery reconstructs the
        subscriber around the same model object).
        """
        state = {
            "predictor": self.predictor.get_state(),
            "predictions": list(self.predictions),
            "alerts": list(self.alert_log.alerts),
        }
        if self.alert_engine is not None:
            state["alert_engine"] = self.alert_engine.get_state()
        return state

    def set_state(self, state: dict) -> None:
        self.predictor.set_state(state["predictor"])
        self.predictions = list(state["predictions"])
        self.alert_log.restore(state["alerts"])
        if self.alert_engine is not None and "alert_engine" in state:
            self.alert_engine.set_state(state["alert_engine"])


class CusumSubscriber:
    """Feeds the classical change detector from the stream."""

    def __init__(self, detector: Optional[CusumDetector] = None) -> None:
        self.detector = detector if detector is not None else CusumDetector()
        self.alarms: List[CusumAlarm] = []

    def __call__(self, chunk: BusChunk) -> None:
        self.alarms.extend(self.detector.consume_block(chunk.epoch_s, chunk.values))

    def get_state(self) -> dict:
        """Picklable detector recurrence plus the alarm log."""
        return {
            "detector": self.detector.get_state(),
            "alarms": list(self.alarms),
        }

    def set_state(self, state: dict) -> None:
        self.detector.set_state(state["detector"])
        self.alarms = list(state["alarms"])


@dataclasses.dataclass
class CountingSubscriber:
    """Test/benchmark consumer: counts samples, optionally slowly.

    Attributes:
        delay_s: Artificial processing time per delivered chunk
            (simulates a slow consumer to exercise backpressure
            policies).
        keep_seqs: Record every delivered sequence number (ordering
            and gap assertions).
        gaps: Observed discontinuities — deliveries whose first
            sequence number skipped past ``last_seq + 1`` (each lossy
            eviction burst counts once, however many samples it ate).
            Bus sequence numbers start at 0, so samples evicted before
            the first delivery count as the opening gap.
        missing: Total sample sequence numbers never delivered (the
            sum of all gap widths).
    """

    delay_s: float = 0.0
    keep_seqs: bool = False
    received: int = 0
    last_seq: int = -1
    last_epoch_s: float = float("nan")
    seqs: List[int] = dataclasses.field(default_factory=list)
    monotonic: bool = True
    gaps: int = 0
    missing: int = 0

    def __call__(self, chunk: BusChunk) -> None:
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        first_seq, last_seq = chunk.start_seq, chunk.end_seq
        if first_seq <= self.last_seq:
            self.monotonic = False
        elif first_seq > self.last_seq + 1:
            self.gaps += 1
            self.missing += first_seq - self.last_seq - 1
        self.received += len(chunk)
        self.last_seq = last_seq
        self.last_epoch_s = float(chunk.epoch_s[-1])
        if self.keep_seqs:
            self.seqs.extend(range(first_seq, last_seq + 1))
