"""Classical change detection: EWMA residuals and CUSUM.

Section VI-D's argument — "not only the level of cooling metrics, but
more importantly the change in their values are key features" — makes
the CUSUM statistic the natural non-ML baseline: it accumulates
deviations of a channel from its running mean and alarms when the
accumulation escapes a band, detecting *sustained drifts* that a fixed
level threshold misses.  :class:`CusumDetector` tracks every predictor
channel per rack; its alarms can be compared head-to-head with the
MLP's (see the ablation example).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.facility.topology import RackId
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel


@dataclasses.dataclass(frozen=True)
class CusumConfig:
    """CUSUM parameters (in units of the channel's running sigma).

    Attributes:
        drift: The slack ``k``: deviations below this (in sigmas) do
            not accumulate.  Standard practice is half the shift one
            wants to detect.
        decision: The decision interval ``h``: alarm when either
            accumulator exceeds it (in sigmas).
        ewma_alpha: Smoothing factor of the running mean/variance
            estimates.
        warmup_samples: Samples per rack before alarms may fire
            (running statistics need to settle).
    """

    drift: float = 0.5
    decision: float = 6.0
    ewma_alpha: float = 0.02
    warmup_samples: int = 24

    def __post_init__(self) -> None:
        if self.drift < 0 or self.decision <= 0:
            raise ValueError("drift must be >= 0 and decision > 0")
        if not 0.0 < self.ewma_alpha < 1.0:
            raise ValueError("ewma_alpha must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class CusumAlarm:
    """One CUSUM alarm."""

    epoch_s: float
    rack_id: RackId
    channel: Channel
    statistic: float


class CusumDetector:
    """Per-rack, per-channel two-sided CUSUM over streaming telemetry.

    State lives in dense ``(racks, channels)`` arrays so whole
    telemetry chunks advance the recurrence with one vectorized step
    per timestep (:meth:`consume_block`); :meth:`consume` feeds a
    one-row block through the same fold.
    """

    def __init__(self, config: Optional[CusumConfig] = None) -> None:
        self.config = config if config is not None else CusumConfig()
        self._racks = 0
        self._allocate(0)

    def _allocate(self, racks: int) -> None:
        shape = (racks, len(PREDICTOR_CHANNELS))
        self._mean = np.zeros(shape)
        self._variance = np.zeros(shape)
        self._positive = np.zeros(shape)
        self._negative = np.zeros(shape)
        self._samples = np.zeros(shape, dtype="int64")
        self._active = np.zeros(shape, dtype=bool)
        self._racks = racks

    def _ensure_racks(self, racks: int) -> None:
        if racks <= self._racks:
            return
        old = (
            self._mean,
            self._variance,
            self._positive,
            self._negative,
            self._samples,
            self._active,
        )
        size = self._racks
        self._allocate(racks)
        for new, previous in zip(
            (
                self._mean,
                self._variance,
                self._positive,
                self._negative,
                self._samples,
                self._active,
            ),
            old,
        ):
            new[:size] = previous

    def consume(
        self,
        epoch_s: float,
        rack_id: RackId,
        channel_values: Dict[Channel, float],
    ) -> Tuple[CusumAlarm, ...]:
        """Feed one rack's sample: :meth:`consume_block` of one row.

        Channels absent from ``channel_values`` (or non-finite) leave
        their recurrence untouched.
        """
        rack_index = rack_id.flat_index
        row = {}
        for channel, value in channel_values.items():
            row[channel] = np.full((1, rack_index + 1), np.nan)
            row[channel][0, rack_index] = value
        return self.consume_block(np.array([epoch_s], dtype="float64"), row)

    def consume_block(
        self,
        epoch_s: np.ndarray,
        values: "Dict[Channel, np.ndarray]",
    ) -> Tuple[CusumAlarm, ...]:
        """Advance every rack x channel recurrence over a whole block.

        Non-finite cells, and every cell of a predictor channel absent
        from ``values``, do not advance their recurrence.  The
        recurrence is sequential in time but vectorized across all
        ``racks x channels`` cells per step; alarms come back
        time-major, then rack, then channel.

        Args:
            epoch_s: ``(timesteps,)`` sample timestamps.
            values: Channel -> ``(timesteps, racks)`` block; channels
                outside ``PREDICTOR_CHANNELS`` are ignored.
        """
        present = [ch for ch in PREDICTOR_CHANNELS if ch in values]
        if not present:
            return ()
        absent = (
            None
            if len(present) == len(PREDICTOR_CHANNELS)
            else np.full(np.shape(values[present[0]]), np.nan)
        )
        cube = np.stack(
            [values[ch] if ch in values else absent for ch in PREDICTOR_CHANNELS],
            axis=2,
        )
        steps, racks, _ = cube.shape
        self._ensure_racks(racks)
        finite = np.isfinite(cube)
        cfg = self.config
        alpha, drift, decision = cfg.ewma_alpha, cfg.drift, cfg.decision
        mean = self._mean[:racks]
        variance = self._variance[:racks]
        positive = self._positive[:racks]
        negative = self._negative[:racks]
        samples = self._samples[:racks]
        active = self._active[:racks]
        rack_ids = [RackId.from_flat_index(r) for r in range(racks)]
        alarms = []
        for t in range(steps):
            observed = finite[t]
            if not observed.any():
                continue
            value = cube[t]
            fresh = observed & ~active
            if fresh.any():
                # Start the variance estimate *high* (5 % of the level)
                # so early z-scores are conservative; the EWMA converges
                # down to the channel's true noise during warmup.
                mean[fresh] = value[fresh]
                variance[fresh] = np.maximum(
                    (0.05 * np.abs(value[fresh])) ** 2, 1e-6
                )
                positive[fresh] = 0.0
                negative[fresh] = 0.0
                samples[fresh] = 0
                active[fresh] = True
            samples += observed
            sigma = np.maximum(np.sqrt(variance), 1e-9)
            z = (value - mean) / sigma
            # Update the running statistics *after* scoring the sample.
            delta = value - mean
            mean[...] = np.where(observed, mean + alpha * delta, mean)
            variance[...] = np.where(
                observed,
                (1 - alpha) * (variance + alpha * delta * delta),
                variance,
            )
            warm = observed & (samples > cfg.warmup_samples)
            if not warm.any():
                continue
            positive[...] = np.where(
                warm, np.maximum(0.0, positive + z - drift), positive
            )
            negative[...] = np.where(
                warm, np.maximum(0.0, negative - z - drift), negative
            )
            statistic = np.maximum(positive, negative)
            tripped = warm & (statistic > decision)
            if tripped.any():
                epoch = float(epoch_s[t])
                for rack_index, channel_index in np.argwhere(tripped):
                    alarms.append(
                        CusumAlarm(
                            epoch_s=epoch,
                            rack_id=rack_ids[rack_index],
                            channel=PREDICTOR_CHANNELS[channel_index],
                            statistic=float(statistic[rack_index, channel_index]),
                        )
                    )
                positive[tripped] = 0.0
                negative[tripped] = 0.0
        return tuple(alarms)

    def reset(self, rack_id: Optional[RackId] = None) -> None:
        """Drop state for one rack (or all racks)."""
        if rack_id is None:
            self._active[...] = False
        elif rack_id.flat_index < self._racks:
            self._active[rack_id.flat_index] = False

    # -- durability ---------------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """A picklable deep copy of the recurrence state."""
        return {
            "racks": self._racks,
            "mean": self._mean.copy(),
            "variance": self._variance.copy(),
            "positive": self._positive.copy(),
            "negative": self._negative.copy(),
            "samples": self._samples.copy(),
            "active": self._active.copy(),
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`get_state` copy bit for bit."""
        self._allocate(int(state["racks"]))
        self._mean[...] = state["mean"]
        self._variance[...] = state["variance"]
        self._positive[...] = state["positive"]
        self._negative[...] = state["negative"]
        self._samples[...] = state["samples"]
        self._active[...] = state["active"]
