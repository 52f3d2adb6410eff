"""High-resolution (300 s) telemetry windows around CMF events.

The six-year canonical dataset is simulated hourly — plenty for the
trend and spatial analyses, but the lead-up study (Fig 12) and the
predictor (Fig 13) need the coolant monitor's native 300 s cadence in
the hours before each failure.  Rather than paying for a six-year
300 s run, :class:`WindowSynthesizer` re-synthesizes short windows at
full cadence:

* **positive windows** end at a CMF event.  The hourly telemetry
  around the event already carries the precursor imprint at coarse
  resolution; it is *divided out* (the injected factors are known
  exactly from the failure schedule), the clean counterfactual series
  is interpolated onto the 300 s grid, and the Fig 12 signatures are
  re-applied at full resolution.  Positives therefore inherit the
  same operational drift statistics as negatives — the only class
  difference is the physical signature.
* **negative windows** are drawn at random (time, rack) pairs far from
  any CMF on that rack, interpolating the coarse telemetry (so they
  inherit real operational variation — maintenance dips, seasonal
  drift, utilization swings) plus sensor noise.

Only samples at or before each window's end time are used, so a
window never leaks post-failure data (the rack is down and its
channels read zero after the event).

This mirrors the paper's dataset construction: positive samples from
the six hours before each CMF, negative samples evenly drawn across
the production period (Section VI-B).

Determinism
-----------

Window *i* of either class draws its sensor noise from a dedicated
child generator spawned from the synthesizer seed (via
:class:`numpy.random.SeedSequence`), and the negative (time, rack)
candidates come from their own child stream drawn up front.  A
window's realization therefore depends only on its index, never on
how many windows were built before it, and that per-index seeding
defines the canonical window realization.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import constants, timeutil
from repro.facility.topology import RackId
from repro.failures.cmf import CmfEvent, PrecursorSignature
from repro.simulation.engine import SimulationResult
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel


@dataclasses.dataclass(frozen=True)
class LeadupWindow:
    """One fixed-cadence telemetry window for one rack.

    Attributes:
        rack_id: The instrumented rack.
        end_epoch_s: The window's end — the CMF time for positives,
            the reference time for negatives.
        epoch_s: Sample grid (ascending, ends at ``end_epoch_s``).
        channels: Channel -> value vector over the grid.
        is_positive: Whether a CMF occurs at ``end_epoch_s``.
    """

    rack_id: RackId
    end_epoch_s: float
    epoch_s: np.ndarray
    channels: Dict[Channel, np.ndarray]
    is_positive: bool

    def value_at(self, channel: Channel, epoch_s: float) -> float:
        """Linear interpolation of one channel inside the window."""
        return float(np.interp(epoch_s, self.epoch_s, self.channels[channel]))

    def lead_value(self, channel: Channel, lead_s: float) -> float:
        """Channel value ``lead_s`` seconds before the window end."""
        return self.value_at(channel, self.end_epoch_s - lead_s)


class WindowSynthesizer:
    """Builds 300 s lead-up windows from a coarse simulation result.

    Args:
        result: A completed simulation (with its failure schedule).
        dt_s: Window cadence (the monitor's 300 s by default).
        history_s: Window length; must cover the feature lookback (6 h)
            plus the largest prediction lead (6 h).
        seed: Noise seed for the synthesized fine structure.  The
            default defines the canonical window realization; it moved
            with the 1.3 per-index reseeding (window noise now depends
            only on the window's index, see the module docstring).
    """

    def __init__(
        self,
        result: SimulationResult,
        dt_s: float = float(constants.MONITOR_SAMPLE_PERIOD_S),
        history_s: float = 12.5 * timeutil.HOUR_S,
        seed: int = 55,
    ) -> None:
        if result.schedule is None:
            raise ValueError("simulation was run without failure injection")
        if dt_s <= 0 or history_s <= dt_s:
            raise ValueError("invalid window geometry")
        self._result = result
        self.dt_s = dt_s
        self.history_s = history_s
        self._seed = seed
        #: Sequential stream for the ad-hoc single-window builders; the
        #: bulk ``*_windows`` builders use per-index child generators
        #: instead (see the module docstring).
        self._rng = np.random.default_rng(seed)
        database = result.database
        self._epoch = database.epoch_s
        #: Each predictor channel's (rows, racks) matrix, read once:
        #: a window interpolates only the few rows its grid can reach.
        self._matrices = {
            channel: database.channel(channel).values
            for channel in PREDICTOR_CHANNELS
        }
        #: Coarse cadence; the engine marks a rack down in the very
        #: step its CMF fires, so the last clean sample precedes the
        #: event by at least one coarse step.
        self._coarse_dt = result.config.dt_s
        self._noise = result.config.noise
        # Per-channel fine-scale noise sigmas (absolute units).
        self._noise_sigma = {
            Channel.FLOW: 0.25,
            Channel.INLET_TEMPERATURE: self._noise.inlet_noise_f,
            Channel.OUTLET_TEMPERATURE: self._noise.outlet_noise_f,
            Channel.POWER: 0.5,
            Channel.DC_TEMPERATURE: result.config.ambient.temp_noise_f,
            Channel.DC_HUMIDITY: result.config.ambient.humidity_noise_rh,
        }

    # -- internals ------------------------------------------------------------

    def _grid(self, end_epoch_s: float) -> np.ndarray:
        count = int(round(self.history_s / self.dt_s))
        return end_epoch_s - self.dt_s * np.arange(count, -1, -1, dtype="float64")

    def _row_range(
        self, column: np.ndarray, start_epoch_s: float, cutoff_epoch_s: float
    ) -> Tuple[int, int]:
        """The rows ``[lo, hi)`` of ``column`` a window can interpolate from.

        ``hi`` keeps every row at or before ``cutoff_epoch_s`` (no
        post-failure leakage).  ``lo`` is the last finite row before
        ``hi`` at or before the grid start, found by walking back over
        NaN runs in doubling steps; with no such row it is 0, and the
        first finite row clamps the window's left edge.  Interpolating
        over the finite rows of ``[lo, hi)`` is exact: ``np.interp``
        brackets every grid point between the same two samples as in
        the whole column, and clamps to the same end values.
        """
        epoch = self._epoch
        hi = int(np.searchsorted(epoch, cutoff_epoch_s + 1e-6, side="right"))
        lo = min(int(np.searchsorted(epoch, start_epoch_s, side="right")), hi)
        step = 8
        while lo > 0:
            start = max(0, lo - step)
            finite = np.flatnonzero(np.isfinite(column[start:lo]))
            if finite.size:
                return start + int(finite[-1]), hi
            lo = start
            step *= 2
        return 0, hi

    def _coarse_series(
        self,
        channel: Channel,
        rack_index: int,
        grid: np.ndarray,
        cutoff_epoch_s: float,
        event: Optional[CmfEvent] = None,
    ) -> np.ndarray:
        """Interpolate one rack's coarse channel onto a window grid.

        Only coarse samples at or before ``cutoff_epoch_s`` are used
        (no post-failure leakage); beyond the last usable sample the
        series holds its final value.  With ``event`` given, the usable
        samples are divided by the precursor factor that event baked
        into the channel (the counterfactual de-imprinting).
        """
        column = self._matrices[channel][:, rack_index]
        lo, hi = self._row_range(column, grid[0], cutoff_epoch_s)
        rows = column[lo:hi]
        usable = np.isfinite(rows)
        if not usable.any():
            raise ValueError("no usable coarse telemetry before the window end")
        epochs = self._epoch[lo:hi][usable]
        values = rows[usable]
        if event is not None:
            factor = self._signature_factor(event, channel, epochs)
            if factor is not None:
                values = values / factor
        return np.interp(grid, epochs, values)

    def _noisy(
        self,
        channel: Channel,
        values: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        sigma = self._noise_sigma[channel]
        generator = self._rng if rng is None else rng
        return values + sigma * generator.standard_normal(values.shape)

    def _seed_roots(self) -> Tuple[np.random.SeedSequence, ...]:
        """(positive-noise, negative-candidate, negative-noise) roots.

        Re-derived on every call: ``SeedSequence`` spawning is
        stateful, so index-stable children require starting from a
        fresh root each time.
        """
        return tuple(np.random.SeedSequence(self._seed).spawn(3))

    @staticmethod
    def _signature_factor(
        event: CmfEvent, channel: Channel, epoch_s: np.ndarray
    ) -> Optional[np.ndarray]:
        """The precursor factor ``event`` imprints on ``channel``.

        Evaluated at ``epoch_s`` (1.0 outside the lead-up window);
        ``None`` for channels the signature leaves alone.  The factors
        are elementwise in time, so a coarse row gets the same bits
        whichever timestamps it is evaluated beside.
        """
        tau = event.epoch_s - epoch_s
        if channel is Channel.INLET_TEMPERATURE:
            return PrecursorSignature.inlet_factor(tau, event.severity)
        if channel is Channel.OUTLET_TEMPERATURE:
            return PrecursorSignature.outlet_factor(tau, event.severity)
        if channel is Channel.FLOW:
            return PrecursorSignature.flow_factor(tau, event.severity)
        if channel is Channel.DC_HUMIDITY:
            return PrecursorSignature.humidity_factor(
                tau,
                condensation_triggered=event.reason == "condensation_risk",
                amplitude=event.severity,
            )
        return None

    # -- window construction -------------------------------------------------------

    def positive_window(
        self, event: CmfEvent, rng: Optional[np.random.Generator] = None
    ) -> LeadupWindow:
        """The lead-up window ending at one CMF event.

        Args:
            event: The terminating CMF.
            rng: Noise generator; defaults to the synthesizer's
                sequential stream (the bulk builders pass the window's
                own index-derived child instead).
        """
        grid = self._grid(event.epoch_s)
        rack = event.rack_id.flat_index
        channels: Dict[Channel, np.ndarray] = {}
        for channel in PREDICTOR_CHANNELS:
            series = self._coarse_series(
                channel,
                rack,
                grid,
                cutoff_epoch_s=event.epoch_s - self._coarse_dt,
                event=event,
            )
            fine_factor = self._signature_factor(event, channel, grid)
            if fine_factor is not None:
                series = series * fine_factor
            channels[channel] = self._noisy(channel, series, rng)
        return LeadupWindow(
            rack_id=event.rack_id,
            end_epoch_s=event.epoch_s,
            epoch_s=grid,
            channels=channels,
            is_positive=True,
        )

    def negative_window(
        self,
        rack_id: RackId,
        end_epoch_s: float,
        rng: Optional[np.random.Generator] = None,
    ) -> LeadupWindow:
        """A no-failure window for one rack ending at a reference time."""
        grid = self._grid(end_epoch_s)
        rack = rack_id.flat_index
        channels = {
            channel: self._noisy(
                channel,
                self._coarse_series(
                    channel, rack, grid, cutoff_epoch_s=end_epoch_s
                ),
                rng,
            )
            for channel in PREDICTOR_CHANNELS
        }
        return LeadupWindow(
            rack_id=rack_id,
            end_epoch_s=end_epoch_s,
            epoch_s=grid,
            channels=channels,
            is_positive=False,
        )

    # -- dataset assembly -------------------------------------------------------------

    def eligible_events(self) -> List[CmfEvent]:
        """The CMF events far enough in to carry a full lead-up window."""
        schedule = self._result.schedule
        assert schedule is not None
        start = self._result.start_epoch_s + self.history_s
        return [event for event in schedule.events if event.epoch_s >= start]

    def positive_windows(self) -> List[LeadupWindow]:
        """One window per eligible CMF event in the schedule."""
        events = self.eligible_events()
        seeds = self._seed_roots()[0].spawn(len(events))
        return [
            self.positive_window(event, np.random.default_rng(seed))
            for event, seed in zip(events, seeds)
        ]

    def negative_candidates(
        self, count: int, exclusion_s: float = 24 * 3600.0
    ) -> List[Tuple[RackId, float]]:
        """The deterministic (rack, end-time) pairs of the negative class.

        Candidates are rejection-sampled from a dedicated child stream.

        A candidate (time, rack) is rejected if the rack has a CMF
        within ``exclusion_s`` of the window end, mirroring the paper's
        negative-class construction.
        """
        schedule = self._result.schedule
        assert schedule is not None
        per_rack_times = {
            flat: np.array(
                [e.epoch_s for e in schedule.events if e.rack_id.flat_index == flat]
            )
            for flat in range(constants.NUM_RACKS)
        }
        lo = self._result.start_epoch_s + self.history_s
        hi = self._result.end_epoch_s - 1.0
        rng = np.random.default_rng(self._seed_roots()[1])
        pairs: List[Tuple[RackId, float]] = []
        guard = 0
        while len(pairs) < count:
            guard += 1
            if guard > 50 * count:
                raise RuntimeError("negative window sampling failed to converge")
            end = float(rng.uniform(lo, hi))
            rack = int(rng.integers(constants.NUM_RACKS))
            times = per_rack_times[rack]
            if times.size and np.min(np.abs(times - end)) < exclusion_s:
                continue
            pairs.append((RackId.from_flat_index(rack), end))
        return pairs

    def negative_windows(
        self, count: int, exclusion_s: float = 24 * 3600.0
    ) -> List[LeadupWindow]:
        """``count`` windows drawn evenly across the production period.

        Args:
            count: Negative-class size (fixes the candidate list and
                the per-window noise seeds).
            exclusion_s: CMF exclusion radius for candidates.
        """
        pairs = self.negative_candidates(count, exclusion_s)
        seeds = self._seed_roots()[2].spawn(count)
        return [
            self.negative_window(rack, end, np.random.default_rng(seed))
            for (rack, end), seed in zip(pairs, seeds)
        ]
