"""The fault injector: clean telemetry in, degraded delivery out.

The injector models the failure modes long-term monitoring deployments
actually see (dropped reports, stuck-at sensors, transient spikes,
slow calibration drift, duplicated deliveries, clock skew, and monitor
blackouts around incidents) as a *post-processing* stage: the physics
simulation stays untouched, and the same clean realization can be
degraded under many fault regimes.

Determinism contract
--------------------

All randomness comes from a single :class:`numpy.random.SeedSequence`
supplied at construction, and :meth:`FaultInjector.apply` rebuilds its
generator on every call, so

* the same ``(FaultConfig, seed, clean database)`` triple always
  produces a bit-identical faulted database and truth, and
* calling :meth:`~FaultInjector.apply` twice gives identical results.

Faults are drawn in a fixed order (dropout, floor gaps, stuck, spike,
drift, duplicates, skew); adding a new fault kind must append to that
order, never reorder it, or existing realizations change.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import timeutil
from repro.telemetry.database import EnvironmentalDatabase, IngestPolicy
from repro.telemetry.records import CHANNELS, Channel

#: Channels the coolant monitor measures — the ones faults can touch.
#: Utilization comes from the scheduler-log join and is never faulted.
SENSOR_CHANNELS: Tuple[Channel, ...] = tuple(c for c in CHANNELS if c.is_sensor)

SeedLike = Union[int, np.random.SeedSequence]


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Calibrated fault rates and magnitudes.

    The defaults match the issue's calibration targets: ~1 % per-rack
    report dropout, ~0.1 % stuck/spike incidence, clock skew bounded
    by two sample periods.  The dataclass is frozen and hashable so a
    config can sit inside :class:`~repro.simulation.config.SimulationConfig`
    and feed ``repr``-keyed dataset caches.
    """

    #: Probability that one rack's report is missing from a snapshot.
    dropout_rate: float = 0.01
    #: Whole-floor monitoring gaps (network/DB outages), per year.
    floor_gap_rate_per_year: float = 6.0
    #: Floor-gap duration range, seconds.
    floor_gap_min_s: float = 900.0
    floor_gap_max_s: float = 7200.0
    #: Expected stuck-at runs per (sample, rack) cell.  Each run picks
    #: one sensor channel and freezes it for ``stuck_min_samples`` ..
    #: ``stuck_max_samples`` consecutive samples.
    stuck_rate: float = 0.001
    stuck_min_samples: int = 6
    stuck_max_samples: int = 24
    #: Expected transient spikes per (sample, rack) cell.  Each spike
    #: perturbs one sensor channel for a single sample.
    spike_rate: float = 0.001
    #: Spike magnitude range, in robust sigmas of the channel's
    #: sample-to-sample differences (well above any scrub threshold).
    spike_min_sigma: float = 10.0
    spike_max_sigma: float = 25.0
    #: Slow calibration-drift episodes per year (one rack, one channel
    #: each; the value ramps linearly up to ``drift_max_sigma``).
    drift_rate_per_year: float = 2.0
    drift_min_s: float = 7.0 * 86400.0
    drift_max_s: float = 28.0 * 86400.0
    drift_max_sigma: float = 4.0
    #: Probability a snapshot is delivered twice.
    duplicate_rate: float = 0.002
    #: Probability a snapshot's delivery is delayed (clock skew /
    #: store-and-forward), and the delay bound in sample periods.
    skew_rate: float = 0.01
    skew_max_periods: float = 2.0
    #: Monitor blackout before each scheduled CMF event: the failing
    #: rack's sensors go dark this many seconds before the event fires
    #: (the monitor shares the rack's fate).  0 disables blackouts.
    blackout_before_cmf_s: float = 1800.0

    def __post_init__(self) -> None:
        for name in (
            "dropout_rate",
            "stuck_rate",
            "spike_rate",
            "duplicate_rate",
            "skew_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stuck_min_samples < 2:
            raise ValueError("stuck runs must span at least 2 samples")
        if self.stuck_max_samples < self.stuck_min_samples:
            raise ValueError("stuck_max_samples < stuck_min_samples")
        if self.floor_gap_max_s < self.floor_gap_min_s:
            raise ValueError("floor_gap_max_s < floor_gap_min_s")
        if self.drift_max_s < self.drift_min_s:
            raise ValueError("drift_max_s < drift_min_s")
        if self.spike_max_sigma < self.spike_min_sigma:
            raise ValueError("spike_max_sigma < spike_min_sigma")
        if self.skew_max_periods < 0:
            raise ValueError("skew_max_periods cannot be negative")


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One discrete injected fault, for human-readable ground truth."""

    kind: str
    start_epoch_s: float
    end_epoch_s: float
    rack: Optional[int] = None
    channel: Optional[Channel] = None

    @property
    def duration_s(self) -> float:
        return self.end_epoch_s - self.start_epoch_s


@dataclasses.dataclass
class FaultTruth:
    """Ground truth of everything the injector did.

    Masks are indexed against the *clean* realization's sample grid
    (``epoch_s``), not the faulted database's — floor gaps remove rows
    entirely, so the faulted store can be shorter.
    """

    #: The clean realization's timestamps, shape ``(n,)``.
    epoch_s: np.ndarray
    #: Rack reports dropped from a snapshot, shape ``(n, racks)``.
    dropout: np.ndarray
    #: Whole-floor gap rows (snapshot never delivered), shape ``(n,)``.
    floor_gap: np.ndarray
    #: Pre-CMF monitor blackout cells, shape ``(n, racks)``.
    blackout: np.ndarray
    #: Stuck-at cells per channel, each shape ``(n, racks)``.
    stuck: Dict[Channel, np.ndarray]
    #: Transient-spike cells per channel, each shape ``(n, racks)``.
    spike: Dict[Channel, np.ndarray]
    #: Slow-drift cells per channel, each shape ``(n, racks)``.
    drift: Dict[Channel, np.ndarray]
    #: Rows delivered twice, shape ``(n,)``.
    duplicated: np.ndarray
    #: Per-row delivery delay, seconds, shape ``(n,)`` (0 = on time).
    delivery_delay_s: np.ndarray
    #: Every discrete fault, in injection order.
    faults: List[InjectedFault]

    def missing_mask(self) -> np.ndarray:
        """Cells whose sensor values were never delivered, ``(n, racks)``."""
        return self.dropout | self.blackout | self.floor_gap[:, None]

    def corrupted_mask(self, channel: Channel) -> np.ndarray:
        """Cells whose delivered value is wrong for ``channel``."""
        shape = self.dropout.shape
        out = np.zeros(shape, dtype=bool)
        for masks in (self.stuck, self.spike, self.drift):
            if channel in masks:
                out |= masks[channel]
        return out

    def summary(self) -> str:
        n, racks = self.dropout.shape
        cells = max(n * racks, 1)
        lines = [
            f"faults over {n} samples x {racks} racks:",
            f"  dropout cells: {int(self.dropout.sum())}"
            f" ({self.dropout.sum() / cells:.3%})",
            f"  floor-gap rows: {int(self.floor_gap.sum())}",
            f"  blackout cells: {int(self.blackout.sum())}",
            f"  duplicated rows: {int(self.duplicated.sum())}",
            f"  skewed rows: {int(np.count_nonzero(self.delivery_delay_s))}",
        ]
        for kind, masks in (
            ("stuck", self.stuck),
            ("spike", self.spike),
            ("drift", self.drift),
        ):
            total = sum(int(m.sum()) for m in masks.values())
            lines.append(f"  {kind} cells: {total}")
        lines.append(f"  discrete faults: {len(self.faults)}")
        return "\n".join(lines)


class FaultInjector:
    """Degrades a clean telemetry realization deterministically.

    Args:
        config: Fault rates and magnitudes.
        seed: Seed (or :class:`~numpy.random.SeedSequence`) for the
            injector's private generator.  The facility engine passes a
            child spawned from the master simulation seed.
    """

    def __init__(self, config: FaultConfig, seed: SeedLike) -> None:
        self.config = config
        if isinstance(seed, np.random.SeedSequence):
            self._seed = seed
        else:
            self._seed = np.random.SeedSequence(int(seed))

    # -- public API --------------------------------------------------------

    def apply(
        self,
        database: EnvironmentalDatabase,
        dt_s: float,
        cmf_events: Iterable[Tuple[float, int]] = (),
    ) -> Tuple[EnvironmentalDatabase, FaultTruth]:
        """Produce a faulted copy of ``database`` plus ground truth.

        Args:
            database: The clean realization (left untouched).
            dt_s: Nominal sample period, seconds (bounds skew and the
                reorder window of the returned store).
            cmf_events: ``(epoch_s, flat_rack_index)`` pairs of
                scheduled CMF events, for pre-event blackouts.

        Returns:
            ``(faulted, truth)`` — a new lenient-policy database built
            by replaying the degraded stream in delivery order, and
            the fault ground truth against the clean grid.
        """
        rng = np.random.default_rng(self._seed)
        cfg = self.config
        epoch = np.array(database.epoch_s, dtype="float64")
        n = len(epoch)
        racks = database.num_racks
        if n == 0:
            raise ValueError("cannot inject faults into an empty database")
        values = {
            ch: np.array(database.channel(ch).values, dtype="float64")
            for ch in CHANNELS
        }
        span_s = float(epoch[-1] - epoch[0]) if n > 1 else dt_s
        years = max(span_s / timeutil.YEAR_S, 1e-9)
        faults: List[InjectedFault] = []

        # 1. Per-rack report dropout.
        dropout = rng.random((n, racks)) < cfg.dropout_rate

        # 2. Whole-floor monitoring gaps.
        floor_gap = np.zeros(n, dtype=bool)
        for _ in range(int(rng.poisson(cfg.floor_gap_rate_per_year * years))):
            start = float(rng.uniform(epoch[0], epoch[-1]))
            length = float(rng.uniform(cfg.floor_gap_min_s, cfg.floor_gap_max_s))
            lo = int(np.searchsorted(epoch, start, side="left"))
            hi = int(np.searchsorted(epoch, start + length, side="left"))
            if hi > lo:
                floor_gap[lo:hi] = True
                faults.append(
                    InjectedFault("floor_gap", float(epoch[lo]), start + length)
                )

        # 3. Pre-CMF monitor blackouts (not random: tied to the schedule).
        blackout = np.zeros((n, racks), dtype=bool)
        if cfg.blackout_before_cmf_s > 0:
            for event_epoch, flat in cmf_events:
                lo = int(
                    np.searchsorted(
                        epoch, event_epoch - cfg.blackout_before_cmf_s, side="left"
                    )
                )
                hi = int(np.searchsorted(epoch, event_epoch, side="left"))
                if hi > lo and 0 <= int(flat) < racks:
                    blackout[lo:hi, int(flat)] = True
                    faults.append(
                        InjectedFault(
                            "blackout",
                            float(epoch[lo]),
                            float(event_epoch),
                            rack=int(flat),
                        )
                    )

        # Robust per-channel scale of sample-to-sample differences, for
        # spike/drift magnitudes.  Guarded so a constant channel still
        # gets a visible perturbation.
        scale: Dict[Channel, float] = {}
        for ch in SENSOR_CHANNELS:
            diffs = np.abs(np.diff(values[ch], axis=0))
            med = float(np.nanmedian(diffs)) if diffs.size else 0.0
            scale[ch] = max(1.4826 * med / np.sqrt(2.0), 1e-3)

        # 4. Stuck-at runs.
        stuck = {ch: np.zeros((n, racks), dtype=bool) for ch in SENSOR_CHANNELS}
        for _ in range(int(rng.poisson(cfg.stuck_rate * n * racks))):
            t0 = int(rng.integers(0, n))
            rack = int(rng.integers(0, racks))
            ch = SENSOR_CHANNELS[int(rng.integers(0, len(SENSOR_CHANNELS)))]
            length = int(
                rng.integers(cfg.stuck_min_samples, cfg.stuck_max_samples + 1)
            )
            t1 = min(t0 + length, n)
            held = values[ch][t0, rack]
            if not np.isfinite(held):
                continue
            values[ch][t0:t1, rack] = held
            stuck[ch][t0:t1, rack] = True
            faults.append(
                InjectedFault(
                    "stuck",
                    float(epoch[t0]),
                    float(epoch[t1 - 1]),
                    rack=rack,
                    channel=ch,
                )
            )

        # 5. Transient spikes.
        spike = {ch: np.zeros((n, racks), dtype=bool) for ch in SENSOR_CHANNELS}
        for _ in range(int(rng.poisson(cfg.spike_rate * n * racks))):
            t0 = int(rng.integers(0, n))
            rack = int(rng.integers(0, racks))
            ch = SENSOR_CHANNELS[int(rng.integers(0, len(SENSOR_CHANNELS)))]
            magnitude = float(
                rng.uniform(cfg.spike_min_sigma, cfg.spike_max_sigma)
            ) * scale[ch]
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if not np.isfinite(values[ch][t0, rack]):
                continue
            values[ch][t0, rack] += sign * magnitude
            spike[ch][t0, rack] = True
            faults.append(
                InjectedFault(
                    "spike", float(epoch[t0]), float(epoch[t0]), rack=rack, channel=ch
                )
            )

        # 6. Slow calibration drift.
        drift = {ch: np.zeros((n, racks), dtype=bool) for ch in SENSOR_CHANNELS}
        for _ in range(int(rng.poisson(cfg.drift_rate_per_year * years))):
            rack = int(rng.integers(0, racks))
            ch = SENSOR_CHANNELS[int(rng.integers(0, len(SENSOR_CHANNELS)))]
            start = float(rng.uniform(epoch[0], epoch[-1]))
            length = float(rng.uniform(cfg.drift_min_s, cfg.drift_max_s))
            lo = int(np.searchsorted(epoch, start, side="left"))
            hi = int(np.searchsorted(epoch, start + length, side="left"))
            if hi <= lo:
                continue
            ramp = np.linspace(0.0, cfg.drift_max_sigma * scale[ch], hi - lo)
            values[ch][lo:hi, rack] += ramp
            drift[ch][lo:hi, rack] = True
            faults.append(
                InjectedFault(
                    "drift",
                    float(epoch[lo]),
                    float(epoch[hi - 1]),
                    rack=rack,
                    channel=ch,
                )
            )

        # 7/8. Delivery faults: duplicates and bounded clock skew.
        duplicated = rng.random(n) < cfg.duplicate_rate
        skewed = rng.random(n) < cfg.skew_rate
        delays = np.where(
            skewed, rng.uniform(0.0, cfg.skew_max_periods * dt_s, n), 0.0
        )
        dup_delays = rng.uniform(0.25 * dt_s, cfg.skew_max_periods * dt_s, n)

        # Apply missingness last: a dropped cell is NaN no matter what
        # value fault also hit it.
        missing = dropout | blackout
        for ch in SENSOR_CHANNELS:
            values[ch][missing] = np.nan

        truth = FaultTruth(
            epoch_s=epoch,
            dropout=dropout,
            floor_gap=floor_gap,
            blackout=blackout,
            stuck=stuck,
            spike=spike,
            drift=drift,
            duplicated=duplicated,
            delivery_delay_s=delays,
            faults=faults,
        )

        faulted = self._deliver(
            epoch, values, floor_gap, duplicated, delays, dup_delays, racks, dt_s
        )
        return faulted, truth

    # -- delivery ----------------------------------------------------------

    @staticmethod
    def _deliver(
        epoch: np.ndarray,
        values: Dict[Channel, np.ndarray],
        floor_gap: np.ndarray,
        duplicated: np.ndarray,
        delays: np.ndarray,
        dup_delays: np.ndarray,
        racks: int,
        dt_s: float,
    ) -> EnvironmentalDatabase:
        """Replay the degraded stream in delivery order."""
        keep = ~floor_gap
        indices = np.flatnonzero(keep)
        delivery_times = epoch[indices] + delays[indices]
        dup_indices = np.flatnonzero(keep & duplicated)
        all_indices = np.concatenate([indices, dup_indices])
        all_times = np.concatenate(
            [delivery_times, epoch[dup_indices] + dup_delays[dup_indices]]
        )
        order = np.argsort(all_times, kind="stable")

        max_delay = float(delays.max(initial=0.0))
        max_dup = float(dup_delays.max(initial=0.0)) if len(dup_indices) else 0.0
        window = max(max_delay, max_dup) + dt_s
        out = EnvironmentalDatabase(
            num_racks=racks,
            capacity_hint=len(indices),
            policy=IngestPolicy.lenient(reorder_window_s=window),
        )
        for pos in order:
            row = int(all_indices[pos])
            out.append_snapshot(
                float(epoch[row]), {ch: values[ch][row] for ch in CHANNELS}
            )
        out.flush()
        out.compact()
        return out
