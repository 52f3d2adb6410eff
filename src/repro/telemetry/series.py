"""Time-series container and statistics used by every analysis.

:class:`TimeSeries` wraps a timestamp vector plus a value array that is
either 1-D (system-level series) or 2-D ``(time, rack)`` (per-rack
series).  It offers exactly the operations the paper's analyses need:

* bucketed resampling (mean/median) onto coarser grids,
* calendar group-bys (by year, month, weekday, hour),
* linear trend fits (the red lines of Fig 2),
* rolling means, and
* reduction across the rack axis.

All operations return new objects; series are immutable by convention.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import timeutil
from repro.telemetry import nanstats


@dataclasses.dataclass(frozen=True)
class LinearFit:
    """A least-squares line ``value = slope * t + intercept``.

    ``slope`` is per *year* when fitted via :func:`linear_fit` on epoch
    timestamps, which is the natural unit for the Fig 2 trends.
    """

    slope_per_year: float
    intercept_at_start: float
    start_epoch_s: float

    def predict(self, epoch_s: np.ndarray) -> np.ndarray:
        """Evaluate the fitted line at the given timestamps."""
        t_years = (np.asarray(epoch_s) - self.start_epoch_s) / timeutil.YEAR_S
        return self.intercept_at_start + self.slope_per_year * t_years


def linear_fit(epoch_s: np.ndarray, values: np.ndarray) -> LinearFit:
    """Least-squares linear trend of a series against time.

    Raises:
        ValueError: if fewer than two finite points are available.
    """
    t = np.asarray(epoch_s, dtype="float64")
    v = np.asarray(values, dtype="float64")
    mask = np.isfinite(v)
    if mask.sum() < 2:
        raise ValueError("need at least two finite points for a linear fit")
    t, v = t[mask], v[mask]
    start = float(t[0])
    t_years = (t - start) / timeutil.YEAR_S
    slope, intercept = np.polyfit(t_years, v, 1)
    return LinearFit(
        slope_per_year=float(slope),
        intercept_at_start=float(intercept),
        start_epoch_s=start,
    )


class TimeSeries:
    """An immutable (timestamps, values) pair with analysis helpers.

    Args:
        epoch_s: Monotonically non-decreasing timestamps, shape (n,).
        values: Shape (n,) for a system-level series or (n, racks) for
            a per-rack series.
        name: Optional label carried through operations.
        unit: Optional unit string carried through operations.
    """

    def __init__(
        self,
        epoch_s: np.ndarray,
        values: np.ndarray,
        name: str = "",
        unit: str = "",
    ) -> None:
        epoch = np.asarray(epoch_s, dtype="float64")
        vals = np.asarray(values, dtype="float64")
        if epoch.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {epoch.shape}")
        if vals.shape[0] != epoch.shape[0]:
            raise ValueError(
                f"length mismatch: {epoch.shape[0]} timestamps vs "
                f"{vals.shape[0]} values"
            )
        if vals.ndim not in (1, 2):
            raise ValueError(f"values must be 1-D or 2-D, got shape {vals.shape}")
        if epoch.size > 1 and np.any(np.diff(epoch) < 0):
            raise ValueError("timestamps must be non-decreasing")
        self._epoch = epoch
        self._values = vals
        self.name = name
        self.unit = unit

    # -- basic access ---------------------------------------------------------

    @property
    def epoch_s(self) -> np.ndarray:
        return self._epoch

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def is_per_rack(self) -> bool:
        return self._values.ndim == 2

    def __len__(self) -> int:
        return int(self._epoch.shape[0])

    def _like(self, epoch: np.ndarray, values: np.ndarray) -> "TimeSeries":
        return TimeSeries(epoch, values, name=self.name, unit=self.unit)

    # -- slicing --------------------------------------------------------------

    def between(self, start_epoch_s: float, end_epoch_s: float) -> "TimeSeries":
        """Restrict to ``start <= t < end``."""
        mask = (self._epoch >= start_epoch_s) & (self._epoch < end_epoch_s)
        return self._like(self._epoch[mask], self._values[mask])

    def rack(self, flat_index: int) -> "TimeSeries":
        """Extract one rack's 1-D series from a per-rack series."""
        if not self.is_per_rack:
            raise ValueError("series is not per-rack")
        return self._like(self._epoch, self._values[:, flat_index])

    # -- reductions -----------------------------------------------------------

    def across_racks(self, reducer: str = "mean") -> "TimeSeries":
        """Reduce the rack axis, keeping the time axis.

        Args:
            reducer: "mean", "median", "sum", "min", or "max".
        """
        if not self.is_per_rack:
            raise ValueError("series is not per-rack")
        func = _REDUCERS[reducer]
        return self._like(self._epoch, func(self._values, axis=1))

    def per_rack_mean(self) -> np.ndarray:
        """Time-average of each rack: the spatial profile (Figs 6/7/9)."""
        if not self.is_per_rack:
            raise ValueError("series is not per-rack")
        return nanstats.nanmean(self._values, axis=0)

    def overall_std(self) -> float:
        """Standard deviation over all samples (the Fig 3/8 captions)."""
        return float(nanstats.nanstd(self._values))

    def overall_mean(self) -> float:
        """Mean over all samples."""
        return float(nanstats.nanmean(self._values))

    def coverage(self) -> float:
        """Fraction of cells holding a finite value (data completeness)."""
        if self._values.size == 0:
            return 0.0
        return float(np.isfinite(self._values).mean())

    # -- resampling -----------------------------------------------------------

    def resample(self, bucket_s: float, reducer: str = "mean") -> "TimeSeries":
        """Bucket the series onto a coarser regular grid.

        Bucket timestamps are the bucket starts.  Empty buckets are
        dropped.
        """
        if bucket_s <= 0:
            raise ValueError(f"bucket must be positive, got {bucket_s}")
        if len(self) == 0:
            return self._like(self._epoch, self._values)
        start = self._epoch[0]
        bucket_index = ((self._epoch - start) // bucket_s).astype(np.int64)
        return self._group_reduce(
            bucket_index, reducer, lambda b: start + b * bucket_s
        )

    def _group_reduce(
        self,
        keys: np.ndarray,
        reducer: str,
        key_to_epoch: Callable[[np.ndarray], np.ndarray],
    ) -> "TimeSeries":
        unique_keys, reduced = _reduce_by_key(keys, self._values, reducer)
        new_epoch = np.asarray(key_to_epoch(unique_keys), dtype="float64")
        return self._like(new_epoch, reduced)

    # -- calendar group-bys -----------------------------------------------------

    def groupby_calendar(
        self, field: str, reducer: str = "median"
    ) -> Dict[int, float]:
        """Reduce the series by a calendar field of its timestamps.

        Args:
            field: "year", "month" (1..12), "weekday" (0=Monday), or
                "hour" (0..23).
            reducer: "mean", "median", "sum", "min", or "max".

        Returns:
            Mapping from field value to the reduced scalar.  Per-rack
            series are first averaged across racks.
        """
        values = (
            nanstats.nanmean(self._values, axis=1) if self.is_per_rack else self._values
        )
        if len(self) == 0:
            return {}
        keys = _CALENDAR_FIELDS[field](self._epoch)
        unique_keys, reduced = _reduce_by_key(keys, values, reducer)
        return {int(k): float(v) for k, v in zip(unique_keys, reduced)}

    # -- smoothing and trends -----------------------------------------------------

    def rolling_mean(self, window: int) -> "TimeSeries":
        """Centered rolling mean over ``window`` samples (edges shrink)."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if len(self) == 0 or window == 1:
            return self._like(self._epoch, self._values)
        half = window // 2
        values = self._values
        if values.ndim == 1:
            values = values[:, None]
        csum = np.cumsum(np.vstack([np.zeros((1, values.shape[1])), values]), axis=0)
        n = len(self)
        lo = np.clip(np.arange(n) - half, 0, n)
        hi = np.clip(np.arange(n) + half + 1, 0, n)
        out = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
        if self._values.ndim == 1:
            out = out[:, 0]
        return self._like(self._epoch, out)

    def trend(self) -> LinearFit:
        """Linear trend of the (rack-averaged) series (the Fig 2 red line).

        A series with fewer than two finite values has no trend: its
        fit is all NaN, so every prediction from it reads NaN.
        """
        values = (
            nanstats.nanmean(self._values, axis=1) if self.is_per_rack else self._values
        )
        if np.count_nonzero(np.isfinite(values)) < 2:
            nan = float("nan")
            return LinearFit(slope_per_year=nan, intercept_at_start=nan, start_epoch_s=nan)
        return linear_fit(self._epoch, values)


def reduce_by_calendar(
    epoch_s: np.ndarray, values: np.ndarray, field: str, reducer: str
) -> Dict[int, np.ndarray]:
    """Calendar group-by of a value matrix over a shared timestamp vector.

    The multi-channel sibling of :meth:`TimeSeries.groupby_calendar`:
    ``values`` may be ``(n,)`` or ``(n, k)`` — with one column per
    channel — and the calendar keys, the stable sort, and the group
    boundaries are computed *once* for all columns.

    Returns:
        Mapping from calendar field value to the reduced row (scalar
        for 1-D input, ``(k,)`` for matrix input).
    """
    epoch = np.asarray(epoch_s, dtype="float64")
    if epoch.size == 0:
        return {}
    keys = _CALENDAR_FIELDS[field](epoch)
    unique_keys, reduced = _reduce_by_key(keys, np.asarray(values, dtype="float64"), reducer)
    return {int(k): reduced[i] for i, k in enumerate(unique_keys)}


def _reduce_by_key(
    keys: np.ndarray, values: np.ndarray, reducer: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``values`` rows by ``keys`` and reduce each group.

    One stable sort + ``ufunc.reduceat`` over the group boundaries
    replaces the per-key boolean-mask scan (O(n · groups)) the
    calendar group-bys and resampling used to do.  Median has no
    reduceat ufunc, so it keeps a per-*group* loop over the sorted
    slabs (still one pass over the data).

    Semantics match the ``nanstats`` reducers: NaNs are ignored, a
    group with no finite value reduces to NaN (``sum``: 0), and no
    RuntimeWarning is ever emitted.

    Returns:
        (unique keys ascending, reduced rows aligned to them).
    """
    if reducer not in _REDUCERS:
        raise KeyError(reducer)
    if keys.size == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    sorted_vals = values[order]
    unique_keys, starts = np.unique(keys[order], return_index=True)
    if reducer == "median":
        boundaries = np.append(starts, len(keys))
        reduced = np.stack(
            [
                nanstats.nanmedian(sorted_vals[boundaries[i] : boundaries[i + 1]], axis=0)
                for i in range(len(unique_keys))
            ],
            axis=0,
        )
        return unique_keys, reduced
    finite = np.isfinite(sorted_vals)
    counts = np.add.reduceat(finite.astype("float64"), starts, axis=0)
    if reducer in ("sum", "mean"):
        sums = np.add.reduceat(np.where(finite, sorted_vals, 0.0), starts, axis=0)
        if reducer == "sum":
            return unique_keys, sums
        return unique_keys, np.divide(
            sums, counts, out=np.full_like(sums, np.nan), where=counts > 0
        )
    fill = np.inf if reducer == "min" else -np.inf
    ufunc = np.minimum if reducer == "min" else np.maximum
    extremes = ufunc.reduceat(np.where(finite, sorted_vals, fill), starts, axis=0)
    return unique_keys, np.where(counts > 0, extremes, np.nan)


_REDUCERS: Dict[str, Callable[..., np.ndarray]] = {
    "mean": nanstats.nanmean,
    "median": nanstats.nanmedian,
    "sum": nanstats.nansum,
    "min": nanstats.nanmin,
    "max": nanstats.nanmax,
}

_CALENDAR_FIELDS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "year": timeutil.years,
    "month": timeutil.months,
    "weekday": timeutil.weekdays,
    "hour": timeutil.hours_of_day,
}
