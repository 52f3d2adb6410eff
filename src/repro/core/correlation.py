"""Correlation coefficients.

The paper quotes a correlation of 0.45 between rack power and rack
utilization (Section IV-A, citing the Spearman coefficient reference)
and near-zero correlations between per-rack CMF counts and rack
metrics (Section VI-A).  Both Pearson's r and Spearman's rho are
implemented; the analyses default to Pearson and report Spearman in
the ablation benches.
"""

from __future__ import annotations

import numpy as np


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's product-moment correlation coefficient.

    Raises:
        ValueError: on length mismatch or fewer than two samples, or
            if either input is constant (undefined correlation).
    """
    a = np.asarray(x, dtype="float64").ravel()
    b = np.asarray(y, dtype="float64").ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two samples")
    a_std = a.std()
    b_std = b.std()
    if a_std == 0.0 or b_std == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (a_std * b_std))


def pearson_or_nan(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r, or NaN where it is undefined because an input is
    constant (per-rack means over too little data for racks to differ)."""
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return float("nan")
    return pearson(x, y)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (ties get the mean of their positions)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype="float64")
    ranks[order] = np.arange(1, len(values) + 1, dtype="float64")
    # Average ranks over tie groups.
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            mean_rank = (i + j + 2) / 2.0
            ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation coefficient (tie-aware)."""
    a = np.asarray(x, dtype="float64").ravel()
    b = np.asarray(y, dtype="float64").ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return pearson(_ranks(a), _ranks(b))
