"""Loss functions for network training.

A loss is an elementwise term averaged over a batch.  Subclasses give
the term and its derivative; the batch mean and its gradient are
shared, and work on a stack of batches with a leading model axis
``(G, n, ...)``, one mean per model.  A plain batch is the stack of
one, so a model trained in a stack sees the same arithmetic as one
trained alone: each model's mean sums its own contiguous terms, in
the same order, and divides by its own row count.
"""

from __future__ import annotations

import abc

import numpy as np


class Loss(abc.ABC):
    """A scalar loss with a gradient w.r.t. predictions."""

    @abc.abstractmethod
    def terms(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The elementwise loss, same shape as ``predicted``."""

    @abc.abstractmethod
    def term_gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """d(term)/d(predicted), elementwise."""

    def value(self, predicted: np.ndarray, target: np.ndarray) -> float:
        """Mean loss over the batch."""
        return float(
            self.stack_values(np.asarray(predicted)[None], np.asarray(target)[None])[0]
        )

    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """d(loss)/d(predicted), same shape as ``predicted``."""
        return self.stack_gradient(
            np.asarray(predicted)[None], np.asarray(target)[None]
        )[0]

    def stack_values(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Mean loss of each batch in a ``(G, ...)`` stack, shape ``(G,)``."""
        flat = self.terms(predicted, target).reshape(len(predicted), -1)
        return flat.sum(axis=1) / flat.shape[1]

    def stack_gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of each batch's mean loss in a ``(G, ...)`` stack."""
        return self.term_gradient(predicted, target) / (predicted.size // len(predicted))


class BinaryCrossEntropy(Loss):
    """Mean binary cross-entropy for sigmoid outputs.

    Args:
        epsilon: Probability clamp to keep logs finite.
    """

    def __init__(self, epsilon: float = 1e-9) -> None:
        if not 0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = epsilon

    def _clamp(self, predicted: np.ndarray) -> np.ndarray:
        return np.clip(predicted, self.epsilon, 1.0 - self.epsilon)

    def terms(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        p = self._clamp(np.asarray(predicted, dtype="float64"))
        y = np.asarray(target, dtype="float64")
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))

    def term_gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        p = self._clamp(np.asarray(predicted, dtype="float64"))
        y = np.asarray(target, dtype="float64")
        return (p - y) / (p * (1.0 - p))


class MeanSquaredError(Loss):
    """Mean squared error (regression heads, ablations)."""

    def terms(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        diff = np.asarray(predicted, dtype="float64") - np.asarray(
            target, dtype="float64"
        )
        return diff**2

    def term_gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        p = np.asarray(predicted, dtype="float64")
        y = np.asarray(target, dtype="float64")
        return 2.0 * (p - y)
