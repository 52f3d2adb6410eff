"""Gradient-descent optimizers.

An optimizer steps one flat parameter array from the matching gradient
array, in place.  Every update is elementwise, so a stack of models
laid out as ``(G, P)`` rows (see :class:`repro.ml.network.NetworkStack`)
is stepped in one pass, and each parameter gets the same bits as when
its model is stepped alone.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


class Optimizer(abc.ABC):
    """Updates a flat parameter array in place from its gradients."""

    @abc.abstractmethod
    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Apply one update to ``params`` from ``grads`` (same shape)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    Args:
        learning_rate: Step size.
        momentum: Velocity decay in [0, 1); 0 disables momentum.
    """

    def __init__(self, learning_rate: float = 0.05, momentum: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity = self.momentum * self._velocity - self.learning_rate * grads
            params += self._velocity
        else:
            params -= self.learning_rate * grads


class Adam(Optimizer):
    """The Adam optimizer (Kingma & Ba, 2015).

    Args:
        learning_rate: Step size.
        beta1: First-moment decay.
        beta2: Second-moment decay.
        epsilon: Denominator stabilizer.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._t += 1
        if self._m is None:
            self._m = np.zeros_like(grads)
            self._v = np.zeros_like(grads)
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads**2
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
