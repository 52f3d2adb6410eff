"""Gradient-descent optimizers."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml.network import NeuralNetwork


class Optimizer(abc.ABC):
    """Updates network parameters in place from layer gradients."""

    @abc.abstractmethod
    def step(self, network: NeuralNetwork) -> None:
        """Apply one update using the gradients stored on each layer."""


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
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def step(self, network: NeuralNetwork) -> None:
        for index, layer in enumerate(network.layers):
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads[name]
                if self.momentum > 0.0:
                    key = (index, name)
                    velocity = self._velocity.get(key)
                    if velocity is None:
                        velocity = np.zeros_like(param)
                    velocity = self.momentum * velocity - self.learning_rate * grad
                    self._velocity[key] = velocity
                    param += velocity
                else:
                    param -= self.learning_rate * grad


class Adam(Optimizer):
    """The Adam optimizer (Kingma & Ba, 2015).

    The moments are two flat vectors over every parameter of the
    network in layer order: each step concatenates the gradients,
    updates them with one pass of elementwise ufuncs, and subtracts
    each parameter's slice in place.  Adam is elementwise, so every
    parameter gets the same bits as when stepped array by array.

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

    def step(self, network: NeuralNetwork) -> None:
        self._t += 1
        params: List[np.ndarray] = []
        grads: List[np.ndarray] = []
        for layer in network.layers:
            layer_grads = layer.gradients()
            for name, param in layer.parameters().items():
                params.append(param)
                grads.append(layer_grads[name].ravel())
        grad = np.concatenate(grads)
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grad**2
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        offset = 0
        for param in params:
            param -= update[offset : offset + param.size].reshape(param.shape)
            offset += param.size
