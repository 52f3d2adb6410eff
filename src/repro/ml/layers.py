"""Network layers.

Only dense (fully connected) layers are needed for the paper's MLP.
Each layer caches its forward inputs so ``backward`` can compute
parameter gradients without re-running the forward pass.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ml.activations import Activation, identity


class Dense:
    """A fully connected layer: ``out = activation(x @ W + b)``.

    Args:
        input_size: Number of input features.
        output_size: Number of units.
        activation: Elementwise activation (identity by default).
        rng: Initialization randomness; He-scaled normal weights.

    Attributes:
        weights: ``(input_size, output_size)`` parameter matrix.
        biases: ``(output_size,)`` parameter vector.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        activation: Optional[Activation] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if input_size < 1 or output_size < 1:
            raise ValueError(
                f"layer sizes must be positive, got {input_size} -> {output_size}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.activation = activation if activation is not None else identity
        scale = np.sqrt(2.0 / input_size)  # He initialization
        self.weights = rng.standard_normal((input_size, output_size)) * scale
        self.biases = np.zeros(output_size)
        self._cached_input: Optional[np.ndarray] = None
        self._cached_preactivation: Optional[np.ndarray] = None
        #: Parameter gradients populated by backward().
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_biases = np.zeros_like(self.biases)

    @property
    def input_size(self) -> int:
        return self.weights.shape[0]

    @property
    def output_size(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Apply the layer to a batch of shape ``(n, input_size)``.

        Inference (``train=False``) is row-independent: every output
        accumulates ``x[:, f] * W[f]`` over ``f`` in index order with
        elementwise ufuncs, then adds the bias, so a row gets the same
        bits alone as in any batch.  BLAS ``x @ W`` may order its
        additions by batch shape or memory alignment, and so may
        ``einsum`` and numpy's pairwise ``sum``.  Training keeps
        ``x @ W``: moving it would change every trained weight, and its
        minibatch speed matters.

        Args:
            x: Input batch.
            train: Cache intermediates for a subsequent backward pass.
        """
        x = np.asarray(x, dtype="float64")
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"expected {self.input_size} features, got {x.shape[1]}"
            )
        weights = self.weights
        if train:
            pre = x @ weights
        else:
            pre = x[:, 0:1] * weights[0]
            for f in range(1, self.input_size):
                pre += x[:, f : f + 1] * weights[f]
        pre += self.biases
        if train:
            self._cached_input = x
            self._cached_preactivation = pre
        return self.activation.forward(pre)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient of shape ``(n, output_size)``.

        Populates :attr:`grad_weights` / :attr:`grad_biases` and
        returns the gradient w.r.t. the layer input.

        Raises:
            RuntimeError: if called before a ``forward(train=True)``.
        """
        if self._cached_input is None or self._cached_preactivation is None:
            raise RuntimeError("backward called before forward(train=True)")
        grad_pre = self.activation.derivative(self._cached_preactivation)
        grad_pre *= grad_output
        # Gradients land in the preallocated buffers (their shapes are
        # fixed by the layer, not the batch), saving two allocations
        # per layer per minibatch step.
        np.matmul(self._cached_input.T, grad_pre, out=self.grad_weights)
        grad_pre.sum(axis=0, out=self.grad_biases)
        return grad_pre @ self.weights.T

    # -- parameter access for optimizers ------------------------------------

    def parameters(self) -> Dict[str, np.ndarray]:
        """Named parameter arrays (mutated in place by optimizers)."""
        return {"weights": self.weights, "biases": self.biases}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Named gradient arrays matching :meth:`parameters`."""
        return {"weights": self.grad_weights, "biases": self.grad_biases}
