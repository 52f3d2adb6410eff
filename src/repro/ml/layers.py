"""Network layers.

Only dense (fully connected) layers are needed for the paper's MLP.
A layer owns its parameters and runs inference; training runs on a
:class:`repro.ml.network.NetworkStack`, which steps the parameters of
one or more same-shape networks together and copies them back.
"""

from __future__ import annotations

from typing import Optional

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

    @property
    def input_size(self) -> int:
        return self.weights.shape[0]

    @property
    def output_size(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layer to a batch of shape ``(n, input_size)``.

        Inference is row-independent: every output accumulates
        ``x[:, f] * W[f]`` over ``f`` in index order with elementwise
        ufuncs, then adds the bias, so a row gets the same bits alone as
        in any batch.  BLAS ``x @ W`` may order its additions by batch
        shape or memory alignment, and so may ``einsum`` and numpy's
        pairwise ``sum``.  Training keeps the BLAS product (one stacked
        ``np.matmul`` per layer, see
        :class:`repro.ml.network.NetworkStack`): moving it would change
        every trained weight, and its minibatch speed matters.

        Args:
            x: Input batch.
        """
        x = np.asarray(x, dtype="float64")
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"expected {self.input_size} features, got {x.shape[1]}"
            )
        weights = self.weights
        pre = x[:, 0:1] * weights[0]
        for f in range(1, self.input_size):
            pre += x[:, f : f + 1] * weights[f]
        pre += self.biases
        return self.activation.forward(pre)
