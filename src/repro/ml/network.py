"""The sequential MLP."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.activations import Activation, relu, sigmoid
from repro.ml.layers import Dense


class NeuralNetwork:
    """A feed-forward network of dense layers.

    The paper's predictor is ``NeuralNetwork.mlp(input_size, (12, 12, 6))``:
    ReLU hidden layers and a single sigmoid output unit.
    """

    def __init__(self, layers: Sequence[Dense]) -> None:
        if not layers:
            raise ValueError("network needs at least one layer")
        for upstream, downstream in zip(layers, list(layers)[1:]):
            if upstream.output_size != downstream.input_size:
                raise ValueError(
                    f"layer size mismatch: {upstream.output_size} -> "
                    f"{downstream.input_size}"
                )
        self.layers: List[Dense] = list(layers)

    @classmethod
    def mlp(
        cls,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int = 1,
        hidden_activation: Activation = relu,
        output_activation: Activation = sigmoid,
        rng: Optional[np.random.Generator] = None,
    ) -> "NeuralNetwork":
        """Build a standard MLP.

        Args:
            input_size: Feature dimension.
            hidden_sizes: Units per hidden layer, e.g. ``(12, 12, 6)``.
            output_size: Output units (1 for binary classification).
            hidden_activation: Hidden activation (paper: ReLU).
            output_activation: Output activation (paper: sigmoid).
            rng: Initialization randomness.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = [input_size, *hidden_sizes]
        layers = [
            Dense(a, b, activation=hidden_activation, rng=rng)
            for a, b in zip(sizes, sizes[1:])
        ]
        layers.append(
            Dense(sizes[-1], output_size, activation=output_activation, rng=rng)
        )
        return cls(layers)

    # -- inference -------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass over a batch."""
        out = np.atleast_2d(np.asarray(x, dtype="float64"))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Positive-class probabilities, shape ``(n,)``."""
        return self.forward(x)[:, 0]

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at a decision threshold."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        return (self.predict_proba(x) >= threshold).astype(int)

    # -- structure ---------------------------------------------------------------

    def parameter_count(self) -> int:
        """Total trainable scalars."""
        return sum(layer.weights.size + layer.biases.size for layer in self.layers)

    def architecture(self) -> Tuple[int, ...]:
        """Layer widths, input first."""
        return (self.layers[0].input_size,) + tuple(
            layer.output_size for layer in self.layers
        )

    def clone_untrained(self, rng: Optional[np.random.Generator] = None) -> "NeuralNetwork":
        """A freshly initialized copy with the same architecture."""
        rng = rng if rng is not None else np.random.default_rng(0)
        layers = [
            Dense(
                layer.input_size,
                layer.output_size,
                activation=layer.activation,
                rng=rng,
            )
            for layer in self.layers
        ]
        return NeuralNetwork(layers)


class NetworkStack:
    """Same-architecture networks trained in lockstep.

    The parameters of all ``G`` networks live in one ``(G, P)`` array,
    each row in layer order, weights then biases; :attr:`weights` and
    :attr:`biases` hold per-layer views ``(G, in, out)`` and
    ``(G, 1, out)`` into it, and :attr:`grads` is the matching gradient
    buffer, so an optimizer steps the whole stack as one flat array.

    Each model gets the same bits as when trained alone.  A forward or
    backward pass makes one stacked ``np.matmul`` per product, which
    numpy runs as the same BLAS call per model slice as the 2-D
    product; activations and the loss terms are elementwise; and the
    per-model reductions (the bias gradient here, the batch-mean loss
    in :mod:`repro.ml.losses`) each sum one model's contiguous rows in
    the same order as the 2-D reduction.

    Args:
        networks: The models, trained in place: :meth:`store` copies the
            stacked parameters back into their layers.

    Raises:
        ValueError: if the networks differ in layer sizes or
            activations.
    """

    def __init__(self, networks: Sequence[NeuralNetwork]) -> None:
        if not networks:
            raise ValueError("a stack needs at least one network")

        def layout(network: NeuralNetwork) -> list:
            return [
                (layer.input_size, layer.output_size, layer.activation)
                for layer in network.layers
            ]

        shape = layout(networks[0])
        if any(layout(network) != shape for network in networks[1:]):
            raise ValueError("stacked networks must share one architecture")
        self.networks: List[NeuralNetwork] = list(networks)
        self.activations = [activation for _, _, activation in shape]
        count = len(self.networks)
        size = self.networks[0].parameter_count()
        self.params = np.empty((count, size))
        self.grads = np.zeros((count, size))
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self.grad_weights: List[np.ndarray] = []
        self.grad_biases: List[np.ndarray] = []
        offset = 0
        for n_in, n_out, _ in shape:
            for views, grad_views, rows in (
                (self.weights, self.grad_weights, n_in),
                (self.biases, self.grad_biases, 1),
            ):
                end = offset + rows * n_out
                views.append(self.params[:, offset:end].reshape(count, rows, n_out))
                grad_views.append(self.grads[:, offset:end].reshape(count, rows, n_out))
                offset = end
        for g, network in enumerate(self.networks):
            for weights, biases, layer in zip(self.weights, self.biases, network.layers):
                weights[g] = layer.weights
                biases[g, 0] = layer.biases
        self._inputs: List[np.ndarray] = []
        self._preactivations: List[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward ``(G, n, input_size)`` batches, caching for backward."""
        self._inputs = []
        self._preactivations = []
        out = x
        for weights, biases, activation in zip(
            self.weights, self.biases, self.activations
        ):
            self._inputs.append(out)
            pre = np.matmul(out, weights)
            pre += biases
            self._preactivations.append(pre)
            out = activation.forward(pre)
        return out

    def backward(self, grad_output: np.ndarray) -> None:
        """Backpropagate ``(G, n, output_size)`` loss gradients into
        :attr:`grads`, through the batches of the last :meth:`forward`."""
        grad = grad_output
        for index in reversed(range(len(self.weights))):
            grad_pre = self.activations[index].derivative(self._preactivations[index])
            grad_pre *= grad
            np.matmul(
                self._inputs[index].transpose(0, 2, 1),
                grad_pre,
                out=self.grad_weights[index],
            )
            grad_pre.sum(axis=1, keepdims=True, out=self.grad_biases[index])
            if index:
                grad = np.matmul(grad_pre, self.weights[index].transpose(0, 2, 1))

    def store(self) -> None:
        """Copy the stacked parameters into each network's layers."""
        for g, network in enumerate(self.networks):
            for weights, biases, layer in zip(self.weights, self.biases, network.layers):
                layer.weights[...] = weights[g]
                layer.biases[...] = biases[g, 0]
