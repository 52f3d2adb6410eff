"""Dense layers and the MLP, including a full gradient check."""

import numpy as np
import pytest

from repro.ml.activations import relu, sigmoid, tanh
from repro.ml.layers import Dense
from repro.ml.losses import BinaryCrossEntropy
from repro.ml.network import NetworkStack, NeuralNetwork


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_wrong_width_rejected(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 6)))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)


class TestNetworkConstruction:
    def test_mlp_architecture(self):
        net = NeuralNetwork.mlp(18, (12, 12, 6))
        assert net.architecture() == (18, 12, 12, 6, 1)

    def test_paper_architecture_parameter_count(self):
        net = NeuralNetwork.mlp(18, (12, 12, 6))
        # 18*12+12 + 12*12+12 + 12*6+6 + 6*1+1 = 469
        assert net.parameter_count() == 469

    def test_mismatched_layers_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetwork([Dense(4, 3), Dense(5, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetwork([])

    def test_clone_untrained_same_architecture(self):
        net = NeuralNetwork.mlp(6, (4,))
        clone = net.clone_untrained(np.random.default_rng(1))
        assert clone.architecture() == net.architecture()
        assert not np.allclose(clone.layers[0].weights, net.layers[0].weights)


class TestInference:
    def test_probabilities_bounded(self):
        net = NeuralNetwork.mlp(6, (4,), rng=np.random.default_rng(1))
        p = net.predict_proba(np.random.default_rng(2).standard_normal((20, 6)))
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0)

    def test_predict_threshold(self):
        net = NeuralNetwork.mlp(6, (4,), rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((20, 6))
        p = net.predict_proba(x)
        hard = net.predict(x, threshold=0.5)
        assert np.array_equal(hard, (p >= 0.5).astype(int))

    def test_bad_threshold_rejected(self):
        net = NeuralNetwork.mlp(6, (4,))
        with pytest.raises(ValueError):
            net.predict(np.ones((1, 6)), threshold=1.0)

    def test_inference_is_row_independent(self):
        """A row's probability has the same bits alone as in any batch
        (the streaming predictor scores whole blocks on this)."""
        net = NeuralNetwork.mlp(18, (12, 12, 6), rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((1000, 18))
        batched = net.predict_proba(x)
        for size in (1, 7, 256):
            split = np.concatenate(
                [net.predict_proba(x[i : i + size]) for i in range(0, len(x), size)]
            )
            assert np.array_equal(split, batched)

    def test_train_forward_matches_inference(self):
        """The stacked training forward (BLAS) differs from each model's
        inference by rounding only."""
        nets = [
            NeuralNetwork.mlp(18, (12, 12, 6), rng=np.random.default_rng(seed))
            for seed in (5, 6, 7)
        ]
        x = np.random.default_rng(6).standard_normal((3, 100, 18))
        stacked = NetworkStack(nets).forward(x)
        for net, batch, out in zip(nets, x, stacked):
            np.testing.assert_allclose(out, net.forward(batch), rtol=1e-12, atol=1e-15)


class TestNetworkStack:
    def test_views_lay_out_each_model_in_layer_order(self):
        nets = [NeuralNetwork.mlp(4, (3,), rng=np.random.default_rng(g)) for g in range(2)]
        stack = NetworkStack(nets)
        assert stack.params.shape == stack.grads.shape == (2, nets[0].parameter_count())
        for g, net in enumerate(nets):
            flat = np.concatenate(
                [a.ravel() for layer in net.layers for a in (layer.weights, layer.biases)]
            )
            assert np.array_equal(stack.params[g], flat)
        views = [v for pair in zip(stack.weights, stack.biases) for v in pair]
        grad_views = [v for pair in zip(stack.grad_weights, stack.grad_biases) for v in pair]
        for view, grad_view in zip(views, grad_views):
            assert np.shares_memory(view, stack.params)
            assert np.shares_memory(grad_view, stack.grads)
            assert view.shape == grad_view.shape

    def test_store_copies_back_per_model(self):
        nets = [NeuralNetwork.mlp(4, (3,), rng=np.random.default_rng(g)) for g in range(2)]
        stack = NetworkStack(nets)
        stack.params[1] += 1.0
        before = nets[0].layers[0].weights.copy()
        stack.store()
        assert np.array_equal(nets[0].layers[0].weights, before)
        assert np.array_equal(nets[1].layers[1].biases, stack.biases[1][1, 0])
        assert np.array_equal(nets[1].layers[1].biases, np.ones(1))

    def test_mismatched_architectures_rejected(self):
        with pytest.raises(ValueError):
            NetworkStack([NeuralNetwork.mlp(4, (3,)), NeuralNetwork.mlp(4, (2,))])
        with pytest.raises(ValueError):
            NetworkStack([
                NeuralNetwork.mlp(4, (3,)),
                NeuralNetwork.mlp(4, (3,), hidden_activation=tanh),
            ])
        with pytest.raises(ValueError):
            NetworkStack([])


def _stacked_gradients(nets, x, y, loss):
    """Backpropagate each model's own batch through one stack."""
    stack = NetworkStack(nets)
    predicted = stack.forward(x)
    stack.backward(loss.stack_gradient(predicted, y))
    return stack


class TestGradients:
    @pytest.mark.parametrize("hidden_activation", [relu, tanh])
    def test_full_network_gradient_check(self, hidden_activation):
        """Stacked backprop gradients must match each model's central
        finite differences."""
        rng = np.random.default_rng(3)
        nets = [
            NeuralNetwork.mlp(5, (7, 4), hidden_activation=hidden_activation, rng=rng)
            for _ in range(3)
        ]
        loss = BinaryCrossEntropy()
        x = rng.standard_normal((3, 8, 5))
        y = rng.integers(0, 2, size=(3, 8, 1)).astype(float)
        stack = _stacked_gradients(nets, x, y, loss)

        eps = 1e-6
        for g, net in enumerate(nets):
            for index, layer in enumerate(net.layers):
                weights = layer.weights
                grad = stack.grad_weights[index][g]
                # Spot-check a handful of entries per layer.
                indices = [(0, 0), (weights.shape[0] - 1, weights.shape[1] - 1)]
                for i, j in indices:
                    original = weights[i, j]
                    weights[i, j] = original + eps
                    plus = loss.value(net.forward(x[g]), y[g])
                    weights[i, j] = original - eps
                    minus = loss.value(net.forward(x[g]), y[g])
                    weights[i, j] = original
                    numeric = (plus - minus) / (2 * eps)
                    assert grad[i, j] == pytest.approx(numeric, rel=2e-3, abs=1e-7)

    def test_bias_gradient_check(self):
        rng = np.random.default_rng(4)
        nets = [NeuralNetwork.mlp(3, (5,), rng=rng) for _ in range(2)]
        loss = BinaryCrossEntropy()
        x = rng.standard_normal((2, 6, 3))
        y = rng.integers(0, 2, size=(2, 6, 1)).astype(float)
        stack = _stacked_gradients(nets, x, y, loss)
        eps = 1e-6
        for g, net in enumerate(nets):
            layer = net.layers[0]
            original = layer.biases[2]
            layer.biases[2] = original + eps
            plus = loss.value(net.forward(x[g]), y[g])
            layer.biases[2] = original - eps
            minus = loss.value(net.forward(x[g]), y[g])
            layer.biases[2] = original
            numeric = (plus - minus) / (2 * eps)
            assert stack.grad_biases[0][g, 0, 2] == pytest.approx(
                numeric, rel=2e-3, abs=1e-7
            )
