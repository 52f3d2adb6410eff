"""Optimizers and the training loop on separable problems."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy
from repro.ml.network import NeuralNetwork
from repro.ml.optimizers import SGD, Adam
from repro.ml.train import (
    FeatureScaler,
    TrainConfig,
    three_way_split,
    train_classifier,
)


def _blobs(n=200, seed=0):
    """Two well-separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n // 2, 2)) + np.array([-2.0, -2.0])
    x1 = rng.standard_normal((n // 2, 2)) + np.array([2.0, 2.0])
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


def _xor(n=400, seed=0):
    """The XOR problem — requires a hidden layer."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", [SGD(0.1), SGD(0.05, momentum=0.9), Adam()])
    def test_blobs_converge(self, optimizer):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x, y, config=TrainConfig(epochs=40), optimizer=optimizer,
            rng=np.random.default_rng(2),
        )
        assert accuracy(y, result.predict(x)) > 0.95

    def test_loss_decreases(self):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(net, x, y, rng=np.random.default_rng(2))
        assert result.train_losses[-1] < result.train_losses[0]

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            Adam(learning_rate=-1.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.1, momentum=1.0)


class _PerArrayAdam:
    """Adam stepped one parameter array at a time, with moments keyed
    by ``(layer, name)``."""

    def __init__(self, learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, network):
        self._t += 1
        for index, layer in enumerate(network.layers):
            grads = layer.gradients()
            for name, param in layer.parameters().items():
                grad = grads[name]
                key = (index, name)
                m = self._m.get(key, np.zeros_like(param))
                v = self._v.get(key, np.zeros_like(param))
                m = self.beta1 * m + (1.0 - self.beta1) * grad
                v = self.beta2 * v + (1.0 - self.beta2) * grad**2
                self._m[key] = m
                self._v[key] = v
                m_hat = m / (1.0 - self.beta1**self._t)
                v_hat = v / (1.0 - self.beta2**self._t)
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class TestFlatAdam:
    def test_matches_per_array_adam_bit_for_bit(self):
        # The paper's 18-(12,12,6)-1 predictor shape, 50 epochs.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((578, 18))
        y = (x[:, 0] + 0.5 * x[:, 3] + 0.3 * rng.standard_normal(578) > 0).astype(int)
        results = []
        for optimizer in (Adam(), _PerArrayAdam()):
            net = NeuralNetwork.mlp(18, (12, 12, 6), rng=np.random.default_rng(7))
            results.append(
                train_classifier(
                    net, x, y, config=TrainConfig(epochs=50), optimizer=optimizer,
                    rng=np.random.default_rng(9),
                )
            )
        flat, per_array = results
        assert flat.train_losses == per_array.train_losses
        for a, b in zip(flat.network.layers, per_array.network.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()


class TestTraining:
    def test_xor_needs_and_uses_hidden_layer(self):
        x, y = _xor()
        net = NeuralNetwork.mlp(2, (12, 6), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x, y, config=TrainConfig(epochs=150), rng=np.random.default_rng(2)
        )
        assert accuracy(y, result.predict(x)) > 0.9

    def test_validation_losses_tracked(self):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x[:150], y[:150], rng=np.random.default_rng(2),
            x_val=x[150:], y_val=y[150:],
        )
        assert len(result.validation_losses) == TrainConfig().epochs

    def test_paper_epoch_default(self):
        assert TrainConfig().epochs == 50

    def test_length_mismatch_rejected(self):
        net = NeuralNetwork.mlp(2, (4,))
        with pytest.raises(ValueError):
            train_classifier(net, np.ones((10, 2)), np.ones(5))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestFeatureScaler:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(500, 4))
        scaler = FeatureScaler.fit(x)
        z = scaler.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_safe(self):
        x = np.ones((10, 2))
        z = FeatureScaler.fit(x).transform(x)
        assert np.isfinite(z).all()


class TestThreeWaySplit:
    def test_ratio(self):
        x = np.arange(500.0).reshape(-1, 1)
        y = np.tile([0, 1], 250)
        rng = np.random.default_rng(0)
        (xt, yt), (xs, ys), (xv, yv) = three_way_split(x, y, rng)
        assert len(xt) == pytest.approx(300, abs=4)
        assert len(xs) == pytest.approx(100, abs=4)
        assert len(xv) == pytest.approx(100, abs=4)
        assert len(xt) + len(xs) + len(xv) == 500

    def test_stratified(self):
        x = np.arange(500.0).reshape(-1, 1)
        y = np.array([0] * 400 + [1] * 100)
        rng = np.random.default_rng(0)
        (_, yt), (_, ys), (_, yv) = three_way_split(x, y, rng)
        for part in (yt, ys, yv):
            assert 0.1 < part.mean() < 0.3

    def test_disjoint_and_complete(self):
        x = np.arange(100.0).reshape(-1, 1)
        y = np.tile([0, 1], 50)
        rng = np.random.default_rng(0)
        parts = three_way_split(x, y, rng)
        seen = np.concatenate([p[0].ravel() for p in parts])
        assert sorted(seen) == sorted(x.ravel())

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            three_way_split(np.ones((10, 1)), np.ones(10), np.random.default_rng(0), ratio=(1, 0, 1))
