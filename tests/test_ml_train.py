"""Optimizers and the training loop on separable problems."""

import numpy as np
import pytest

from repro.ml.activations import identity, relu, sigmoid, tanh
from repro.ml.layers import Dense
from repro.ml.losses import MeanSquaredError
from repro.ml.metrics import accuracy
from repro.ml.network import NeuralNetwork
from repro.ml.optimizers import SGD, Adam
from repro.ml.train import (
    FeatureScaler,
    TrainConfig,
    three_way_split,
    train_classifier,
    train_classifiers,
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


def _layered_network(seed):
    """The paper's 18-(12,12,6)-1 shape with a tanh first hidden layer."""
    rng = np.random.default_rng(seed)
    return NeuralNetwork(
        [
            Dense(18, 12, activation=tanh, rng=rng),
            Dense(12, 12, activation=relu, rng=rng),
            Dense(12, 6, activation=relu, rng=rng),
            Dense(6, 1, activation=sigmoid, rng=rng),
        ]
    )


def _fold_data(g, rows=578):
    """Model ``g``'s own training and validation sets."""
    rng = np.random.default_rng(100 + g)
    x = rng.standard_normal((rows, 18)) * (1.0 + g)
    y = (x[:, 0] + 0.5 * x[:, 3] + 0.3 * (1.0 + g) * rng.standard_normal(rows) > 0)
    x_val = rng.standard_normal((40 + 7 * g, 18)) * (1.0 + g)
    return x, y.astype(int), x_val, (x_val[:, 0] > 0).astype(int)


class _PerArrayAdam:
    """Adam stepped one parameter array at a time."""

    def __init__(self, learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        for key, (param, grad) in enumerate(zip(params, grads)):
            m = self._m.get(key, np.zeros_like(param))
            v = self._v.get(key, np.zeros_like(param))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[key] = m
            self._v[key] = v
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class _PerArraySGD:
    """SGD with momentum stepped one parameter array at a time."""

    def __init__(self, learning_rate, momentum):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = {}

    def step(self, params, grads):
        for key, (param, grad) in enumerate(zip(params, grads)):
            velocity = self._velocity.get(key, np.zeros_like(param))
            velocity = self.momentum * velocity - self.learning_rate * grad
            self._velocity[key] = velocity
            param += velocity


def _bce(p, y):
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _reference_train(network, x, y, x_val, y_val, optimizer, epochs, rng):
    """One network trained alone by a per-network loop: 2-D ``x @ W``
    forward with cached inputs, backward layer by layer, per-array
    optimizer steps, batches of 32.  Returns (mean, std, train losses,
    validation losses); the network's arrays are trained in place."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0
    x = (x - mean) / std
    x_val = (x_val - mean) / std
    y = y.astype("float64").reshape(-1, 1)
    y_val = y_val.reshape(-1, 1)
    layers = network.layers
    params = [a for layer in layers for a in (layer.weights, layer.biases)]
    orders = [rng.permutation(len(x)) for _ in range(epochs)]
    starts = range(0, len(x), 32)
    train_losses, val_losses = [], []
    for order in orders:
        total = 0.0
        for start in starts:
            batch = order[start : start + 32]
            out, cache = x[batch], []
            for layer in layers:
                pre = out @ layer.weights
                pre += layer.biases
                cache.append((out, pre))
                out = layer.activation.forward(pre)
            target = y[batch]
            total += _bce(out, target)
            p = np.clip(out, 1e-9, 1.0 - 1e-9)
            grad = (p - target) / (p * (1.0 - p)) / p.size
            grads = []
            for layer, (inputs, pre) in reversed(list(zip(layers, cache))):
                grad_pre = layer.activation.derivative(pre)
                grad_pre *= grad
                grads[:0] = [inputs.T @ grad_pre, grad_pre.sum(axis=0)]
                grad = grad_pre @ layer.weights.T
            optimizer.step(params, grads)
        train_losses.append(total / len(starts))
        val_losses.append(_bce(network.forward(x_val), y_val))
    return mean, std, train_losses, val_losses


class TestLockstepTraining:
    """A stack of G models trains each exactly as the per-network loop
    trains it alone: same weights, biases, scaler and loss bits
    (``train_classifier`` is the stack of one)."""

    @pytest.mark.parametrize(
        "count, kind, epochs",
        [(1, "adam", 50), (3, "adam", 12), (12, "adam", 6),
         (1, "sgd", 12), (3, "sgd", 12), (12, "sgd", 6)],
    )
    def test_matches_reference_loop_bit_for_bit(self, count, kind, epochs):
        def optimizer(per_array):
            if kind == "adam":
                return _PerArrayAdam() if per_array else Adam()
            return _PerArraySGD(0.01, 0.9) if per_array else SGD(0.01, momentum=0.9)

        data = [_fold_data(g) for g in range(count)]
        # 578 rows in batches of 32 leave a 2-row tail batch.
        assert len(data[0][0]) % 32 == 2
        kwargs = dict(
            config=TrainConfig(epochs=epochs),
            optimizer=optimizer(False),
            rng=np.random.default_rng(9),
        )
        if count == 1:
            (x, y, x_val, y_val), = data
            stacked = [
                train_classifier(
                    _layered_network(0), x, y, x_val=x_val, y_val=y_val, **kwargs
                )
            ]
        else:
            stacked = train_classifiers(
                [_layered_network(g) for g in range(count)],
                [d[0] for d in data],
                [d[1] for d in data],
                x_val=[d[2] for d in data],
                y_val=[d[3] for d in data],
                **kwargs,
            )
        for g, (result, (x, y, x_val, y_val)) in enumerate(zip(stacked, data)):
            network = _layered_network(g)
            mean, std, train_losses, val_losses = _reference_train(
                network, x, y, x_val, y_val, optimizer(True), epochs,
                np.random.default_rng(9),
            )
            assert result.scaler.mean.tobytes() == mean.tobytes()
            assert result.scaler.std.tobytes() == std.tobytes()
            assert result.train_losses == train_losses
            assert result.validation_losses == val_losses
            for a, b in zip(result.network.layers, network.layers):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.biases.tobytes() == b.biases.tobytes()

    def test_unshuffled_unscaled_mse_matches_alone(self):
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal((101, 3)) for _ in range(3)]
        ys = [x[:, 0] - x[:, 1] for x in xs]

        def network(g):
            return NeuralNetwork.mlp(
                3, (5,), hidden_activation=tanh, output_activation=identity,
                rng=np.random.default_rng(g),
            )

        kwargs = dict(
            config=TrainConfig(epochs=4, batch_size=25, shuffle=False, standardize=False),
            loss=MeanSquaredError(),
        )
        stacked = train_classifiers(
            [network(g) for g in range(3)], xs, ys, optimizer=SGD(0.05), **kwargs
        )
        for g, result in enumerate(stacked):
            alone = train_classifier(
                network(g), xs[g], ys[g], optimizer=SGD(0.05), **kwargs
            )
            assert result.scaler is None
            assert result.train_losses == alone.train_losses
            for a, b in zip(result.network.layers, alone.network.layers):
                assert a.weights.tobytes() == b.weights.tobytes()

    def test_unequal_row_counts_rejected(self):
        networks = [NeuralNetwork.mlp(2, (3,)) for _ in range(2)]
        with pytest.raises(ValueError):
            train_classifiers(networks, [np.ones((10, 2)), np.ones((11, 2))],
                              [np.ones(10), np.ones(11)])


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
