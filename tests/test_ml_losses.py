"""Loss functions."""

import numpy as np
import pytest

from repro.ml.losses import BinaryCrossEntropy, MeanSquaredError


class TestBinaryCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        loss = BinaryCrossEntropy()
        value = loss.value(np.array([1e-9, 1 - 1e-9]), np.array([0.0, 1.0]))
        assert value < 1e-6

    def test_worst_prediction_large(self):
        loss = BinaryCrossEntropy()
        value = loss.value(np.array([0.999]), np.array([0.0]))
        assert value > 5.0

    def test_uncertain_prediction(self):
        loss = BinaryCrossEntropy()
        value = loss.value(np.array([0.5]), np.array([1.0]))
        assert value == pytest.approx(np.log(2.0))

    def test_gradient_direction(self):
        loss = BinaryCrossEntropy()
        grad = loss.gradient(np.array([0.8]), np.array([1.0]))
        assert grad[0] < 0  # push prediction up toward 1

    def test_gradient_matches_finite_difference(self):
        loss = BinaryCrossEntropy()
        p = np.array([0.3, 0.7, 0.5])
        y = np.array([1.0, 0.0, 1.0])
        grad = loss.gradient(p, y)
        eps = 1e-7
        for i in range(3):
            bumped = p.copy()
            bumped[i] += eps
            numeric = (loss.value(bumped, y) - loss.value(p, y)) / eps
            assert grad[i] == pytest.approx(numeric, rel=1e-3)

    def test_clamps_out_of_range(self):
        loss = BinaryCrossEntropy()
        assert np.isfinite(loss.value(np.array([0.0, 1.0]), np.array([1.0, 0.0])))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BinaryCrossEntropy(epsilon=0.6)


class TestMeanSquaredError:
    def test_zero_at_match(self):
        loss = MeanSquaredError()
        assert loss.value(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_value(self):
        loss = MeanSquaredError()
        assert loss.value(np.array([3.0]), np.array([1.0])) == pytest.approx(4.0)

    def test_gradient_matches_finite_difference(self):
        loss = MeanSquaredError()
        p = np.array([0.5, -1.0])
        y = np.array([1.0, 1.0])
        grad = loss.gradient(p, y)
        eps = 1e-7
        for i in range(2):
            bumped = p.copy()
            bumped[i] += eps
            numeric = (loss.value(bumped, y) - loss.value(p, y)) / eps
            assert grad[i] == pytest.approx(numeric, rel=1e-4)


class TestStackedLoss:
    """Each model's mean in a ``(G, n, 1)`` stack has the bits of the
    2-D batch mean alone (the lockstep trainer relies on it)."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 32, 578])
    def test_stack_matches_each_batch_alone(self, rows):
        rng = np.random.default_rng(rows)
        p = rng.uniform(0.0, 1.0, size=(5, rows, 1))
        y = rng.integers(0, 2, size=(5, rows, 1)).astype(float)
        bce, mse = BinaryCrossEntropy(), MeanSquaredError()
        bce_values = bce.stack_values(p, y)
        mse_values = mse.stack_values(p, y)
        bce_grads = bce.stack_gradient(p, y)
        mse_grads = mse.stack_gradient(p, y)
        for g in range(5):
            q = np.clip(p[g], 1e-9, 1.0 - 1e-9)
            alone = -np.mean(y[g] * np.log(q) + (1.0 - y[g]) * np.log(1.0 - q))
            assert bce_values[g].tobytes() == alone.tobytes()
            assert bce.value(p[g], y[g]) == float(alone)
            assert np.array_equal(bce_grads[g], (q - y[g]) / (q * (1.0 - q)) / q.size)
            assert mse_values[g] == np.mean((p[g] - y[g]) ** 2)
            assert np.array_equal(mse_grads[g], 2.0 * (p[g] - y[g]) / p[g].size)
