"""Pearson and Spearman correlation."""

import numpy as np
import pytest

from repro.core.correlation import pearson, pearson_or_nan, spearman


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        assert abs(pearson(x, y)) < 0.05

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            assert -1.0 <= pearson(x, y) <= 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_constant_input_is_nan_when_asked(self):
        x = np.arange(10.0)
        assert np.isnan(pearson_or_nan(x, np.ones(10)))
        assert pearson_or_nan(x, 2 * x) == pytest.approx(1.0)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(10), np.arange(10.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = np.arange(1.0, 20.0)
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert pearson(x, x**3) < 1.0

    def test_handles_ties(self):
        x = np.array([1.0, 2.0, 2.0, 3.0])
        y = np.array([10.0, 20.0, 20.0, 30.0])
        assert spearman(x, y) == pytest.approx(1.0)

    def test_antitone_is_minus_one(self):
        x = np.arange(10.0)
        assert spearman(x, np.exp(-x)) == pytest.approx(-1.0)

    def test_matches_pearson_on_ranks_free_data(self):
        rng = np.random.default_rng(3)
        x = rng.permutation(100).astype(float)
        y = rng.permutation(100).astype(float)
        # Both are rank data already, so the two coefficients agree.
        assert spearman(x, y) == pytest.approx(pearson(x, y))
