"""Tests for regression models."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.regression import (
    LinearRegression,
    MultipleLinearRegression,
    PolynomialRegression,
)


class TestLinearRegression:
    def test_perfect_line(self):
        model = LinearRegression([0, 1, 2, 3], [1, 3, 5, 7])
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(10) == pytest.approx(21.0)

    def test_noisy_line_recovers_trend(self):
        xs = list(range(50))
        ys = [3.0 * x + 5.0 + ((-1) ** x) * 0.5 for x in xs]
        model = LinearRegression(xs, ys)
        assert model.slope == pytest.approx(3.0, abs=0.05)
        assert model.r_squared > 0.99

    def test_constant_x_degenerates_to_mean(self):
        model = LinearRegression([2, 2, 2], [1, 3, 5])
        assert model.slope == 0.0
        assert model.predict(100) == pytest.approx(3.0)

    def test_constant_y(self):
        model = LinearRegression([1, 2, 3], [7, 7, 7])
        assert model.slope == pytest.approx(0.0)
        assert model.r_squared == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            LinearRegression([1], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearRegression([1, 2], [1])

    def test_residual_stddev_zero_for_perfect_fit(self):
        model = LinearRegression([0, 1, 2, 3], [0, 2, 4, 6])
        assert model.residual_stddev() == pytest.approx(0.0, abs=1e-9)

    def test_predict_many(self):
        model = LinearRegression([0, 1], [0, 2])
        assert model.predict_many([2, 3]) == [pytest.approx(4), pytest.approx(6)]

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100))
    def test_recovers_arbitrary_line(self, slope, intercept):
        xs = [0.0, 1.0, 2.0, 5.0, 10.0]
        ys = [slope * x + intercept for x in xs]
        model = LinearRegression(xs, ys)
        assert model.slope == pytest.approx(slope, abs=1e-6)
        assert model.intercept == pytest.approx(intercept, abs=1e-6)


def textbook_fit(xs, ys):
    """The least-squares formula as ``LinearRegression`` first spelled it
    (``mean()``, ``** 2``, each deviation taken where it is used): the
    fit must stay bit-identical to it."""
    x_array = np.asarray(xs, dtype=float)
    y_array = np.asarray(ys, dtype=float)
    x_mean = x_array.mean()
    y_mean = y_array.mean()
    x_spread = float(((x_array - x_mean) ** 2).sum())
    if x_spread == 0.0:
        slope = 0.0
        intercept = float(y_mean)
    else:
        slope = float(((x_array - x_mean) * (y_array - y_mean)).sum() / x_spread)
        intercept = float(y_mean - slope * x_mean)
    residuals = y_array - (intercept + slope * x_array)
    total = float(((y_array - y_mean) ** 2).sum())
    residual_sum_squares = float((residuals**2).sum())
    r_squared = 1.0 if total == 0.0 else 1.0 - residual_sum_squares / total
    return slope, intercept, r_squared, residual_sum_squares


def bits(values):
    """The exact IEEE-754 bytes, so -0.0 != 0.0 and NaN == NaN."""
    return [struct.pack("<d", value) for value in values]


def assert_bit_identical(xs, ys):
    model = LinearRegression(xs, ys)
    fitted = (model.slope, model.intercept, model.r_squared,
              model.residual_sum_squares)
    assert bits(fitted) == bits(textbook_fit(xs, ys))


number = st.one_of(st.integers(-10**6, 10**6),
                   st.floats(-1e12, 1e12, allow_subnormal=True))


class TestLinearRegressionIsTheTextbookFormula:
    @given(st.lists(st.tuples(number, number), min_size=2, max_size=300),
           st.sampled_from([False] * 4 + [True]))
    @settings(max_examples=300, deadline=None)
    def test_drawn_series(self, points, constant_x):
        xs = [points[0][0]] * len(points) if constant_x else [x for x, _ in points]
        assert_bit_identical(xs, [y for _, y in points])

    @given(st.integers(0, 2**32),
           st.sampled_from([2, 3, 7, 8, 9, 30, 127, 128, 129, 1000, 10_000]),
           st.sampled_from([1e-3, 1.0, 1e3, 1e9]))
    @settings(max_examples=60, deadline=None)
    def test_long_series(self, seed, length, scale):
        # Past 8 and 128 values numpy's pairwise sum changes its blocks.
        rng = random.Random(seed)
        xs = sorted(rng.uniform(-scale, scale) for _ in range(length))
        ys = [rng.gauss(0.5 * x, scale) for x in xs]
        assert_bit_identical(xs, ys)
        assert_bit_identical(range(length), ys)


class TestPolynomialRegression:
    def test_quadratic_fit(self):
        xs = [-2, -1, 0, 1, 2, 3]
        ys = [x**2 for x in xs]
        model = PolynomialRegression(xs, ys, degree=2)
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(4) == pytest.approx(16.0, abs=1e-6)

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            PolynomialRegression([1, 2], [1, 2], degree=0)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            PolynomialRegression([1, 2], [1, 2], degree=2)


class TestMultipleLinearRegression:
    def test_two_features(self):
        rows = [[1, 2], [2, 1], [3, 3], [4, 5], [5, 4], [0, 1]]
        ys = [10 + 2 * a + 3 * b for a, b in rows]
        model = MultipleLinearRegression(rows, ys)
        assert model.intercept == pytest.approx(10.0, abs=1e-6)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
        assert model.coefficients[1] == pytest.approx(3.0, abs=1e-6)
        assert model.predict([10, 10]) == pytest.approx(60.0, abs=1e-5)

    def test_feature_width_checked_on_predict(self):
        rows = [[1, 2], [2, 1], [3, 3], [0, 1]]
        model = MultipleLinearRegression(rows, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            model.predict([1])

    def test_inconsistent_rows_rejected(self):
        with pytest.raises(ValueError):
            MultipleLinearRegression([[1, 2], [1]], [1, 2])

    def test_needs_more_rows_than_features(self):
        with pytest.raises(ValueError):
            MultipleLinearRegression([[1, 2], [3, 4]], [1, 2])
