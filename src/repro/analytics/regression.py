"""Regression models (numpy-backed).

Two consumers: the Rich SDK predicts a service's latency from its
latency parameters (fit once on the monitoring history, then predict
per request), and the PKB's Figure-5 pipeline regresses over ingested
numeric data and stores the fitted slope/intercept/r² as RDF
statements for the inference engine to reason over.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class LinearRegression:
    """Ordinary least squares y = intercept + slope * x."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        n = len(xs)
        if n != len(ys):
            raise ValueError(f"length mismatch: {n} vs {len(ys)}")
        if n < 2:
            raise ValueError("regression needs at least two points")
        x_array = np.asarray(xs, dtype=float)
        y_array = np.asarray(ys, dtype=float)
        # ``sum() / n`` is what ``ndarray.mean`` computes, and ``d * d`` is
        # what ``d ** 2`` computes: the fit is bit-identical to the
        # textbook formula, with each deviation taken once.
        x_mean = x_array.sum() / n
        y_mean = y_array.sum() / n
        x_dev = x_array - x_mean
        y_dev = y_array - y_mean
        x_spread = float((x_dev * x_dev).sum())
        if x_spread == 0.0:
            # Degenerate: all x identical — predict the mean everywhere.
            self.slope = 0.0
            self.intercept = float(y_mean)
        else:
            self.slope = float((x_dev * y_dev).sum() / x_spread)
            self.intercept = float(y_mean - self.slope * x_mean)
        residuals = y_array - (self.intercept + self.slope * x_array)
        total = float((y_dev * y_dev).sum())
        self.residual_sum_squares = float((residuals * residuals).sum())
        self.r_squared = 1.0 if total == 0.0 else 1.0 - self.residual_sum_squares / total
        self.n = n

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x

    def predict_many(self, xs: Sequence[float]) -> list[float]:
        return [self.predict(x) for x in xs]

    def residual_stddev(self) -> float:
        """Standard error of the residuals (0 for a perfect fit)."""
        degrees = max(self.n - 2, 1)
        return float(np.sqrt(self.residual_sum_squares / degrees))


class PolynomialRegression:
    """Least-squares polynomial fit of a chosen degree."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], degree: int = 2) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if len(xs) != len(ys):
            raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
        if len(xs) <= degree:
            raise ValueError(f"need more than {degree} points for degree {degree}")
        self.degree = degree
        self.coefficients = [
            float(value) for value in np.polyfit(np.asarray(xs, float),
                                                 np.asarray(ys, float), degree)
        ]
        predictions = np.polyval(self.coefficients, np.asarray(xs, float))
        y_array = np.asarray(ys, dtype=float)
        total = float(((y_array - y_array.mean()) ** 2).sum())
        residual = float(((y_array - predictions) ** 2).sum())
        self.r_squared = 1.0 if total == 0.0 else 1.0 - residual / total

    def predict(self, x: float) -> float:
        return float(np.polyval(self.coefficients, x))


class MultipleLinearRegression:
    """OLS over several features: y = intercept + coefficients · x."""

    def __init__(self, rows: Sequence[Sequence[float]], ys: Sequence[float]) -> None:
        if len(rows) != len(ys):
            raise ValueError(f"length mismatch: {len(rows)} vs {len(ys)}")
        if not rows:
            raise ValueError("regression needs data")
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ValueError("all feature rows must have the same width")
        self.n_features = widths.pop()
        if self.n_features == 0:
            raise ValueError("need at least one feature")
        if len(rows) <= self.n_features:
            raise ValueError("need more rows than features")
        design = np.column_stack([np.ones(len(rows)), np.asarray(rows, dtype=float)])
        y_array = np.asarray(ys, dtype=float)
        solution, *_ = np.linalg.lstsq(design, y_array, rcond=None)
        self.intercept = float(solution[0])
        self.coefficients = [float(value) for value in solution[1:]]
        predictions = design @ solution
        total = float(((y_array - y_array.mean()) ** 2).sum())
        residual = float(((y_array - predictions) ** 2).sum())
        self.r_squared = 1.0 if total == 0.0 else 1.0 - residual / total

    def predict(self, features: Sequence[float]) -> float:
        if len(features) != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {len(features)}"
            )
        return self.intercept + float(
            np.dot(self.coefficients, np.asarray(features, dtype=float))
        )
