"""Time-series helpers for the PKB's predictive analytics."""

from __future__ import annotations

from collections.abc import Sequence

from repro.analytics.regression import LinearRegression


def moving_average(values: Sequence[float], window: int) -> list[float]:
    """Trailing moving average; the first ``window - 1`` points average
    whatever prefix exists so the output has the input's length."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    averaged = []
    running = 0.0
    for index, value in enumerate(values):
        running += value
        if index >= window:
            running -= values[index - window]
        span = min(index + 1, window)
        averaged.append(running / span)
    return averaged


def linear_forecast(values: Sequence[float], horizon: int) -> list[float]:
    """Extrapolate ``horizon`` future points from a linear trend fit."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    model = LinearRegression(range(len(values)), values)
    start = len(values)
    return [model.predict(start + step) for step in range(horizon)]


def detect_trend(values: Sequence[float], threshold: float = 0.0) -> str:
    """Classify a series as 'rising', 'falling' or 'flat' by fitted slope.

    ``threshold`` is the absolute slope below which the series counts
    as flat (useful for noisy data).
    """
    return slope_trend(LinearRegression(range(len(values)), values).slope,
                       threshold)


def slope_trend(slope: float, threshold: float = 0.0) -> str:
    """:func:`detect_trend`'s label for an already fitted slope."""
    if slope > threshold:
        return "rising"
    if slope < -threshold:
        return "falling"
    return "flat"


def exponential_smoothing(values: Sequence[float], alpha: float) -> list[float]:
    """Simple exponential smoothing: s_t = α·x_t + (1−α)·s_{t−1}."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not values:
        return []
    smoothed = [float(values[0])]
    for value in values[1:]:
        smoothed.append(alpha * value + (1 - alpha) * smoothed[-1])
    return smoothed


def holt_forecast(values: Sequence[float], horizon: int,
                  alpha: float = 0.5, beta: float = 0.3) -> list[float]:
    """Holt's linear-trend forecast (double exponential smoothing).

    Maintains a level and a trend component; the h-step-ahead forecast
    is ``level + h * trend``.  Better than a single global regression
    when the trend itself drifts over the series.
    """
    if not 0.0 < alpha <= 1.0 or not 0.0 < beta <= 1.0:
        raise ValueError("alpha and beta must be in (0, 1]")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if len(values) < 2:
        raise ValueError("Holt forecasting needs at least two points")
    level = float(values[0])
    trend = float(values[1]) - float(values[0])
    for value in values[1:]:
        previous_level = level
        level = alpha * value + (1 - alpha) * (level + trend)
        trend = beta * (level - previous_level) + (1 - beta) * trend
    return [level + (step + 1) * trend for step in range(horizon)]
