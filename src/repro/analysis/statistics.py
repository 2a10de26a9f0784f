"""Summary statistics, confidence intervals, and ratio estimates.

The experiment tables report, for every (graph, protocol) cell, the mean
spreading time with a confidence interval, and for every graph a *ratio* of
two protocols' times (synchronous over asynchronous, push over push–pull,
...).  Ratios of Monte Carlo means need their own uncertainty estimate, so
this module provides bootstrap confidence intervals for means, medians and
ratios of means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.randomness.rng import SeedLike, as_generator

__all__ = [
    "MeanEstimate",
    "RatioEstimate",
    "summarize",
    "bootstrap_mean_interval",
    "bootstrap_median_interval",
    "bootstrap_ratio_of_means",
    "normal_mean_interval",
]


@dataclass(frozen=True)
class MeanEstimate:
    """A mean with a confidence interval.

    Attributes:
        value: the point estimate (sample mean).
        lower / upper: the confidence interval bounds.
        confidence: the confidence level (e.g. 0.95).
        num_samples: how many observations the estimate is based on.
    """

    value: float
    lower: float
    upper: float
    confidence: float
    num_samples: int

    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.3f} [{self.lower:.3f}, {self.upper:.3f}]"


@dataclass(frozen=True)
class RatioEstimate:
    """A ratio of two means with a bootstrap confidence interval."""

    value: float
    lower: float
    upper: float
    confidence: float
    numerator_mean: float
    denominator_mean: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.3f} [{self.lower:.3f}, {self.upper:.3f}]"


def _validate_sample(values: Sequence[float], name: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise AnalysisError(f"{name} must be non-empty")
    if np.any(~np.isfinite(array)):
        raise AnalysisError(f"{name} must contain only finite values")
    return array


def summarize(values: Sequence[float], *, confidence: float = 0.95) -> MeanEstimate:
    """Sample mean with a normal-approximation confidence interval."""
    return normal_mean_interval(values, confidence=confidence)


def normal_mean_interval(values: Sequence[float], *, confidence: float = 0.95) -> MeanEstimate:
    """Mean with a normal (CLT) confidence interval.

    For a single observation the interval degenerates to ``(value, value)``.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    array = _validate_sample(values, "values")
    mean = float(np.mean(array))
    if array.size < 2:
        return MeanEstimate(mean, mean, mean, confidence, int(array.size))
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + confidence / 2.0))
    half = z * float(np.std(array, ddof=1)) / math.sqrt(array.size)
    return MeanEstimate(mean, mean - half, mean + half, confidence, int(array.size))


def _bootstrap_interval(
    values: Sequence[float],
    statistic: Callable[..., np.ndarray],
    confidence: float,
    num_resamples: int,
    seed: SeedLike,
) -> MeanEstimate:
    """``statistic`` of ``values`` with a percentile-bootstrap interval."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if num_resamples < 100:
        raise AnalysisError("num_resamples should be at least 100 for a stable interval")
    array = _validate_sample(values, "values")
    rng = as_generator(seed)
    value = float(statistic(array))
    if array.size < 2:
        return MeanEstimate(value, value, value, confidence, int(array.size))
    indices = rng.integers(0, array.size, size=(num_resamples, array.size))
    resampled = statistic(array[indices], axis=1)
    alpha = 1.0 - confidence
    lower = float(np.quantile(resampled, alpha / 2.0))
    upper = float(np.quantile(resampled, 1.0 - alpha / 2.0))
    return MeanEstimate(value, lower, upper, confidence, int(array.size))


def bootstrap_mean_interval(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: SeedLike = None,
) -> MeanEstimate:
    """Mean with a percentile-bootstrap confidence interval."""
    return _bootstrap_interval(values, np.mean, confidence, num_resamples, seed)


def bootstrap_median_interval(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: SeedLike = None,
) -> MeanEstimate:
    """Median with a percentile-bootstrap confidence interval.

    The robust choice for heavy-tailed samples such as paired timing
    ratios on a shared machine (``value`` is the sample median).
    """
    return _bootstrap_interval(values, np.median, confidence, num_resamples, seed)


def bootstrap_ratio_of_means(
    numerator: Sequence[float],
    denominator: Sequence[float],
    *,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: SeedLike = None,
) -> RatioEstimate:
    """Ratio ``mean(numerator) / mean(denominator)`` with a bootstrap interval.

    The two samples are resampled independently (they come from independent
    Monte Carlo runs).  The denominator's mean must be positive.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    num = _validate_sample(numerator, "numerator")
    den = _validate_sample(denominator, "denominator")
    den_mean = float(np.mean(den))
    if den_mean <= 0:
        raise AnalysisError("denominator mean must be positive for a ratio estimate")
    num_mean = float(np.mean(num))
    rng = as_generator(seed)
    ratios = np.empty(num_resamples)
    for i in range(num_resamples):
        num_resample = num[rng.integers(0, num.size, num.size)]
        den_resample = den[rng.integers(0, den.size, den.size)]
        den_value = float(np.mean(den_resample))
        ratios[i] = float(np.mean(num_resample)) / den_value if den_value > 0 else math.inf
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        raise AnalysisError("all bootstrap ratios were infinite; denominator too close to zero")
    alpha = 1.0 - confidence
    return RatioEstimate(
        value=num_mean / den_mean,
        lower=float(np.quantile(finite, alpha / 2.0)),
        upper=float(np.quantile(finite, 1.0 - alpha / 2.0)),
        confidence=confidence,
        numerator_mean=num_mean,
        denominator_mean=den_mean,
    )
