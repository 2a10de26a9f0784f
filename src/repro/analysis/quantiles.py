"""Quantile estimation for spreading times — in particular ``T_q`` and ``T_{1/n}``.

Section 2 of the paper defines, for ``0 < q < 1``,

.. math::

    T_q(\\alpha, G, u) = \\min\\{t : \\Pr[T(\\alpha, G, u) \\le t] \\ge 1 - q\\},

the time by which the rumor has reached every vertex with probability at
least ``1 − q``; ``T_{1/n}`` is the *high-probability rumor spreading time*
that Theorem 1 is stated in terms of.  This module estimates ``T_q`` from
Monte Carlo samples.

Two estimators are provided (the estimator choice is an ablation):

* :func:`empirical_quantile` — the order-statistic estimator
  (the ``ceil((1 − q)·m)``-th smallest of ``m`` observations);
* :func:`tail_fitted_quantile` — fits an exponential tail to the top of the
  sample and extrapolates, which is useful when ``q`` is smaller than
  ``1/m`` and the empirical estimator would just return the maximum.

For estimating ``T_{1/n}`` with a number of trials that is comparable to (or
smaller than) ``n``, :func:`high_probability_time` picks the appropriate
strategy and reports which one it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.montecarlo import SpreadingTimeSample
from repro.errors import AnalysisError

__all__ = [
    "QuantileEstimate",
    "empirical_quantile",
    "tail_fitted_quantile",
    "high_probability_time",
    "quantile_confidence_interval",
    "coverage_envelope",
]


@dataclass(frozen=True)
class QuantileEstimate:
    """An estimate of ``T_q`` together with how it was obtained.

    Attributes:
        value: the estimated quantile.
        level: the probability level ``1 − q`` (e.g. ``1 − 1/n``).
        method: ``"empirical"`` or ``"tail_fit"``.
        num_samples: how many observations the estimate is based on.
    """

    value: float
    level: float
    method: str
    num_samples: int


def _as_sorted_array(values: Sequence[float]) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise AnalysisError("quantile estimation needs a non-empty sample")
    if np.any(~np.isfinite(array)):
        raise AnalysisError("quantile estimation needs finite observations")
    return np.sort(array)


def empirical_quantile(values: Sequence[float], level: float) -> float:
    """Order-statistic estimate of the ``level``-quantile.

    ``level`` is the cumulative probability (``1 − q`` in the paper's
    notation); the estimator returns the smallest observation ``t`` with at
    least a ``level`` fraction of the sample ``<= t``.
    """
    if not 0.0 < level < 1.0:
        raise AnalysisError(f"quantile level must be in (0, 1), got {level}")
    ordered = _as_sorted_array(values)
    rank = math.ceil(level * ordered.size)
    rank = min(max(rank, 1), ordered.size)
    return float(ordered[rank - 1])


def tail_fitted_quantile(values: Sequence[float], level: float, *, tail_fraction: float = 0.25) -> float:
    """Quantile estimate that extrapolates an exponential fit of the upper tail.

    Spreading-time distributions have exponentially decaying upper tails on
    every family in the experiment suite (they are bounded by sums of
    geometric / exponential phase lengths), so fitting
    ``P[T > t] ≈ c · exp(-t / β)`` to the top ``tail_fraction`` of the sample
    and solving for the requested level gives a usable estimate of quantiles
    beyond the sample resolution.  Falls back to the empirical maximum if the
    tail is degenerate (e.g. all observations equal).
    """
    if not 0.0 < level < 1.0:
        raise AnalysisError(f"quantile level must be in (0, 1), got {level}")
    if not 0.0 < tail_fraction <= 1.0:
        raise AnalysisError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    ordered = _as_sorted_array(values)
    m = ordered.size
    empirical = empirical_quantile(ordered, level)
    if level <= 1.0 - 1.0 / m:
        # The requested level is within the sample's resolution.
        return empirical
    k = max(2, int(math.ceil(tail_fraction * m)))
    tail = ordered[m - k :]
    threshold = float(tail[0])
    excesses = tail - threshold
    beta = float(np.mean(excesses))
    if beta <= 0.0:
        return float(ordered[-1])
    # P[T > threshold] ≈ k / m; solve threshold + beta * ln(k/(m*(1-level))).
    target_tail = 1.0 - level
    value = threshold + beta * math.log((k / m) / target_tail)
    return max(value, float(ordered[-1]))


def high_probability_time(
    sample: "SpreadingTimeSample | Sequence[float]",
    num_vertices: int | None = None,
    *,
    method: str = "auto",
) -> QuantileEstimate:
    """Estimate the paper's high-probability spreading time ``T_{1/n}``.

    Args:
        sample: a :class:`SpreadingTimeSample` or a raw sequence of times.
        num_vertices: the graph size ``n`` (taken from the sample when a
            :class:`SpreadingTimeSample` is passed).
        method: ``"empirical"``, ``"tail_fit"``, or ``"auto"`` (use the
            empirical order statistic when the sample is large enough to
            resolve the ``1 − 1/n`` level, otherwise the tail fit).

    Returns:
        A :class:`QuantileEstimate` at level ``1 − 1/n``.
    """
    if isinstance(sample, SpreadingTimeSample):
        values: Sequence[float] = sample.times
        n = sample.num_vertices if num_vertices is None else num_vertices
    else:
        values = sample
        if num_vertices is None:
            raise AnalysisError("num_vertices is required when passing raw times")
        n = num_vertices
    if n < 2:
        raise AnalysisError(f"num_vertices must be at least 2, got {n}")
    level = 1.0 - 1.0 / n
    m = len(values)
    if method not in ("auto", "empirical", "tail_fit"):
        raise AnalysisError(f"unknown quantile method {method!r}")
    if method == "auto":
        method = "empirical" if m >= n else "tail_fit"
    if method == "empirical":
        value = empirical_quantile(values, level)
    else:
        value = tail_fitted_quantile(values, level)
    return QuantileEstimate(value=value, level=level, method=method, num_samples=m)


def coverage_envelope(
    histories: np.ndarray,
    num_vertices: int,
    *,
    levels: Sequence[float] = (0.1, 0.5, 0.9),
) -> np.ndarray:
    """Per-time-point coverage quantiles over a ``(B, T)`` history matrix.

    ``histories`` holds informed *counts* per trial and time point (the
    compacted output of
    :func:`repro.telemetry.trace.coverage_histories`); the envelope is the
    requested quantiles of the informed *fraction* across trials at each
    time point — p10/p50/p90 by default, the telemetry layer's standard
    compaction of a batch coverage trace.

    Returns a ``(len(levels), T)`` float array.
    """
    matrix = np.asarray(histories, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise AnalysisError(
            f"coverage_envelope needs a non-empty (B, T) matrix, got shape "
            f"{matrix.shape}"
        )
    if num_vertices < 1:
        raise AnalysisError(f"num_vertices must be positive, got {num_vertices}")
    levels = tuple(levels)
    if not levels or any(not 0.0 < q < 1.0 for q in levels):
        raise AnalysisError(f"envelope levels must lie in (0, 1), got {levels!r}")
    fractions = matrix / float(num_vertices)
    return np.quantile(fractions, levels, axis=0)


def quantile_confidence_interval(
    values: Sequence[float],
    level: float,
    *,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Distribution-free confidence interval for a quantile from order statistics.

    Uses the binomial distribution of the number of observations below the
    true quantile to pick order-statistic ranks whose interval covers the
    quantile with at least the requested confidence.  Degenerates to
    ``(min, max)`` when the sample is too small to do better.
    """
    if not 0.0 < level < 1.0:
        raise AnalysisError(f"quantile level must be in (0, 1), got {level}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    from scipy.stats import binom

    ordered = _as_sorted_array(values)
    m = ordered.size
    alpha = 1.0 - confidence
    lower_rank = int(binom.ppf(alpha / 2.0, m, level))
    upper_rank = int(binom.ppf(1.0 - alpha / 2.0, m, level)) + 1
    lower_rank = min(max(lower_rank, 1), m)
    upper_rank = min(max(upper_rank, lower_rank), m)
    return float(ordered[lower_rank - 1]), float(ordered[upper_rank - 1])
