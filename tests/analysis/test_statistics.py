"""Unit tests for summary statistics and bootstrap intervals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import (
    bootstrap_mean_interval,
    bootstrap_median_interval,
    bootstrap_ratio_of_means,
    normal_mean_interval,
    summarize,
)
from repro.errors import AnalysisError


class TestNormalMeanInterval:
    def test_contains_true_mean_for_large_sample(self):
        rng = np.random.default_rng(1)
        values = rng.normal(5.0, 1.0, 4000)
        estimate = normal_mean_interval(values)
        assert estimate.lower <= 5.0 <= estimate.upper
        assert estimate.value == pytest.approx(5.0, abs=0.1)
        assert estimate.num_samples == 4000

    def test_single_observation(self):
        estimate = normal_mean_interval([3.0])
        assert estimate.value == estimate.lower == estimate.upper == 3.0

    def test_half_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = normal_mean_interval(rng.normal(0, 1, 50))
        large = normal_mean_interval(rng.normal(0, 1, 5000))
        assert large.half_width() < small.half_width()

    def test_summarize_alias(self):
        values = [1.0, 2.0, 3.0]
        assert summarize(values).value == normal_mean_interval(values).value

    def test_validation(self):
        with pytest.raises(AnalysisError):
            normal_mean_interval([])
        with pytest.raises(AnalysisError):
            normal_mean_interval([1.0, float("nan")])
        with pytest.raises(AnalysisError):
            normal_mean_interval([1.0], confidence=1.5)


class TestBootstrapMeanInterval:
    def test_roughly_matches_normal_interval(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(2.0, 1000)
        boot = bootstrap_mean_interval(values, seed=1)
        normal = normal_mean_interval(values)
        assert boot.value == pytest.approx(normal.value)
        assert boot.lower == pytest.approx(normal.lower, abs=0.1)
        assert boot.upper == pytest.approx(normal.upper, abs=0.1)

    def test_reproducible_with_seed(self):
        values = list(np.random.default_rng(4).exponential(1.0, 100))
        a = bootstrap_mean_interval(values, seed=9)
        b = bootstrap_mean_interval(values, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            bootstrap_mean_interval([1.0, 2.0], num_resamples=10)
        with pytest.raises(AnalysisError):
            bootstrap_mean_interval([1.0, 2.0], confidence=0.0)


class TestBootstrapMedianInterval:
    def test_brackets_the_median_and_ignores_outliers(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(1.0, 0.01, 200), [50.0, 80.0]])
        estimate = bootstrap_median_interval(values, seed=2)
        assert estimate.value == pytest.approx(float(np.median(values)))
        assert estimate.lower <= estimate.value <= estimate.upper
        assert estimate.upper - estimate.lower < 0.01
        assert estimate.num_samples == 202

    def test_single_observation_and_validation(self):
        estimate = bootstrap_median_interval([2.0])
        assert estimate.value == estimate.lower == estimate.upper == 2.0
        with pytest.raises(AnalysisError):
            bootstrap_median_interval([1.0, 2.0], num_resamples=10)


class TestRatioOfMeans:
    def test_point_estimate(self):
        numerator = [4.0, 6.0]
        denominator = [1.0, 3.0]
        estimate = bootstrap_ratio_of_means(numerator, denominator, seed=1)
        assert estimate.value == pytest.approx(2.5)
        assert estimate.numerator_mean == 5.0
        assert estimate.denominator_mean == 2.0

    def test_interval_contains_true_ratio(self):
        rng = np.random.default_rng(5)
        numerator = rng.normal(10.0, 1.0, 500)
        denominator = rng.normal(5.0, 1.0, 500)
        estimate = bootstrap_ratio_of_means(numerator, denominator, seed=2)
        assert estimate.lower <= 2.0 <= estimate.upper
        assert estimate.upper - estimate.lower < 0.5

    def test_rejects_nonpositive_denominator_mean(self):
        with pytest.raises(AnalysisError):
            bootstrap_ratio_of_means([1.0], [0.0], seed=1)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            bootstrap_ratio_of_means([], [1.0])
        with pytest.raises(AnalysisError):
            bootstrap_ratio_of_means([1.0], [1.0], confidence=1.2)

    def test_string_rendering(self):
        estimate = bootstrap_ratio_of_means([2.0, 2.0], [1.0, 1.0], seed=3)
        text = str(estimate)
        assert "2.000" in text
