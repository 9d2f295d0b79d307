"""Tests for two-phase variance estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.hdr4me import Recalibrator
from repro.mechanisms import SquareWaveMechanism, get_mechanism
from repro.protocol import VarianceEstimationPipeline, true_variance


class TestGroundTruth:
    def test_true_variance(self):
        data = np.array([[0.0, 1.0], [2.0, 1.0]])
        np.testing.assert_allclose(true_variance(data), [1.0, 0.0])

    def test_needs_matrix(self):
        with pytest.raises(DimensionError):
            true_variance(np.zeros(3))


class TestPipeline:
    @pytest.mark.parametrize("name", ["laplace", "piecewise"])
    def test_recovers_variance(self, name, rng):
        data = rng.uniform(-1, 1, size=(30_000, 6))
        pipeline = VarianceEstimationPipeline(
            get_mechanism(name), epsilon=16.0, dimensions=6
        )
        result = pipeline.run(data, rng)
        np.testing.assert_allclose(
            result.variance, true_variance(data), atol=0.08
        )

    def test_mean_also_returned(self, rng):
        data = rng.uniform(-1, 1, size=(30_000, 4))
        pipeline = VarianceEstimationPipeline(
            get_mechanism("piecewise"), epsilon=16.0, dimensions=4
        )
        result = pipeline.run(data, rng)
        np.testing.assert_allclose(result.mean, data.mean(axis=0), atol=0.08)

    def test_variance_never_negative(self, rng):
        # At a tiny budget the raw difference E[t^2] - E[t]^2 is noise
        # and can go negative; the estimate must clip.
        data = rng.uniform(-1, 1, size=(300, 10))
        pipeline = VarianceEstimationPipeline(
            get_mechanism("laplace"), epsilon=0.05, dimensions=10
        )
        result = pipeline.run(data, rng)
        assert np.all(result.variance >= 0.0)

    def test_budget_split_in_half(self):
        pipeline = VarianceEstimationPipeline(
            get_mechanism("laplace"), epsilon=3.0, dimensions=4
        )
        # Both phases (the mean and the square) run under this plan.
        assert pipeline.plan.epsilon == pytest.approx(1.5)
        assert pipeline.plan.sampled_dimensions == 4

    def test_domain_checked(self):
        with pytest.raises(DimensionError):
            VarianceEstimationPipeline(
                SquareWaveMechanism(), epsilon=1.0, dimensions=3
            )

    def test_shape_checked(self, rng):
        pipeline = VarianceEstimationPipeline(
            get_mechanism("laplace"), epsilon=1.0, dimensions=3
        )
        with pytest.raises(DimensionError):
            pipeline.run(rng.uniform(-1, 1, size=(10, 4)), rng)

    def test_recalibration_improves_high_dim(self, rng):
        # The headline composition: HDR4ME on both moment vectors beats
        # the raw two-phase estimate in the high-d / small-eps regime.
        d, n, eps = 100, 8_000, 0.4
        data = rng.uniform(-1, 1, size=(n, d))
        truth = true_variance(data)
        plain = VarianceEstimationPipeline(
            get_mechanism("laplace"), epsilon=eps, dimensions=d
        ).run(data, rng=3)
        enhanced = VarianceEstimationPipeline(
            get_mechanism("laplace"),
            epsilon=eps,
            dimensions=d,
            recalibrator=Recalibrator(norm="l2"),
        ).run(data, rng=3)
        plain_mse = np.mean((plain.variance - truth) ** 2)
        enhanced_mse = np.mean((enhanced.variance - truth) ** 2)
        assert enhanced_mse < plain_mse
