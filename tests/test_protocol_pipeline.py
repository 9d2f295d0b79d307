"""Tests for dataset-scale collection rounds through the session API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import mse, true_mean
from repro.exceptions import DimensionError
from repro.framework import ValueDistribution, build_multivariate_model
from repro.hdr4me import Recalibrator, postprocess_frequencies
from repro.mechanisms import LaplaceMechanism, PiecewiseMechanism
from repro.protocol import BudgetPlan, build_populations, collect_means
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    Schema,
    sample_attribute_mask,
)
from testutil import full_report_model


class TestMeanPipeline:
    def test_full_reporting_counts(self, rng):
        data = rng.uniform(-1, 1, size=(500, 6))
        estimate = collect_means(LaplaceMechanism(), 1.0, data, rng)
        assert [a.reports for a in estimate.attributes] == [500] * 6
        assert estimate.users == 500

    def test_sampled_reporting_counts(self, rng):
        data = rng.uniform(-1, 1, size=(4000, 10))
        estimate = collect_means(
            LaplaceMechanism(), 1.0, data, rng, sampled_dimensions=3
        )
        counts = np.array([a.reports for a in estimate.attributes])
        assert counts.sum() == 4000 * 3
        expected = 4000 * 3 / 10
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_recovers_mean_large_budget(self, rng):
        data = rng.uniform(-1, 1, size=(20_000, 5))
        estimate = collect_means(PiecewiseMechanism(), 20.0, data, rng)
        np.testing.assert_allclose(
            estimate.numeric_means(), true_mean(data), atol=0.05
        )

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            collect_means(LaplaceMechanism(), 1.0, rng.uniform(-1, 1, size=10), rng)

    def test_mask_has_exactly_m_per_row(self, rng):
        mask = sample_attribute_mask(200, 12, 5, rng)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(200, 5))

    def test_matches_reference_client_distribution(self, rng):
        """The session path agrees with the per-user reference Client."""
        from repro.protocol import Aggregator, Client

        data = np.tile(np.array([-0.4, 0.1, 0.7]), (30_000, 1))
        mech = PiecewiseMechanism()
        fast = collect_means(mech, 2.0, data, rng, sampled_dimensions=2)

        plan = BudgetPlan(epsilon=2.0, dimensions=3, sampled_dimensions=2)
        client = Client(mech, plan)
        agg = Aggregator(mech, plan)
        for row in data[:30_000]:
            agg.add_report(client.report(row, rng))
        slow = agg.aggregate()
        np.testing.assert_allclose(
            fast.numeric_means(), slow.theta_hat, atol=0.05
        )


class TestDeviationModelBridge:
    def test_unbounded_needs_no_population(self):
        model = full_report_model(LaplaceMechanism(), 1.0, 1000, 6)
        assert model.ndim == 6

    def test_bounded_from_data(self, rng):
        data = rng.uniform(-1, 1, size=(2000, 4))
        model = full_report_model(
            PiecewiseMechanism(), 1.0, 2000, 4, build_populations(data)
        )
        assert model.ndim == 4
        assert np.all(model.sigmas > 0)

    def test_bounded_from_shared_population(self):
        model = full_report_model(
            PiecewiseMechanism(), 1.0, 500, 3, ValueDistribution.point_mass(0.0)
        )
        assert np.allclose(model.sigmas, model.sigmas[0])

    def test_reports_scale_with_m(self):
        # Same collective budget: sampling halves reports but doubles the
        # per-dimension budget, so the sigmas differ accordingly.
        model_full = full_report_model(LaplaceMechanism(), 1.0, 1000, 10)
        sampled = BudgetPlan(1.0, 10, 5)
        model_sampled = build_multivariate_model(
            LaplaceMechanism(),
            sampled.epsilon_per_dimension,
            sampled.expected_reports(1000),
            None,
            ndim=10,
        )
        assert model_sampled.sigmas[0] != model_full.sigmas[0]

    def test_build_populations_validates(self):
        with pytest.raises(DimensionError):
            build_populations(np.zeros(5))

    def test_run_enhanced_convenience(self, rng):
        """Collect, model and re-calibrate: HDR4ME beats the raw round."""
        data = rng.uniform(-1, 1, size=(3000, 50))
        mech = LaplaceMechanism()
        theta_hat = collect_means(mech, 0.2, data, rng).numeric_means()
        model = full_report_model(mech, 0.2, 3000, 50)
        enhanced = Recalibrator(norm="l1").recalibrate(theta_hat, model)
        assert mse(enhanced.theta_star, true_mean(data)) < mse(
            theta_hat, true_mean(data)
        )


def _frequency_round(mechanism, epsilon, labels, category_counts, rng, m=None):
    """One histogram-encoded round over ``d`` categorical attributes."""
    schema = Schema(
        [
            CategoricalAttribute("q%d" % j, n_categories=v)
            for j, v in enumerate(category_counts)
        ]
    )
    client = LDPClient(schema, epsilon, sampled_attributes=m, protocols=mechanism)
    server = LDPServer(schema, epsilon, sampled_attributes=m, protocols=mechanism)
    server.ingest(client.report_batch(labels, rng))
    return server.estimate()


class TestFrequencyPipeline:
    def test_multi_dimension_estimates(self, rng):
        labels = rng.integers(0, 4, size=(20_000, 3))
        estimate = _frequency_round("piecewise", 8.0, labels, [4, 4, 4], rng)
        assert len(estimate.attributes) == 3
        for j in range(3):
            truth = np.bincount(labels[:, j], minlength=4) / labels.shape[0]
            np.testing.assert_allclose(
                postprocess_frequencies(estimate.frequencies("q%d" % j)),
                truth,
                atol=0.08,
            )

    def test_sampled_dimensions_reduce_reports(self, rng):
        labels = rng.integers(0, 3, size=(9000, 3))
        estimate = _frequency_round("laplace", 2.0, labels, [3, 3, 3], rng, m=1)
        for attr in estimate.attributes:
            assert attr.reports < 9000
            assert attr.reports == pytest.approx(3000, rel=0.2)

    def test_label_shape_validated(self, rng):
        with pytest.raises(DimensionError):
            _frequency_round("laplace", 1.0, np.zeros((10, 3), dtype=int), [3, 3], rng)

    def test_empty_category_counts_rejected(self, rng):
        with pytest.raises(DimensionError):
            _frequency_round("laplace", 1.0, np.zeros((10, 0), dtype=int), [], rng)

    def test_no_user_exceeds_m_reports(self, rng):
        """Privacy-accounting regression: exactly m of d dimensions per user.

        The historical per-dimension Bernoulli(m/d) sampling could let a
        user report more than m dimensions while paying only eps/m each,
        overspending the collective budget. With exactly-m sampling the
        total report count is deterministically n*m (Bernoulli sampling
        only hits that in expectation) and no user can exceed m.
        """
        users, m = 4000, 2
        labels = rng.integers(0, 3, size=(users, 5))
        estimate = _frequency_round("laplace", 2.0, labels, [3] * 5, rng, m=m)
        assert sum(a.reports for a in estimate.attributes) == users * m
        assert all(a.reports <= users for a in estimate.attributes)

    def test_per_user_sampling_mask_never_exceeds_m(self, rng):
        """The sampling primitive itself guarantees the per-user cap."""
        mask = sample_attribute_mask(1000, 7, 3, rng)
        assert mask.sum(axis=1).max() == 3
