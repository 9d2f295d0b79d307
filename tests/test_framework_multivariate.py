"""Tests for the Theorem 1 multivariate deviation model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DimensionError, DistributionError, ParameterError
from repro.framework import (
    DeviationModel,
    MultivariateDeviationModel,
    ValueDistribution,
    build_deviation_model,
    build_multivariate_model,
)
from repro.mechanisms import LaplaceMechanism, PiecewiseMechanism


def _model(deltas, sigmas):
    return MultivariateDeviationModel(deltas, sigmas)


def _marginals(deltas, sigmas):
    """The scalar Lemma 2/3 models the joint model factorizes into."""
    return [
        DeviationModel(delta=d, sigma=s, reports=100, epsilon=1.0)
        for d, s in zip(deltas, sigmas)
    ]


class TestDensity:
    def test_pdf_is_product_of_marginals(self):
        model = _model([0.0, 0.5], [1.0, 2.0])
        first, second = _marginals([0.0, 0.5], [1.0, 2.0])
        x = np.array([0.3, -0.7])
        expected = first.pdf(x[0]) * second.pdf(x[1])
        assert model.pdf(x) == pytest.approx(float(expected))

    def test_logpdf_consistent(self):
        model = _model([0.1, -0.2, 0.0], [0.5, 1.5, 2.0])
        x = np.array([0.0, 0.1, -0.3])
        assert model.logpdf(x) == pytest.approx(math.log(model.pdf(x)))

    def test_pdf_peaks_at_delta(self):
        model = _model([0.5, -0.5], [1.0, 1.0])
        assert model.pdf(model.deltas) > model.pdf(np.array([0.0, 0.0]))

    def test_wrong_dimension_rejected(self):
        model = _model([0.0], [1.0])
        with pytest.raises(DimensionError):
            model.pdf(np.array([0.0, 0.0]))


class TestProbabilities:
    def test_box_probability_product(self):
        model = _model([0.0, 0.3], [1.0, 2.0])
        first, second = _marginals([0.0, 0.3], [1.0, 2.0])
        xi = 1.0
        expected = first.supremum_probability(xi) * second.supremum_probability(xi)
        assert model.box_probability(xi) == pytest.approx(expected, rel=1e-12)

    def test_all_outside_probability_product(self):
        model = _model([0.2, -0.1, 0.0], [0.5, 1.0, 2.0])
        marginals = _marginals([0.2, -0.1, 0.0], [0.5, 1.0, 2.0])
        xi = [0.4, 1.0, 1.5]
        expected = np.prod(
            [1.0 - m.supremum_probability(x) for m, x in zip(marginals, xi)]
        )
        assert model.all_outside_probability(xi) == pytest.approx(
            expected, rel=1e-12
        )

    def test_inside_plus_outside_is_one_per_dimension(self):
        model = _model([0.3], [1.2])
        xi = 0.7
        total = model.box_probability(xi) + model.all_outside_probability(xi)
        assert total == pytest.approx(1.0)

    def test_box_probability_per_dim_suprema(self):
        model = _model([0.0, 0.0], [1.0, 1.0])
        assert model.box_probability([1.0, 2.0]) > model.box_probability(1.0)

    def test_any_outside_complements_box(self):
        model = _model([0.0, 0.1], [1.0, 0.5])
        xi = 0.8
        assert model.any_outside_probability(xi) == pytest.approx(
            1.0 - model.box_probability(xi)
        )

    def test_all_outside_leq_any_outside(self):
        model = _model([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        xi = 0.5
        assert model.all_outside_probability(xi) <= model.any_outside_probability(xi)

    def test_monte_carlo_agreement(self, rng):
        model = _model([0.2, -0.1], [0.8, 1.2])
        xi = 1.0
        draws = model.sample(200_000, rng)
        inside = np.all(np.abs(draws) <= xi, axis=1).mean()
        assert inside == pytest.approx(model.box_probability(xi), abs=0.01)
        all_out = np.all(np.abs(draws) > xi, axis=1).mean()
        assert all_out == pytest.approx(model.all_outside_probability(xi), abs=0.01)

    def test_negative_suprema_rejected(self):
        with pytest.raises(ValueError):
            _model([0.0], [1.0]).box_probability(-1.0)

    def test_mismatched_suprema_rejected(self):
        with pytest.raises(DimensionError):
            _model([0.0, 0.0], [1.0, 1.0]).box_probability([1.0, 1.0, 1.0])

    def test_nan_suprema_rejected(self):
        model = _model([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            model.box_probability(float("nan"))
        with pytest.raises(ParameterError):
            model.all_outside_probability([1.0, float("nan"), 1.0])
        with pytest.raises(ParameterError):
            model.any_outside_probability([float("nan")] * 3)


class TestMsePrediction:
    def test_expected_squared_l2(self):
        model = _model([0.3, 0.0], [1.0, 2.0])
        assert model.expected_squared_l2() == pytest.approx(0.09 + 1.0 + 4.0)

    def test_predicted_mse_is_l2_over_d(self):
        model = _model([0.3, 0.0], [1.0, 2.0])
        assert model.predicted_mse() == pytest.approx(
            model.expected_squared_l2() / 2.0
        )

    def test_prediction_matches_simulation(self, rng):
        """Framework MSE prediction vs an actual end-to-end run."""
        from repro.analysis import mse, true_mean
        from repro.protocol import collect_means

        d, n, eps = 20, 5_000, 1.0
        data = rng.uniform(-1, 1, size=(n, d))
        mech = LaplaceMechanism()
        model = build_multivariate_model(mech, eps / d, n, None, ndim=d)
        observed = np.mean([
            mse(collect_means(mech, eps, data, rng).numeric_means(), true_mean(data))
            for _ in range(10)
        ])
        assert observed == pytest.approx(model.predicted_mse(), rel=0.25)


class TestBuilder:
    def test_shared_population_needs_ndim(self):
        with pytest.raises(DimensionError):
            build_multivariate_model(
                PiecewiseMechanism(), 0.1, 100, ValueDistribution.case_study()
            )

    def test_shared_population(self):
        model = build_multivariate_model(
            PiecewiseMechanism(), 0.1, 100, ValueDistribution.case_study(), ndim=5
        )
        assert model.ndim == 5
        assert np.allclose(model.sigmas, model.sigmas[0])

    def test_per_dimension_populations(self):
        pops = [
            ValueDistribution.point_mass(0.0),
            ValueDistribution.point_mass(0.9),
        ]
        model = build_multivariate_model(PiecewiseMechanism(), 0.5, 100, pops)
        assert model.ndim == 2
        # Piecewise variance grows with |t|, so dim 2's sigma is larger.
        assert model.sigmas[1] > model.sigmas[0]

    def test_ndim_disagreement_rejected(self):
        pops = [ValueDistribution.point_mass(0.0)]
        with pytest.raises(DimensionError):
            build_multivariate_model(PiecewiseMechanism(), 0.5, 100, pops, ndim=3)

    def test_unbounded_without_population(self):
        model = build_multivariate_model(LaplaceMechanism(), 0.5, 100, None, ndim=4)
        assert model.ndim == 4

    def test_empty_model_rejected(self):
        with pytest.raises(DimensionError):
            MultivariateDeviationModel([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            MultivariateDeviationModel([0.0, 0.0], [1.0])

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_sigma_rejected(self, sigma):
        with pytest.raises(DistributionError):
            MultivariateDeviationModel([0.0, 0.0], [1.0, sigma])

    def test_arrays_are_frozen_copies(self):
        sigmas = np.array([1.0, 2.0])
        model = MultivariateDeviationModel(np.zeros(2), sigmas)
        sigmas[0] = 5.0
        assert model.sigmas[0] == 1.0
        with pytest.raises(ValueError):
            model.deltas[0] = 1.0

    def test_shared_population_matches_scalar_model(self):
        pop = ValueDistribution.case_study()
        joint = build_multivariate_model(PiecewiseMechanism(), 0.1, 100, pop, ndim=3)
        scalar = build_deviation_model(PiecewiseMechanism(), 0.1, 100, pop)
        assert joint.deltas.tolist() == [scalar.delta] * 3
        assert joint.sigmas.tolist() == [scalar.sigma] * 3


@given(
    sigmas=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8
    ),
    xi=st.floats(min_value=0.01, max_value=20.0),
)
@settings(max_examples=40, deadline=None)
def test_property_probability_bounds(sigmas, xi):
    """Box/any/all probabilities always lie in [0, 1] and are consistent."""
    model = _model([0.0] * len(sigmas), sigmas)
    box = model.box_probability(xi)
    any_out = model.any_outside_probability(xi)
    all_out = model.all_outside_probability(xi)
    assert 0.0 <= box <= 1.0
    assert 0.0 <= all_out <= any_out + 1e-12
    assert any_out <= 1.0
    assert box + any_out == pytest.approx(1.0)
