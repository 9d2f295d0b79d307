"""Tests for the SCDF mechanism (staircase with γ = 1/2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanisms import (
    LaplaceMechanism,
    SCDFMechanism,
    StaircaseMechanism,
    get_mechanism,
    monte_carlo_moments,
)


class TestIdentity:
    def test_registered(self):
        mech = get_mechanism("scdf")
        assert isinstance(mech, SCDFMechanism)
        assert not mech.bounded

    def test_gamma_fixed_at_half(self):
        assert SCDFMechanism().gamma == 0.5

    def test_is_a_staircase(self):
        assert isinstance(SCDFMechanism(), StaircaseMechanism)


class TestMoments:
    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_variance_matches_monte_carlo(self, eps, rng):
        mech = SCDFMechanism()
        _, var_mc = monte_carlo_moments(mech, 0.1, eps, 300_000, rng)
        assert var_mc == pytest.approx(mech.noise_variance(eps), rel=0.03)

    def test_beats_laplace_at_moderate_eps(self):
        # SCDF's optimality claim: lower variance than Laplace for eps
        # large enough that the step structure pays off.
        for eps in (2.0, 4.0):
            assert (
                SCDFMechanism().noise_variance(eps)
                < LaplaceMechanism().noise_variance(eps)
            )

    def test_optimal_staircase_at_least_as_good(self):
        # Geng et al.'s gamma*(eps) optimizes over the family containing
        # gamma = 1/2, so it can never be worse.
        for eps in (0.3, 1.0, 3.0):
            assert (
                StaircaseMechanism().noise_variance(eps)
                <= SCDFMechanism().noise_variance(eps) + 1e-12
            )

    def test_unbiased(self, rng):
        bias, _ = monte_carlo_moments(SCDFMechanism(), -0.6, 1.0, 200_000, rng)
        assert bias == pytest.approx(0.0, abs=0.05)


class TestFrameworkIntegration:
    def test_deviation_model_lemma2(self):
        from repro.framework import build_deviation_model

        mech = SCDFMechanism()
        model = build_deviation_model(mech, 0.5, 1000)
        assert model.sigma == pytest.approx(
            np.sqrt(mech.noise_variance(0.5) / 1000)
        )

    def test_pipeline_end_to_end(self, rng):
        from repro.analysis import mse, true_mean
        from repro.protocol import collect_means

        data = rng.uniform(-1, 1, size=(20_000, 5))
        estimate = collect_means(SCDFMechanism(), 10.0, data, rng)
        assert mse(estimate.numeric_means(), true_mean(data)) < 0.01
