"""Failure-injection tests: adversarial and degenerate inputs across the stack.

A production library must fail loudly (typed exceptions) or degrade
gracefully (finite outputs) — never emit silently-wrong statistics. These
tests feed NaNs, infinities, extreme budgets and pathological shapes into
every layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DomainError,
    PrivacyBudgetError,
    Recalibrator,
    ReproError,
    ValueDistribution,
    collect_means,
    get_mechanism,
)
from repro.exceptions import CalibrationError, DistributionError
from repro.framework import DeviationModel, MultivariateDeviationModel


class TestMechanismInputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad, rng):
        mech = get_mechanism("piecewise")
        with pytest.raises(ReproError):
            mech.perturb(np.array([bad]), 1.0, rng)

    @pytest.mark.parametrize("bad_eps", [0.0, -3.0, float("nan"), float("inf")])
    def test_bad_budgets_rejected_everywhere(self, bad_eps, rng):
        mech = get_mechanism("laplace")
        with pytest.raises(PrivacyBudgetError):
            mech.perturb(np.zeros(2), bad_eps, rng)
        with pytest.raises(PrivacyBudgetError):
            mech.conditional_variance(np.zeros(2), bad_eps)

    def test_tiny_budget_stays_finite(self, rng):
        # eps = 1e-6: enormous noise, but never NaN/inf from the sampler
        # of any bounded mechanism (unbounded ones have huge-but-finite
        # scale parameters).
        for name in ("duchi", "piecewise", "hybrid", "square_wave"):
            out = get_mechanism(name).perturb(np.zeros(1000), 1e-6, rng)
            assert np.all(np.isfinite(out)), name

    def test_object_dtype_coerced_or_rejected(self, rng):
        mech = get_mechanism("laplace")
        out = mech.perturb([0.1, 0.2], 1.0, rng)  # plain list
        assert out.shape == (2,)
        with pytest.raises((ReproError, ValueError, TypeError)):
            mech.perturb(np.array(["a", "b"]), 1.0, rng)


class TestPipelineInputs:
    def test_nan_data_rejected_before_collection(self, rng):
        data = rng.uniform(-1, 1, size=(10, 3))
        data[4, 1] = np.nan
        with pytest.raises(ReproError):
            collect_means(get_mechanism("piecewise"), 1.0, data, rng)

    def test_out_of_domain_data_rejected(self, rng):
        with pytest.raises(DomainError):
            collect_means(get_mechanism("piecewise"), 1.0, np.full((5, 2), 3.0), rng)

    def test_single_user_dataset(self, rng):
        estimate = collect_means(get_mechanism("laplace"), 1.0, np.zeros((1, 2)), rng)
        assert estimate.users == 1
        assert np.all(np.isfinite(estimate.numeric_means()))

    def test_single_dimension(self, rng):
        data = rng.uniform(-1, 1, size=(100, 1))
        estimate = collect_means(get_mechanism("laplace"), 1.0, data, rng)
        assert estimate.numeric_means().shape == (1,)


class TestFrameworkInputs:
    def test_nan_probabilities_rejected(self):
        with pytest.raises(DistributionError):
            ValueDistribution(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))

    def test_recalibrator_rejects_nan_lambdas(self):
        model = MultivariateDeviationModel([0.0], [1.0])
        # A NaN estimate propagates into the plug-in lambda path; the
        # solver must reject non-finite weights rather than emit NaN.
        from repro.hdr4me.solvers import recalibrate_l1

        with pytest.raises(CalibrationError):
            recalibrate_l1(np.array([0.0]), np.array([np.nan]))

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DistributionError):
            DeviationModel(delta=0.0, sigma=float("nan"), reports=10, epsilon=1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_degenerate_joint_sigma_rejected(self, sigma):
        with pytest.raises(DistributionError):
            MultivariateDeviationModel([0.0, 0.0], [1.0, sigma])

    def test_recalibration_of_nan_estimate_contained(self):
        # NaN theta_hat: L1 soft-threshold of NaN is NaN; the library
        # cannot invent data, but it must not corrupt other dimensions.
        model = MultivariateDeviationModel([0.0, 0.0], [1.0, 1.0])
        result = Recalibrator(norm="l1").recalibrate(
            np.array([np.nan, 5.0]), model
        )
        assert np.isfinite(result.theta_star[1])


class TestExtremeScales:
    def test_huge_dimension_count_models(self):
        # 10k-dimension analytical model: must be fast and finite.
        joint = MultivariateDeviationModel(np.zeros(10_000), np.ones(10_000))
        assert 0.0 <= joint.box_probability(1.0) <= 1.0
        assert np.isfinite(joint.predicted_mse())

    def test_box_probability_underflow_handled(self):
        # 5000 dimensions each with probability ~0.68 => product ~1e-830,
        # far below float range; must return 0.0, not raise.
        joint = MultivariateDeviationModel(np.zeros(5_000), np.ones(5_000))
        p = joint.box_probability(1.0)
        assert p == 0.0 or np.isfinite(p)
        assert joint.all_outside_probability(1.0) == 0.0

    def test_huge_budget_pipeline(self, rng):
        # Essentially no privacy: the estimate must equal the mean.
        data = rng.uniform(-1, 1, size=(500, 3))
        estimate = collect_means(get_mechanism("piecewise"), 1e4, data, rng)
        np.testing.assert_allclose(estimate.numeric_means(), data.mean(axis=0),
                                   atol=0.02)
