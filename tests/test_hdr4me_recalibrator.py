"""Tests for the HDR4ME Recalibrator façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CalibrationError
from repro.framework import MultivariateDeviationModel
from repro.hdr4me import (
    ProximalGradientSolver,
    Recalibrator,
    get_regularizer,
    recalibrate_l1,
    recalibrate_l2,
)


def _model(sigmas, deltas=None):
    deltas = deltas or [0.0] * len(sigmas)
    return MultivariateDeviationModel(deltas, sigmas)


class TestConfiguration:
    def test_invalid_norm(self):
        with pytest.raises(CalibrationError):
            Recalibrator(norm="l3")

    def test_invalid_confidence(self):
        with pytest.raises(CalibrationError):
            Recalibrator(confidence=1.5)

    @pytest.mark.parametrize("floor", [0.0, -0.1, float("nan"), float("inf")])
    def test_invalid_floor_rejected_at_construction(self, floor):
        with pytest.raises(CalibrationError):
            Recalibrator(norm="l2", floor=floor)

    def test_dimension_mismatch(self):
        with pytest.raises(CalibrationError):
            Recalibrator().recalibrate(np.zeros(3), _model([1.0, 1.0]))


class TestL1Behaviour:
    def test_matches_closed_form(self):
        model = _model([2.0, 2.0, 2.0])
        theta = np.array([10.0, 1.0, -9.0])
        result = Recalibrator(norm="l1").recalibrate(theta, model)
        expected = recalibrate_l1(theta, result.lambdas)
        np.testing.assert_allclose(result.theta_star, expected)

    def test_suppresses_noise_dimensions(self):
        model = _model([5.0, 5.0])
        # Both estimates are inside the noise envelope -> zeroed.
        result = Recalibrator(norm="l1").recalibrate(np.array([2.0, -3.0]), model)
        np.testing.assert_array_equal(result.theta_star, [0.0, 0.0])
        assert result.suppressed_dimensions == 2

    def test_keeps_strong_signal(self):
        model = _model([0.01, 0.01])
        result = Recalibrator(norm="l1").recalibrate(np.array([0.9, 0.0]), model)
        assert result.theta_star[0] > 0.8
        assert result.theta_star[1] == 0.0

    def test_guarantee_attached(self):
        model = _model([10.0, 10.0])
        result = Recalibrator(norm="l1").recalibrate(np.zeros(2), model)
        assert result.guarantee.norm == "l1"
        assert result.guarantee.paper_bound > 0.9


class TestL2Behaviour:
    def test_matches_closed_form(self):
        model = _model([2.0, 2.0])
        theta = np.array([5.0, -5.0])
        result = Recalibrator(norm="l2").recalibrate(theta, model)
        expected = recalibrate_l2(theta, result.lambdas)
        np.testing.assert_allclose(result.theta_star, expected)

    def test_shrinks_but_never_flips_sign(self):
        model = _model([3.0, 3.0, 3.0])
        theta = np.array([4.0, -2.0, 0.5])
        result = Recalibrator(norm="l2").recalibrate(theta, model)
        assert np.all(np.abs(result.theta_star) <= np.abs(theta))
        assert np.all(result.theta_star * theta >= 0.0)

    def test_huge_noise_drives_estimates_to_zero(self):
        # The paper's observed extreme-d behaviour.
        model = _model([100.0, 100.0])
        theta = np.array([0.9, -0.9])
        result = Recalibrator(norm="l2").recalibrate(theta, model)
        assert np.max(np.abs(result.theta_star)) < 0.01

    def test_reference_mean_changes_weights(self):
        model = _model([2.0, 2.0])
        theta = np.array([0.5, 0.5])
        plugin = Recalibrator(norm="l2").recalibrate(theta, model)
        informed = Recalibrator(norm="l2").recalibrate(
            theta, model, reference_mean=np.array([1.0, 1.0])
        )
        # A larger reference mean -> smaller lambda -> less shrinkage.
        assert np.all(np.abs(informed.theta_star) >= np.abs(plugin.theta_star))


class TestPGDPath:
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_pgd_equals_closed_form(self, norm, rng):
        model = _model(list(rng.uniform(0.5, 3.0, size=16)))
        theta = rng.normal(scale=4.0, size=16)
        closed = Recalibrator(norm=norm).recalibrate(theta, model)
        lambdas = Recalibrator(norm=norm).select_lambdas(theta, model)
        iterative = ProximalGradientSolver(get_regularizer(norm)).solve(
            theta, lambdas
        )
        np.testing.assert_allclose(closed.theta_star, iterative.theta, atol=1e-9)


class TestDeviationReduction:
    """Lemma 4's statement checked mechanically on simulated deviations."""

    def test_l1_improves_when_threshold_met(self, rng):
        # sigma large enough that |theta_hat - theta_bar| > 1 typically.
        sigma = 5.0
        model = _model([sigma] * 200)
        theta_bar = rng.uniform(-1, 1, 200)
        theta_hat = theta_bar + rng.normal(0, sigma, 200)
        result = Recalibrator(norm="l1").recalibrate(theta_hat, model)
        before = np.linalg.norm(theta_hat - theta_bar)
        after = np.linalg.norm(result.theta_star - theta_bar)
        assert after < before

    def test_l2_improves_when_threshold_met(self, rng):
        sigma = 5.0
        model = _model([sigma] * 200)
        theta_bar = rng.uniform(-1, 1, 200)
        theta_hat = theta_bar + rng.normal(0, sigma, 200)
        result = Recalibrator(norm="l2").recalibrate(theta_hat, model)
        before = np.linalg.norm(theta_hat - theta_bar)
        after = np.linalg.norm(result.theta_star - theta_bar)
        assert after < before
