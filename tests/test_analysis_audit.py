"""Tests for the empirical ε-LDP auditor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import audit_mechanism
from repro.exceptions import DimensionError
from repro.mechanisms import LaplaceMechanism, Mechanism, get_mechanism


class TestShippedMechanismsPass:
    @pytest.mark.parametrize(
        "name",
        ["laplace", "staircase", "scdf", "duchi", "piecewise", "hybrid",
         "square_wave", "square_wave_unit"],
    )
    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_audit_within_budget(self, name, epsilon, rng):
        result = audit_mechanism(
            get_mechanism(name), epsilon, samples=120_000, rng=rng
        )
        assert result.bins_scored > 0
        assert result.satisfied_with_slack(1.2), (
            name,
            epsilon,
            result.max_log_ratio,
        )

    def test_extreme_pair_ratio_is_tight_for_piecewise(self, rng):
        # The bound is achieved (not just respected) between the domain
        # endpoints: the audit should measure a ratio close to e^eps.
        eps = 1.5
        result = audit_mechanism(
            get_mechanism("piecewise"),
            eps,
            inputs=(-1.0, 1.0),
            samples=300_000,
            rng=rng,
        )
        assert result.max_log_ratio > 0.75 * eps


class TestAuditorCatchesViolations:
    def test_flags_mechanism_lying_about_budget(self, rng):
        # A "mechanism" that spends half the declared budget's noise:
        # perturbs with eps' = 4*eps (too little noise for the claim).
        class Cheater(LaplaceMechanism):
            def sample_noise(self, size, epsilon, rng=None):
                return super().sample_noise(size, 4.0 * epsilon, rng)

        result = audit_mechanism(Cheater(), 0.5, samples=200_000, rng=rng)
        assert not result.satisfied_with_slack(1.2)

    def test_flags_biased_sampler(self, rng):
        # Deterministic (non-private) release must blow the ratio up.
        class Leaky(Mechanism):
            name = "leaky"
            bounded = True

            def _sample(self, arr, epsilon, gen):
                return arr

            def conditional_bias(self, values, epsilon):
                return np.zeros_like(np.asarray(values, dtype=np.float64))

            def conditional_variance(self, values, epsilon):
                return np.ones_like(np.asarray(values, dtype=np.float64))

            def output_support(self, epsilon):
                return (-1.0, 1.0)

        result = audit_mechanism(Leaky(), 1.0, samples=50_000, rng=rng)
        # Disjoint supports -> no shared bins with mass on both sides, or
        # (with the midpoint input) enormous ratios. Either signal works:
        assert result.bins_scored == 0 or not result.satisfied_with_slack(2.0)


class TestValidation:
    def test_needs_enough_samples(self, rng):
        with pytest.raises(DimensionError):
            audit_mechanism(LaplaceMechanism(), 1.0, samples=10, rng=rng)

    def test_needs_two_inputs(self, rng):
        with pytest.raises(DimensionError):
            audit_mechanism(LaplaceMechanism(), 1.0, inputs=(0.0,), rng=rng)

    def test_result_fields(self, rng):
        result = audit_mechanism(
            LaplaceMechanism(), 1.0, samples=50_000, rng=rng
        )
        assert result.epsilon == 1.0
        assert len(result.worst_pair) == 2
        assert isinstance(result.satisfied, bool)
