"""Small helpers shared across the test suite."""

from __future__ import annotations

#: Mechanisms with Bound(M) = 1.
BOUNDED_MECHANISMS = ("duchi", "piecewise", "hybrid", "square_wave",
                      "square_wave_unit")

#: Mechanisms with Bound(M) = 0.
UNBOUNDED_MECHANISMS = ("laplace", "staircase")

#: Mechanisms operating on the standard [-1, 1] domain.
STANDARD_MECHANISMS = ("laplace", "staircase", "duchi", "piecewise", "hybrid",
                       "square_wave")


def interior_value(mechanism, fraction=0.3):
    """A point strictly inside a mechanism's input domain."""
    lo, hi = mechanism.input_domain
    return lo + fraction * (hi - lo)


def full_report_model(mechanism, epsilon, users, dimensions, populations=None):
    """Theorem 1 model of an ``m = d`` round of ``users`` over ``dimensions``."""
    from repro.framework import build_multivariate_model
    from repro.protocol import BudgetPlan

    plan = BudgetPlan(epsilon, dimensions, dimensions)
    return build_multivariate_model(
        mechanism,
        plan.epsilon_per_dimension,
        plan.expected_reports(users),
        populations,
        ndim=dimensions,
    )
