"""Privacy-budget accounting for the collection protocol (Section III-B).

The paper's protocol: each user holds a ``d``-dimensional tuple, reports a
uniformly random subset of ``m`` dimensions, and spends ``ε/m`` on each so
the parallel composition over the reported dimensions totals ``ε``. For
frequency estimation the per-entry budget halves to ``ε/2m`` because a
category change flips two histogram-encoded entries. :class:`BudgetPlan`
centralizes that arithmetic (and its validation) so every pipeline and
experiment shares one implementation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..exceptions import DimensionError, PrivacyBudgetError
from ..mechanisms.base import validate_epsilon


@dataclass(frozen=True)
class BudgetPlan:
    """How a collective budget ``ε`` is split across reported dimensions.

    Attributes
    ----------
    epsilon:
        The collective per-user privacy budget.
    dimensions:
        Total number of dimensions ``d`` in a user's tuple.
    sampled_dimensions:
        Number of dimensions ``m`` each user reports (``1 ≤ m ≤ d``).
    """

    epsilon: float
    dimensions: int
    sampled_dimensions: int

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        for name in ("dimensions", "sampled_dimensions"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DimensionError(
                    "%s must be an integer, got %r" % (name, value)
                ) from None
        if self.dimensions < 1:
            raise DimensionError(
                "dimensions must be >= 1, got %d" % self.dimensions
            )
        if not 1 <= self.sampled_dimensions <= self.dimensions:
            raise DimensionError(
                "sampled_dimensions must lie in [1, %d], got %d"
                % (self.dimensions, self.sampled_dimensions)
            )

    @property
    def epsilon_per_dimension(self) -> float:
        """Mean-estimation per-dimension budget ``ε/m``."""
        return self.epsilon / self.sampled_dimensions

    @property
    def epsilon_per_entry(self) -> float:
        """Frequency-estimation per-entry budget ``ε/2m`` (Section V-C)."""
        return self.epsilon / (2.0 * self.sampled_dimensions)

    def expected_reports(self, users: int) -> int:
        """Expected reports per dimension ``r = n·m/d``.

        Rounded to the nearest integer (and floored at 1) for use as the
        ``r`` of the analytical framework.
        """
        if users < 1:
            raise PrivacyBudgetError("users must be >= 1, got %d" % users)
        expected = users * self.sampled_dimensions / self.dimensions
        return max(1, int(round(expected)))

    def scaled(self, epsilon: float) -> "BudgetPlan":
        """A copy of this plan with a different collective budget."""
        return BudgetPlan(
            epsilon=epsilon,
            dimensions=self.dimensions,
            sampled_dimensions=self.sampled_dimensions,
        )
