"""User-side of the LDP collection protocol.

A :class:`Client` performs the paper's perturbation step for one user:
uniformly sample ``m`` of the ``d`` dimensions, perturb each sampled value
with the per-dimension budget ``ε/m``, and emit a :class:`Report` carrying
only the perturbed values — the original tuple never leaves the user.

:func:`~repro.protocol.collect_means` runs the vectorized session path
for speed; :class:`Client` is the reference per-user implementation
(the two are cross-checked in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DimensionError
from ..mechanisms.base import Mechanism, validate_values
from ..rng import RngLike, ensure_rng
from .budget import BudgetPlan


@dataclass(frozen=True)
class Report:
    """One user's perturbed submission.

    Attributes
    ----------
    dimensions:
        Indices of the ``m`` sampled dimensions.
    values:
        The perturbed values, aligned with ``dimensions``.
    """

    dimensions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dims = np.asarray(self.dimensions, dtype=np.int64).ravel()
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if dims.shape != vals.shape:
            raise DimensionError(
                "report dimensions and values disagree: %d vs %d"
                % (dims.size, vals.size)
            )
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "values", vals)


class Client:
    """Local perturbation agent for one user.

    Parameters
    ----------
    mechanism:
        The LDP mechanism to perturb with.
    plan:
        The budget plan (``ε``, ``d``, ``m``) shared with the collector.
    """

    def __init__(self, mechanism: Mechanism, plan: BudgetPlan) -> None:
        self.mechanism = mechanism
        self.plan = plan

    def report(self, tuple_values: np.ndarray, rng: RngLike = None) -> Report:
        """Sample, perturb and package one user's tuple.

        Parameters
        ----------
        tuple_values:
            The user's private ``d``-dimensional tuple.
        rng:
            Seed or generator for both the dimension sampling and the
            perturbation noise.
        """
        gen = ensure_rng(rng)
        values = validate_values(tuple_values, self.mechanism.input_domain)
        if values.ndim != 1 or values.size != self.plan.dimensions:
            raise DimensionError(
                "tuple must have %d dimensions, got shape %s"
                % (self.plan.dimensions, np.shape(tuple_values))
            )
        chosen = gen.choice(
            self.plan.dimensions, size=self.plan.sampled_dimensions, replace=False
        )
        chosen.sort()
        perturbed = self.mechanism.perturb(
            values[chosen], self.plan.epsilon_per_dimension, gen
        )
        return Report(dimensions=chosen, values=perturbed)
