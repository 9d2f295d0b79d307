"""Variance estimation under LDP (the paper's "other statistics" future work).

The conclusion names "other statistics estimation" as future work; the
natural first statistic beyond the mean is the per-dimension variance,
``Var_j = E[t_j²] − E[t_j]²``. This module implements the standard
budget-split reduction: each user spends ``ε/2`` reporting her value and
``ε/2`` reporting its square (mapped from ``[0, 1]`` back to the
mechanism's domain), both through :func:`~repro.protocol.collect_means` —
so the analytical framework and HDR4ME apply to *both* moment vectors,
and the re-calibrated moments compose into a re-calibrated variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import DimensionError
from ..framework.multivariate import build_multivariate_model
from ..hdr4me.recalibrator import Recalibrator
from ..mechanisms.base import AffineTransformedMechanism, Mechanism
from ..rng import RngLike, ensure_rng
from .budget import BudgetPlan
from .pipeline import build_populations, collect_means


def true_variance(data: np.ndarray) -> np.ndarray:
    """Exact per-dimension population variance (evaluation ground truth)."""
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError("data must be an (n, d) matrix")
    return matrix.var(axis=0)


@dataclass(frozen=True)
class VarianceEstimate:
    """Outcome of one variance-estimation round.

    Attributes
    ----------
    mean / second_moment:
        The two estimated moment vectors (after any re-calibration).
    variance:
        ``second_moment − mean²``, clipped below at zero (a valid
        variance can never be negative; perturbation noise can push the
        raw difference below zero).
    """

    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray


class VarianceEstimationPipeline:
    """Two-phase ε-LDP variance estimation for ``[−1, 1]`` data.

    Parameters
    ----------
    mechanism:
        Any mechanism on the standard domain; its square-reporting phase
        runs through an affine adapter on ``[0, 1]`` inputs.
    epsilon:
        Collective budget; split evenly between the two phases
        (sequential composition over the same user).
    dimensions:
        Data dimensionality ``d``.
    recalibrator:
        Optional HDR4ME recalibrator applied to *both* moment vectors.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        epsilon: float,
        dimensions: int,
        recalibrator: Optional[Recalibrator] = None,
    ) -> None:
        if tuple(mechanism.input_domain) != (-1.0, 1.0):
            raise DimensionError(
                "variance estimation expects a [-1, 1]-domain mechanism"
            )
        self.mechanism = mechanism
        # Squares live in [0, 1]; adapt the same mechanism to that domain.
        self.square_mechanism = AffineTransformedMechanism(mechanism, (0.0, 1.0))
        self.epsilon = float(epsilon)
        self.dimensions = int(dimensions)
        self.recalibrator = recalibrator
        #: The budget plan of each phase: ``ε/2`` over all ``d`` dimensions.
        self.plan = BudgetPlan(self.epsilon / 2.0, self.dimensions, self.dimensions)

    def run(self, data: np.ndarray, rng: RngLike = None) -> VarianceEstimate:
        """Collect both moments and assemble the variance estimate."""
        gen = ensure_rng(rng)
        matrix = np.asarray(data, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimensions:
            raise DimensionError(
                "expected (n, %d) data, got %s" % (self.dimensions, matrix.shape)
            )
        squares = matrix**2

        half = self.plan.epsilon
        mean = collect_means(self.mechanism, half, matrix, gen).numeric_means()
        second = collect_means(
            self.square_mechanism, half, squares, gen
        ).numeric_means()

        if self.recalibrator is not None:
            mean = self._recalibrate(self.mechanism, mean, matrix)
            second = self._recalibrate(self.square_mechanism, second, squares)

        variance = np.maximum(second - mean**2, 0.0)
        return VarianceEstimate(
            mean=mean, second_moment=second, variance=variance
        )

    def _recalibrate(
        self, mechanism: Mechanism, theta_hat: np.ndarray, data: np.ndarray
    ) -> np.ndarray:
        """HDR4ME on one moment vector with its Theorem 1 model."""
        model = build_multivariate_model(
            mechanism,
            self.plan.epsilon_per_dimension,
            self.plan.expected_reports(data.shape[0]),
            build_populations(data) if mechanism.bounded else None,
            ndim=self.dimensions,
        )
        return self.recalibrator.recalibrate(theta_hat, model).theta_star
