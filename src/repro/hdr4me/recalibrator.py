"""The HDR4ME re-calibration façade (Section V-B).

:class:`Recalibrator` packages the whole protocol step the paper adds at
the collector: choose λ* from the analytical framework (Lemma 4 or 5),
apply the one-off solver (Eq. 34 or Eq. 42), and report the theoretical
improvement guarantee (Theorem 3 or 4). It is deliberately independent of
the perturbation mechanism — it consumes only the estimated mean and the
framework's deviation model, which is the paper's central design point
("without making any change to [the LDP mechanisms]").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import CalibrationError
from ..framework.multivariate import MultivariateDeviationModel
from .lambda_select import (
    DEFAULT_CONFIDENCE,
    DEFAULT_FLOOR,
    ImprovementGuarantee,
    improvement_guarantee,
    l1_lambda,
    l2_lambda,
)
from .solvers import recalibrate_l1, recalibrate_l2


@dataclass(frozen=True)
class RecalibrationResult:
    """Everything produced by one HDR4ME application.

    Attributes
    ----------
    theta_star:
        The enhanced mean ``θ*``.
    theta_hat:
        The input estimated mean ``θ̂`` (kept for convenience).
    lambdas:
        The λ* vector actually used.
    norm:
        ``"l1"`` or ``"l2"``.
    guarantee:
        The Theorem 3/4 probability statement for the supplied model.
    suppressed_dimensions:
        Count of dimensions set exactly to zero (L1 sparsification).
    """

    theta_star: np.ndarray
    theta_hat: np.ndarray
    lambdas: np.ndarray
    norm: str
    guarantee: ImprovementGuarantee
    suppressed_dimensions: int


class Recalibrator:
    """One-off HDR4ME re-calibration with framework-driven λ*.

    Parameters
    ----------
    norm:
        ``"l1"`` (soft-threshold; reduces dimensions and scale) or
        ``"l2"`` (shrinkage; reduces scale only).
    confidence:
        Confidence of the deviation envelope standing in for the paper's
        ``sup|θ̂ − θ̄|`` (default ≈ 3σ).
    floor:
        L2 only — floor on the |θ̄| proxy in the weight denominator
        (finite and positive).
    """

    def __init__(
        self,
        norm: str = "l1",
        confidence: float = DEFAULT_CONFIDENCE,
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        key = norm.lower()
        if key not in ("l1", "l2"):
            raise CalibrationError("norm must be 'l1' or 'l2', got %r" % norm)
        if not 0.0 < confidence < 1.0:
            raise CalibrationError(
                "confidence must lie in (0, 1), got %g" % confidence
            )
        if not (math.isfinite(floor) and floor > 0.0):
            raise CalibrationError(
                "floor must be finite and positive, got %g" % floor
            )
        self.norm = key
        self.confidence = float(confidence)
        self.floor = float(floor)

    def select_lambdas(
        self,
        theta_hat: np.ndarray,
        model: MultivariateDeviationModel,
        reference_mean: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return the λ* vector for ``theta_hat`` under this configuration."""
        if self.norm == "l1":
            return l1_lambda(model, self.confidence)
        return l2_lambda(
            model,
            theta_hat=theta_hat,
            reference_mean=reference_mean,
            confidence=self.confidence,
            floor=self.floor,
        )

    def recalibrate(
        self,
        theta_hat: np.ndarray,
        model: MultivariateDeviationModel,
        reference_mean: Optional[np.ndarray] = None,
    ) -> RecalibrationResult:
        """Apply HDR4ME to an estimated mean.

        Parameters
        ----------
        theta_hat:
            The aggregated (and, where applicable, calibrated) mean from
            any LDP mechanism.
        model:
            The Theorem 1 deviation model for the mechanism/budget/reports
            configuration that produced ``theta_hat``.
        reference_mean:
            Optional prior on the true mean (L2 weight denominator).
        """
        theta = np.asarray(theta_hat, dtype=np.float64).ravel()
        if theta.size != model.ndim:
            raise CalibrationError(
                "theta_hat has %d entries, model has %d dimensions"
                % (theta.size, model.ndim)
            )
        lambdas = self.select_lambdas(theta, model, reference_mean)
        if self.norm == "l1":
            theta_star = recalibrate_l1(theta, lambdas)
        else:
            theta_star = recalibrate_l2(theta, lambdas)
        return RecalibrationResult(
            theta_star=theta_star,
            theta_hat=theta,
            lambdas=lambdas,
            norm=self.norm,
            guarantee=improvement_guarantee(model, self.norm),
            suppressed_dimensions=int(np.sum(theta_star == 0.0)),
        )
