"""Ablations of HDR4ME's design choices (Section V discussion).

Three studies the paper's analysis calls for but does not tabulate:

* **Envelope confidence** — the paper's λ* is "sup |θ̂ − θ̄|"; we realize
  the sup as a Gaussian envelope ``|δ| + z·σ``. Sweeping the confidence
  shows how sensitive the enhancement is to that reading.
* **Harmful regime** — "If the number of dimensions is not high or the
  collective privacy budget is rather large … our re-calibration can be
  harmful." The ablation evaluates HDR4ME across a (d, ε) grid and
  reports where the enhanced/baseline MSE ratio crosses 1.
* **PGD vs closed form** — the one-off solvers (Eq. 34/42) must coincide
  with converged proximal gradient descent; the ablation reports the max
  divergence and iteration counts (1 expected for the quadratic loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.metrics import mse, true_mean
from ..datasets.synthetic import gaussian_dataset
from ..framework.multivariate import build_multivariate_model
from ..hdr4me.recalibrator import Recalibrator
from ..hdr4me.regularizers import get_regularizer
from ..hdr4me.solvers import (
    ProximalGradientSolver,
    recalibrate_l1,
    recalibrate_l2,
)
from ..mechanisms.registry import get_mechanism
from ..protocol.budget import BudgetPlan
from ..protocol.pipeline import build_populations, collect_means
from ..rng import RngLike, ensure_rng
from .base import SeriesRow, format_series


@dataclass(frozen=True)
class ConfidenceAblationResult:
    """MSE of L1/L2 across envelope confidences (baseline alongside)."""

    mechanism: str
    epsilon: float
    baseline_mse: float
    rows: List[SeriesRow]

    def format(self) -> str:
        title = "Envelope-confidence ablation (%s, eps=%g, baseline MSE %.4g)" % (
            self.mechanism,
            self.epsilon,
            self.baseline_mse,
        )
        return format_series(title, "confidence", ("l1", "l2"), self.rows)


def run_confidence_ablation(
    mechanism: str = "piecewise",
    epsilon: float = 0.4,
    users: int = 20_000,
    dimensions: int = 100,
    confidences: Sequence[float] = (0.9, 0.99, 0.9973, 0.9999),
    rng: RngLike = None,
) -> ConfidenceAblationResult:
    """Sweep the envelope confidence backing the λ* "sup"."""
    gen = ensure_rng(rng)
    mech = get_mechanism(mechanism)
    data = gaussian_dataset(users, dimensions, rng=gen)
    truth = true_mean(data)
    theta_hat = collect_means(mech, epsilon, data, gen).numeric_means()
    model = build_multivariate_model(
        mech,
        epsilon / dimensions,
        BudgetPlan(epsilon, dimensions, dimensions).expected_reports(users),
        build_populations(data) if mech.bounded else None,
        ndim=dimensions,
    )
    baseline = mse(theta_hat, truth)

    rows = []
    for confidence in confidences:
        values = {}
        for norm in ("l1", "l2"):
            recal = Recalibrator(norm=norm, confidence=confidence)
            enhanced = recal.recalibrate(theta_hat, model)
            values[norm] = mse(enhanced.theta_star, truth)
        rows.append(SeriesRow(x=float(confidence), values=values))
    return ConfidenceAblationResult(
        mechanism=mechanism,
        epsilon=epsilon,
        baseline_mse=baseline,
        rows=rows,
    )


@dataclass(frozen=True)
class HarmfulRegimeResult:
    """Enhanced/baseline MSE ratios over a (dimensions, ε) grid.

    Ratios < 1 mean HDR4ME helps; > 1 means it hurts — the paper predicts
    hurt at low d / large ε where the Lemma 4/5 thresholds are not met.
    """

    mechanism: str
    norm: str
    dimension_grid: Tuple[int, ...]
    epsilon_grid: Tuple[float, ...]
    ratios: np.ndarray  # shape (len(dimension_grid), len(epsilon_grid))

    def format(self) -> str:
        lines = [
            "# Harmful-regime ablation: %s / %s — MSE(enhanced)/MSE(baseline)"
            % (self.mechanism, self.norm),
            "d\\eps\t" + "\t".join("%g" % e for e in self.epsilon_grid),
        ]
        for d, row in zip(self.dimension_grid, self.ratios):
            lines.append("%d\t" % d + "\t".join("%.3f" % v for v in row))
        return "\n".join(lines)


def run_harmful_regime(
    mechanism: str = "laplace",
    norm: str = "l1",
    dimension_grid: Sequence[int] = (5, 50, 500),
    epsilon_grid: Sequence[float] = (0.2, 1.0, 5.0, 20.0),
    users: int = 20_000,
    rng: RngLike = None,
) -> HarmfulRegimeResult:
    """Map where HDR4ME helps vs hurts across (d, ε).

    The dataset gives *every* grid point substantial true signal
    (half the dimensions at mean 0.9): with no signal, shrinkage would
    trivially help everywhere and the harmful corner would never show.
    """
    gen = ensure_rng(rng)
    mech = get_mechanism(mechanism)
    recal = Recalibrator(norm=norm)
    dims = tuple(int(d) for d in dimension_grid)
    epsilons = tuple(float(e) for e in epsilon_grid)
    ratios = np.empty((len(dims), len(epsilons)))
    for i, d in enumerate(dims):
        data = gaussian_dataset(users, d, high_fraction=0.5, rng=gen)
        truth = true_mean(data)
        populations = build_populations(data) if mech.bounded else None
        for j, epsilon in enumerate(epsilons):
            model = build_multivariate_model(
                mech,
                epsilon / d,
                BudgetPlan(epsilon, d, d).expected_reports(users),
                populations,
                ndim=d,
            )
            theta_hat = collect_means(mech, epsilon, data, gen).numeric_means()
            enhanced = recal.recalibrate(theta_hat, model)
            baseline = mse(theta_hat, truth)
            ratios[i, j] = mse(enhanced.theta_star, truth) / baseline
    return HarmfulRegimeResult(
        mechanism=mechanism,
        norm=norm,
        dimension_grid=dims,
        epsilon_grid=epsilons,
        ratios=ratios,
    )


@dataclass(frozen=True)
class SolverEquivalenceResult:
    """Closed form vs PGD: max divergence and iterations, per norm."""

    max_divergence_l1: float
    max_divergence_l2: float
    iterations_l1: int
    iterations_l2: int

    def format(self) -> str:
        return (
            "# One-off solver vs proximal gradient descent\n"
            "l1: max|closed - pgd| = %.3g in %d iteration(s)\n"
            "l2: max|closed - pgd| = %.3g in %d iteration(s)"
            % (
                self.max_divergence_l1,
                self.iterations_l1,
                self.max_divergence_l2,
                self.iterations_l2,
            )
        )


def run_solver_equivalence(
    dimensions: int = 500,
    scale: float = 10.0,
    rng: RngLike = None,
) -> SolverEquivalenceResult:
    """Check Eq. 34/42 against converged PGD on random inputs."""
    gen = ensure_rng(rng)
    theta_hat = gen.normal(scale=scale, size=dimensions)
    lambdas = np.abs(gen.normal(scale=scale, size=dimensions))

    closed_l1 = recalibrate_l1(theta_hat, lambdas)
    pgd_l1 = ProximalGradientSolver(get_regularizer("l1")).solve(theta_hat, lambdas)
    closed_l2 = recalibrate_l2(theta_hat, lambdas)
    pgd_l2 = ProximalGradientSolver(get_regularizer("l2")).solve(theta_hat, lambdas)

    return SolverEquivalenceResult(
        max_divergence_l1=float(np.max(np.abs(closed_l1 - pgd_l1.theta))),
        max_divergence_l2=float(np.max(np.abs(closed_l2 - pgd_l2.theta))),
        iterations_l1=pgd_l1.iterations,
        iterations_l2=pgd_l2.iterations,
    )
