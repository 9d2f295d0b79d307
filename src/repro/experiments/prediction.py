"""Theory-vs-experiment MSE prediction (the framework's headline promise).

Section III-B notes that ``MSE = ‖θ̂ − θ̄‖² / d``, "which means that the
theoretical analysis … can predict how MSE varies without conducting any
experiment". This driver makes that promise measurable: for each
(dataset, mechanism) pair it computes the Theorem 1 prediction
``Σ_j (δ_j² + σ_j²) / d`` and the average MSE of actual collection
rounds, and reports their ratio. A ratio near 1 across the whole grid is
the strongest single validation of the framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.metrics import mse, true_mean
from ..datasets.loader import load_dataset
from ..framework.multivariate import build_multivariate_model
from ..mechanisms.registry import get_mechanism
from ..protocol.budget import BudgetPlan
from ..protocol.pipeline import build_populations, collect_means
from ..rng import RngLike, ensure_rng, spawn_children

#: Default grid: one dataset per distribution family, all headline
#: mechanisms plus the extra unbounded ones the paper names.
DEFAULT_MECHANISMS = ("laplace", "staircase", "scdf", "duchi", "piecewise",
                      "hybrid", "square_wave")


@dataclass(frozen=True)
class PredictionRow:
    """Predicted vs measured MSE for one (dataset, mechanism) pair."""

    dataset: str
    mechanism: str
    predicted: float
    measured: float

    @property
    def ratio(self) -> float:
        """measured / predicted — the framework is validated near 1."""
        return self.measured / self.predicted


@dataclass(frozen=True)
class PredictionResult:
    """Grid of :class:`PredictionRow`."""

    epsilon: float
    users: int
    dimensions: int
    repeats: int
    rows: List[PredictionRow]

    def format(self) -> str:
        lines = [
            "# Framework MSE prediction vs experiment "
            "(eps=%g, n=%d, d=%d, %d repeats)"
            % (self.epsilon, self.users, self.dimensions, self.repeats),
            "dataset\tmechanism\tpredicted\tmeasured\tratio",
        ]
        for row in self.rows:
            lines.append(
                "%s\t%s\t%.4g\t%.4g\t%.3f"
                % (row.dataset, row.mechanism, row.predicted, row.measured,
                   row.ratio)
            )
        return "\n".join(lines)

    def worst_ratio_error(self) -> float:
        """Largest |ratio − 1| over the grid."""
        return max(abs(row.ratio - 1.0) for row in self.rows)


def run_mse_prediction(
    datasets: Sequence[str] = ("gaussian", "uniform"),
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    epsilon: float = 1.0,
    users: int = 20_000,
    dimensions: int = 50,
    repeats: int = 5,
    population_bins: int = 64,
    rng: RngLike = None,
) -> PredictionResult:
    """Evaluate predicted vs measured MSE over a (dataset, mechanism) grid.

    Parameters
    ----------
    datasets / mechanisms:
        Grid axes (registry names).
    epsilon:
        Collective budget (m = d, so ε/d per dimension).
    users / dimensions / repeats:
        Scale of the measurement.
    population_bins:
        Column discretization for the bounded-mechanism models.
    rng:
        Seed or generator.
    """
    gen = ensure_rng(rng)
    rows: List[PredictionRow] = []
    for dataset in datasets:
        data = load_dataset(dataset, users, dimensions, rng=gen)
        truth = true_mean(data)
        populations = build_populations(data, population_bins)
        for name in mechanisms:
            mech = get_mechanism(name)
            model = build_multivariate_model(
                mech,
                epsilon / dimensions,
                BudgetPlan(epsilon, dimensions, dimensions).expected_reports(users),
                populations if mech.bounded else None,
                ndim=dimensions,
            )
            measured = 0.0
            for child in spawn_children(gen, repeats):
                theta_hat = collect_means(mech, epsilon, data, child).numeric_means()
                measured += mse(theta_hat, truth)
            rows.append(
                PredictionRow(
                    dataset=dataset,
                    mechanism=name,
                    predicted=model.predicted_mse(),
                    measured=measured / repeats,
                )
            )
    return PredictionResult(
        epsilon=epsilon,
        users=users,
        dimensions=dimensions,
        repeats=repeats,
        rows=rows,
    )
