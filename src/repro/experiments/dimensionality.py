"""Figure 5: MSE vs dimensionality on the COV-19(-like) dataset.

With ε = 0.8 fixed, the dimensionality varies over
{50, 100, 200, 400, 800, 1600}; dimensionalities above the base dataset's
750 columns are reached by resampling columns with replacement, exactly as
the paper does. Laplace and Piecewise are compared between the baseline
aggregation, HDR4ME-L1 and HDR4ME-L2.

Expected shape (paper Fig. 5): both regularizations beat the baseline at
every d; L2 keeps improving as d grows (the weights grow with the noise)
until the enhanced mean saturates near zero and its MSE flattens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.metrics import mse, true_mean
from ..datasets.covid import cov19_like, resample_dimensions
from ..framework.multivariate import build_multivariate_model
from ..hdr4me.recalibrator import Recalibrator
from ..mechanisms.registry import get_mechanism
from ..protocol.budget import BudgetPlan
from ..protocol.pipeline import build_populations, collect_means
from ..rng import RngLike, ensure_rng, spawn_children
from .base import SeriesRow, format_series
from .mse_sweep import SERIES_LABELS

#: Paper parameters for Fig. 5.
FIG5_EPSILON = 0.8
FIG5_DIMENSIONS: Tuple[int, ...] = (50, 100, 200, 400, 800, 1600)
FIG5_MECHANISMS: Tuple[str, ...] = ("laplace", "piecewise")


@dataclass(frozen=True)
class DimensionalitySweepResult:
    """One Fig. 5 panel: MSE series over the dimensionality grid."""

    mechanism: str
    epsilon: float
    users: int
    repeats: int
    rows: List[SeriesRow]

    def format(self) -> str:
        title = "Fig.5 %s on COV-19-like (eps=%g, n=%d, %d repeats)" % (
            self.mechanism,
            self.epsilon,
            self.users,
            self.repeats,
        )
        return format_series(title, "dimensions", SERIES_LABELS, self.rows)


def run_dimensionality_sweep(
    mechanism: str = "laplace",
    dimension_grid: Sequence[int] = FIG5_DIMENSIONS,
    epsilon: float = FIG5_EPSILON,
    users: Optional[int] = None,
    base_dimensions: int = 750,
    repeats: int = 3,
    population_bins: int = 32,
    rng: RngLike = None,
) -> DimensionalitySweepResult:
    """Regenerate one Fig. 5 panel.

    Parameters
    ----------
    mechanism:
        ``"laplace"`` or ``"piecewise"`` in the paper; any registered
        mechanism works.
    dimension_grid:
        Dimensionalities to evaluate (columns resampled from the base).
    epsilon:
        Fixed collective budget (paper: 0.8).
    users:
        User count; paper default 150,000.
    base_dimensions:
        Columns of the base COV-19-like dataset (paper: 750).
    repeats:
        Collection rounds averaged per dimensionality.
    """
    gen = ensure_rng(rng)
    mech = get_mechanism(mechanism)
    base = cov19_like(users or 150_000, base_dimensions, rng=gen)
    recalibrators = {
        "l1": Recalibrator(norm="l1"),
        "l2": Recalibrator(norm="l2"),
    }

    rows: List[SeriesRow] = []
    for dims in dimension_grid:
        data = resample_dimensions(base, int(dims), rng=gen)
        n, d = data.shape
        truth = true_mean(data)
        populations = (
            build_populations(data, population_bins) if mech.bounded else None
        )
        model = build_multivariate_model(
            mech,
            epsilon / d,
            BudgetPlan(epsilon, d, d).expected_reports(n),
            populations,
            ndim=d,
        )
        sums = {label: 0.0 for label in SERIES_LABELS}
        for child in spawn_children(gen, repeats):
            theta_hat = collect_means(mech, epsilon, data, child).numeric_means()
            sums["baseline"] += mse(theta_hat, truth)
            for label, recal in recalibrators.items():
                enhanced = recal.recalibrate(theta_hat, model)
                sums[label] += mse(enhanced.theta_star, truth)
        rows.append(
            SeriesRow(
                x=float(d),
                values={label: sums[label] / repeats for label in SERIES_LABELS},
            )
        )
    return DimensionalitySweepResult(
        mechanism=mechanism,
        epsilon=epsilon,
        users=base.shape[0],
        repeats=repeats,
        rows=rows,
    )
