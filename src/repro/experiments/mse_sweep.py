"""Figure 4 (a)–(l): MSE vs privacy budget, per dataset and mechanism.

For each of the four Section VI datasets and each of the three headline
mechanisms, sweep the collective budget ε and report the MSE of the
baseline aggregation against HDR4ME with L1 and with L2. The paper uses
the "limit" configuration m = d (every user reports every dimension, so
the per-dimension budget is ε/d) and ε ∈ {0.1, 0.2, 0.4, 0.8, 1.6, 3.2}
for Laplace/Piecewise but ε ∈ {0.1, 10, 100, 500, 1000, 5000} for Square
wave, whose utility barely moves at small ε.

Expected shapes (paper Fig. 4): L1 and L2 both cut MSE sharply for
Laplace and Piecewise at high d / small ε; Square wave's deviations are
already below the Lemma 4/5 thresholds, so re-calibration does not help it
and L2 can hurt; L2's curve flattens at extreme dimensionality where the
weights drive every entry to ≈ 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import mse, true_mean
from ..datasets.loader import load_dataset
from ..framework.multivariate import build_multivariate_model
from ..hdr4me.recalibrator import Recalibrator
from ..mechanisms.registry import get_mechanism
from ..protocol.budget import BudgetPlan
from ..protocol.pipeline import build_populations, collect_means
from ..rng import RngLike, ensure_rng, spawn_children
from .base import SeriesRow, format_series

#: Paper budget grids.
PAPER_EPSILONS: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
SQUARE_WAVE_EPSILONS: Tuple[float, ...] = (0.1, 10.0, 100.0, 500.0, 1000.0, 5000.0)

#: The (dataset, mechanism) grid making up Fig. 4's twelve panels.
FIG4_PANELS: Tuple[Tuple[str, str], ...] = tuple(
    (dataset, mechanism)
    for dataset in ("gaussian", "poisson", "uniform", "cov19")
    for mechanism in ("laplace", "piecewise", "square_wave")
)

SERIES_LABELS = ("baseline", "l1", "l2")


def default_epsilons(mechanism_name: str) -> Tuple[float, ...]:
    """The paper's ε grid for a mechanism (Square wave gets its own)."""
    if mechanism_name.startswith("square_wave"):
        return SQUARE_WAVE_EPSILONS
    return PAPER_EPSILONS


@dataclass(frozen=True)
class MseSweepResult:
    """One Fig. 4 panel: MSE series over the ε grid.

    Attributes
    ----------
    dataset / mechanism:
        Panel coordinates.
    users / dimensions:
        Scale the panel was run at.
    repeats:
        Collection rounds averaged per ε.
    rows:
        One :class:`SeriesRow` per ε with baseline/l1/l2 MSEs.
    """

    dataset: str
    mechanism: str
    users: int
    dimensions: int
    repeats: int
    rows: List[SeriesRow]

    def format(self) -> str:
        title = "Fig.4 %s on %s (n=%d, d=%d, %d repeats)" % (
            self.mechanism,
            self.dataset,
            self.users,
            self.dimensions,
            self.repeats,
        )
        return format_series(title, "epsilon", SERIES_LABELS, self.rows)

    def series(self, label: str) -> np.ndarray:
        """One MSE series (``"baseline"``, ``"l1"`` or ``"l2"``)."""
        return np.array([row.values[label] for row in self.rows])


def run_mse_sweep(
    dataset: str = "gaussian",
    mechanism: str = "laplace",
    epsilons: Optional[Sequence[float]] = None,
    users: Optional[int] = None,
    dimensions: Optional[int] = None,
    repeats: int = 3,
    population_bins: int = 32,
    rng: RngLike = None,
) -> MseSweepResult:
    """Regenerate one Fig. 4 panel.

    Parameters
    ----------
    dataset / mechanism:
        Panel coordinates (see :data:`FIG4_PANELS`).
    epsilons:
        Budget grid; defaults to the paper's grid for the mechanism.
    users / dimensions:
        Scale overrides (paper scale by default — hours of compute; the
        benchmark harness passes scaled-down values).
    repeats:
        Independent collection rounds averaged per ε (paper: 100).
    population_bins:
        Discretization of the data columns for the Lemma 3 models.
    rng:
        Seed or generator.
    """
    gen = ensure_rng(rng)
    mech = get_mechanism(mechanism)
    data = load_dataset(dataset, users, dimensions, rng=gen)
    n, d = data.shape
    truth = true_mean(data)
    grid = tuple(epsilons) if epsilons is not None else default_epsilons(mechanism)
    populations = build_populations(data, population_bins) if mech.bounded else None
    recalibrators = {
        "l1": Recalibrator(norm="l1"),
        "l2": Recalibrator(norm="l2"),
    }

    rows: List[SeriesRow] = []
    for epsilon in grid:
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
                x=float(epsilon),
                values={label: sums[label] / repeats for label in SERIES_LABELS},
            )
        )
    return MseSweepResult(
        dataset=dataset,
        mechanism=mechanism,
        users=n,
        dimensions=d,
        repeats=repeats,
        rows=rows,
    )
