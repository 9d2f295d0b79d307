"""Non-uniform privacy-budget allocation across dimensions.

The paper's protocol splits the budget uniformly (``ε/m`` per reported
dimension) and its related-work section surveys the alternative stream:
correlation/entropy-driven allocation (Chatzikokolakis et al., Li et al.,
Du et al.), where dimensions deemed more important receive more budget.
This module implements that axis as a pluggable strategy so the
uniform-vs-weighted trade-off can be studied inside the same framework
(see ``benchmarks/bench_allocation.py``):

* :class:`UniformAllocation` — the paper's default;
* :class:`WeightedAllocation` — budget proportional to caller-supplied
  importance weights;
* :class:`SignalProportionalAllocation` — weights from a public prior on
  per-dimension signal magnitude (a stand-in for the entropy/covariance
  heuristics of the cited works, which assume the same kind of prior).

All strategies preserve the invariant ``Σ_j ε_j = ε`` over the reported
dimensions, so the composed guarantee is still ε-LDP. Because each
dimension then carries its own budget, allocation is supported for the
full-reporting configuration (``m = d``) — the one the paper's Fig. 4/5
experiments use; with subset sampling the per-user renormalization would
change the protocol itself.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..exceptions import DimensionError, PrivacyBudgetError
from ..mechanisms.base import validate_epsilon

#: Smallest fraction of the uniform share any dimension may receive;
#: prevents a zero-budget dimension (whose estimate would be pure noise
#: of infinite scale for unbounded mechanisms).
MIN_SHARE_FRACTION = 0.01


class BudgetAllocation(abc.ABC):
    """Strategy mapping a collective budget to per-dimension budgets."""

    name: str = "abstract"

    @abc.abstractmethod
    def allocate(self, epsilon: float, dimensions: int) -> np.ndarray:
        """Return a length-``d`` vector of per-dimension budgets.

        The vector must be positive and sum to ``epsilon``.
        """

    def _validate(self, epsilon: float, dimensions: int) -> float:
        eps = validate_epsilon(epsilon)
        if dimensions < 1:
            raise DimensionError("dimensions must be >= 1, got %d" % dimensions)
        return eps


class UniformAllocation(BudgetAllocation):
    """The paper's default: ``ε/d`` everywhere."""

    name = "uniform"

    def allocate(self, epsilon: float, dimensions: int) -> np.ndarray:
        eps = self._validate(epsilon, dimensions)
        return np.full(dimensions, eps / dimensions)


class WeightedAllocation(BudgetAllocation):
    """Budget proportional to explicit importance weights.

    Parameters
    ----------
    weights:
        Non-negative importance per dimension; zero-weight dimensions are
        floored at ``MIN_SHARE_FRACTION`` of the uniform share so every
        estimate stays finite.
    """

    name = "weighted"

    def __init__(self, weights: np.ndarray) -> None:
        arr = np.asarray(weights, dtype=np.float64).ravel()
        if arr.size == 0:
            raise DimensionError("weights must be non-empty")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise PrivacyBudgetError("weights must be finite and non-negative")
        if arr.sum() <= 0:
            raise PrivacyBudgetError("weights must not be all zero")
        self.weights = arr

    def allocate(self, epsilon: float, dimensions: int) -> np.ndarray:
        eps = self._validate(epsilon, dimensions)
        if self.weights.size != dimensions:
            raise DimensionError(
                "weights have %d entries for %d dimensions"
                % (self.weights.size, dimensions)
            )
        floor = MIN_SHARE_FRACTION * eps / dimensions
        raw = self.weights / self.weights.sum() * eps
        floored = np.maximum(raw, floor)
        # Renormalize so the composition invariant holds exactly.
        return floored / floored.sum() * eps


class SignalProportionalAllocation(BudgetAllocation):
    """Weights from a public prior on per-dimension signal magnitude.

    Given a prior mean vector (e.g. from a public dataset or an earlier
    low-budget round), dimensions with larger expected |mean| receive
    proportionally more budget — the intuition behind the cited
    entropy/covariance allocation heuristics.

    Parameters
    ----------
    prior_mean:
        Prior per-dimension means.
    temperature:
        Exponent applied to |prior|; 0 recovers uniform, larger values
        concentrate budget on the strongest dimensions.
    """

    name = "signal_proportional"

    def __init__(self, prior_mean: np.ndarray, temperature: float = 1.0) -> None:
        if temperature < 0:
            raise PrivacyBudgetError(
                "temperature must be non-negative, got %g" % temperature
            )
        self._delegate = WeightedAllocation(
            np.abs(np.asarray(prior_mean, dtype=np.float64)) ** temperature
            + 1e-12
        )

    def allocate(self, epsilon: float, dimensions: int) -> np.ndarray:
        return self._delegate.allocate(epsilon, dimensions)


def allocated_pipeline_run(
    mechanism,
    data: np.ndarray,
    epsilon: float,
    allocation: Optional[BudgetAllocation] = None,
    rng=None,
    chunk_size: int = 8192,
):
    """Run a full-reporting collection round under a budget allocation.

    A sibling of :func:`~repro.protocol.pipeline.collect_means`
    for the ``m = d`` configuration with per-dimension budgets: each
    column ``j`` is perturbed with its own ``ε_j`` and averaged.

    Returns
    -------
    tuple
        ``(theta_hat, per_dimension_epsilons)``.
    """
    from ..rng import ensure_rng

    gen = ensure_rng(rng)
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError("data must be an (n, d) matrix")
    users, dimensions = matrix.shape
    strategy = allocation or UniformAllocation()
    epsilons = strategy.allocate(epsilon, dimensions)

    sums = np.zeros(dimensions)
    for start in range(0, users, chunk_size):
        chunk = matrix[start : start + chunk_size]
        for j in range(dimensions):
            sums[j] += mechanism.perturb(chunk[:, j], epsilons[j], gen).sum()
    theta_hat = sums / users
    bias_free = np.array(
        [mechanism.deterministic_bias(eps) or 0.0 for eps in epsilons]
    )
    return theta_hat - bias_free, epsilons
