"""The multivariate deviation model of Theorem 1.

Because each dimension is perturbed independently, the joint pdf of the
``d``-dimensional deviation ``θ̂ − θ̄`` factorizes into the per-dimension
Gaussians of Lemmas 2/3 (paper Eq. 12). The joint model is therefore two
length-``d`` vectors, ``δ`` and ``σ``: :class:`MultivariateDeviationModel`
stores exactly those and evaluates, one array expression each,

* the pdf / log-pdf itself;
* the probability of the deviation staying inside a supremum box ``S``
  (used to benchmark mechanisms, Section IV-B end);
* the probability bounds that parameterize Theorems 3 and 4 (how likely
  every dimension's deviation exceeds the L1/L2 improvement thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import special

from ..exceptions import DimensionError, DistributionError, ParameterError
from ..mechanisms.base import Mechanism
from .deviation import build_deviation_model
from .population import ValueDistribution

Suprema = Union[float, Sequence[float], np.ndarray]


def _frozen_vector(values) -> np.ndarray:
    vector = np.array(values, dtype=np.float64).reshape(-1)
    vector.flags.writeable = False
    return vector


@dataclass(frozen=True, eq=False)
class MultivariateDeviationModel:
    """Product-form Gaussian model of the ``d``-dimensional deviation.

    Attributes
    ----------
    deltas:
        Per-dimension deviation means ``δ_j`` (read-only float64 vector).
    sigmas:
        Per-dimension deviation standard deviations ``σ_j`` (read-only,
        finite and positive).
    """

    deltas: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self) -> None:
        deltas = _frozen_vector(self.deltas)
        sigmas = _frozen_vector(self.sigmas)
        if sigmas.size == 0:
            raise DimensionError("need at least one dimension")
        if deltas.size != sigmas.size:
            raise DimensionError(
                "%d deltas for %d sigmas" % (deltas.size, sigmas.size)
            )
        if not np.all(np.isfinite(sigmas) & (sigmas > 0.0)):
            raise DistributionError("sigmas must be finite and positive")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def ndim(self) -> int:
        """Number of modelled dimensions ``d``."""
        return self.sigmas.size

    # --------------------------------------------------------------- density

    def logpdf(self, deviation: np.ndarray) -> float:
        """Log of the Theorem 1 joint pdf at a deviation vector."""
        dev = self._check_vector(deviation)
        z = (dev - self.deltas) / self.sigmas
        return float(
            -0.5 * np.sum(z * z)
            - np.sum(np.log(self.sigmas))
            - 0.5 * self.ndim * math.log(2.0 * math.pi)
        )

    def pdf(self, deviation: np.ndarray) -> float:
        """Theorem 1 joint pdf (Eq. 12) at a deviation vector."""
        return math.exp(self.logpdf(deviation))

    # ---------------------------------------------------------- probabilities

    def box_probability(self, suprema: Suprema) -> float:
        """``P(∀j: |θ̂_j − θ̄_j| ≤ ξ_j)`` — the integral of Eq. 12 over S.

        ``suprema`` may be a scalar (the same ξ in every dimension) or a
        length-``d`` vector. Independence turns the box integral into a
        product of one-dimensional Gaussian probabilities, so the result
        is exact rather than a numeric cubature.
        """
        return _product(self._inside_probabilities(suprema))

    def any_outside_probability(self, suprema: Suprema) -> float:
        """``P(∃j: |θ̂_j − θ̄_j| > ξ_j) = 1 − box_probability``.

        This is the paper's ``1 − ∫_S f`` lower bound that parameterizes
        Theorems 3 and 4.
        """
        return 1.0 - self.box_probability(suprema)

    def all_outside_probability(self, suprema: Suprema) -> float:
        """``P(∀j: |θ̂_j − θ̄_j| > ξ_j)`` under independence.

        The exact probability of *every* dimension exceeding its threshold
        (the event under which Lemmas 4/5 guarantee improvement in every
        dimension simultaneously); tighter than the paper's ``1 − ∫_S f``
        statement, which we also expose as
        :meth:`any_outside_probability`.
        """
        return _product(1.0 - self._inside_probabilities(suprema))

    def expected_squared_l2(self) -> float:
        """``E‖θ̂ − θ̄‖₂² = Σ_j (δ_j² + σ_j²)`` — predicts ``d·MSE``."""
        return float(np.sum(self.deltas**2 + self.sigmas**2))

    def predicted_mse(self) -> float:
        """Framework prediction of the experimental MSE (Eq. 3)."""
        return self.expected_squared_l2() / self.ndim

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` deviation vectors, shape ``(size, d)``."""
        return rng.normal(
            self.deltas[None, :], self.sigmas[None, :], size=(size, self.ndim)
        )

    # -------------------------------------------------------------- helpers

    def _check_vector(self, deviation: np.ndarray) -> np.ndarray:
        dev = np.asarray(deviation, dtype=np.float64).ravel()
        if dev.size != self.ndim:
            raise DimensionError(
                "deviation vector has %d entries, model has %d dimensions"
                % (dev.size, self.ndim)
            )
        return dev

    def _inside_probabilities(self, suprema: Suprema) -> np.ndarray:
        """Per-dimension ``P(|θ̂_j − θ̄_j| ≤ ξ_j)`` in one ``ndtr`` call."""
        xi = np.asarray(suprema, dtype=np.float64).ravel()
        if xi.size not in (1, self.ndim):
            raise DimensionError(
                "suprema vector has %d entries, model has %d dimensions"
                % (xi.size, self.ndim)
            )
        if not np.all(xi >= 0):
            raise ParameterError("suprema must be non-negative")
        high, low = special.ndtr(
            np.stack([xi - self.deltas, -xi - self.deltas]) / self.sigmas
        )
        return high - low


def _product(probabilities: np.ndarray) -> float:
    """Product of per-dimension probabilities, summed in log space.

    Exactly ``0.0`` when any factor is ``≤ 0``, so thousands of factors
    below one underflow to zero instead of raising.
    """
    if np.any(probabilities <= 0.0):
        return 0.0
    return math.exp(np.sum(np.log(probabilities)))


def build_multivariate_model(
    mechanism: Mechanism,
    epsilon_per_dim: float,
    reports: int,
    populations: Union[ValueDistribution, Sequence[ValueDistribution], None],
    ndim: Optional[int] = None,
) -> MultivariateDeviationModel:
    """Assemble the Theorem 1 model from per-dimension ingredients.

    Parameters
    ----------
    mechanism:
        The LDP mechanism under analysis.
    epsilon_per_dim:
        Budget allocated to each reported dimension (``ε/m``).
    reports:
        Expected reports per dimension (``n·m/d``).
    populations:
        One :class:`ValueDistribution` shared by every dimension, a
        sequence with one distribution per dimension, or ``None`` for
        unbounded mechanisms.
    ndim:
        Number of dimensions; required when ``populations`` is shared or
        ``None``, inferred from the sequence length otherwise.
    """
    if isinstance(populations, ValueDistribution) or populations is None:
        if ndim is None or ndim < 1:
            raise DimensionError("a shared population needs ndim >= 1")
        shared = build_deviation_model(
            mechanism, epsilon_per_dim, reports, populations
        )
        return MultivariateDeviationModel(
            np.full(int(ndim), shared.delta), np.full(int(ndim), shared.sigma)
        )
    per_dim = list(populations)
    if ndim is not None and ndim != len(per_dim):
        raise DimensionError(
            "ndim=%d disagrees with %d populations" % (ndim, len(per_dim))
        )
    models = [
        build_deviation_model(mechanism, epsilon_per_dim, reports, pop)
        for pop in per_dim
    ]
    return MultivariateDeviationModel(
        [m.delta for m in models], [m.sigma for m in models]
    )
