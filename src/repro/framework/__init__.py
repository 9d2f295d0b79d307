"""Section IV: the analytical framework for high-dimensional LDP utility.

Public surface:

* :class:`ValueDistribution` — discrete population model (Lemma 3 input);
* :func:`build_deviation_model` / :class:`DeviationModel` — Lemmas 2 and 3;
* :func:`build_multivariate_model` / :class:`MultivariateDeviationModel`
  — Theorem 1 joint pdf and supremum-box probabilities over the ``δ`` and
  ``σ`` arrays; :func:`bernoulli_sigmas` fills ``σ`` for one-hot entries;
* :func:`benchmark_mechanisms` — experiment-free mechanism comparison
  (Table II);
* :func:`berry_esseen_bound` / :func:`convergence_curve` — Theorem 2.
"""

from .compare import CrossoverResult, crossover_supremum
from .benchmark import BenchmarkRow, BenchmarkTable, benchmark_mechanisms
from .berry_esseen import (
    BERRY_ESSEEN_CONSTANT,
    BERRY_ESSEEN_SECONDARY,
    BerryEsseenBound,
    berry_esseen_bound,
    convergence_curve,
)
from .deviation import DeviationModel, bernoulli_sigmas, build_deviation_model
from .multivariate import MultivariateDeviationModel, build_multivariate_model
from .population import DEFAULT_BINS, ValueDistribution

__all__ = [
    "BERRY_ESSEEN_CONSTANT",
    "BERRY_ESSEEN_SECONDARY",
    "BenchmarkRow",
    "BenchmarkTable",
    "BerryEsseenBound",
    "CrossoverResult",
    "DEFAULT_BINS",
    "DeviationModel",
    "MultivariateDeviationModel",
    "ValueDistribution",
    "benchmark_mechanisms",
    "bernoulli_sigmas",
    "berry_esseen_bound",
    "build_deviation_model",
    "build_multivariate_model",
    "convergence_curve",
    "crossover_supremum",
]
