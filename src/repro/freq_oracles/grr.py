"""Generalized randomized response (GRR, a.k.a. direct encoding).

Each user reports her true category with probability
``p = e^ε / (e^ε + v − 1)`` and any specific other category with
probability ``q = 1 / (e^ε + v − 1)``. The per-category count is then a
Binomial whose success probability is ``P = f·p + (1 − f)·q``, giving the
unbiased estimator ``f̂ = (c/n − q) / (p − q)`` with variance
``P(1 − P) / (n (p − q)²)``.

GRR is optimal for small category counts and degrades linearly in ``v``
— the regime comparison with OUE/OLH is exercised in the
``bench_freq_oracles`` benchmark.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike
from .base import FrequencyOracle


class GeneralizedRandomizedResponse(FrequencyOracle):
    """ε-LDP direct encoding over ``v`` categories."""

    name = "grr"

    @property
    def p_true(self) -> float:
        """Probability of reporting the true category."""
        e_eps = math.exp(self.epsilon)
        return e_eps / (e_eps + self.n_categories - 1.0)

    @property
    def p_other(self) -> float:
        """Probability of reporting one specific wrong category."""
        e_eps = math.exp(self.epsilon)
        return 1.0 / (e_eps + self.n_categories - 1.0)

    def privatize(self, labels: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return perturbed integer labels (same shape as ``labels``)."""
        arr = self._check_labels(labels)
        gen = self._rng(rng)
        keep = gen.random(arr.size) < self.p_true
        # A uniform *other* category: draw from v-1 and skip the truth.
        offset = gen.integers(1, self.n_categories, size=arr.size)
        lie = (arr + offset) % self.n_categories
        return np.where(keep, arr, lie)

    def estimate(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased frequency estimates from perturbed labels."""
        arr = self._check_labels(reports)
        counts = np.bincount(arr, minlength=self.n_categories)
        return self.estimate_from_counts(counts, arr.size)

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return self.p_true, self.p_other
