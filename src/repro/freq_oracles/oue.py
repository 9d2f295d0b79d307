"""Optimized unary encoding (OUE).

The user one-hot-encodes her category and perturbs each bit
independently: the 1-bit survives with ``p = 1/2``, each 0-bit flips to 1
with ``q = 1 / (e^ε + 1)`` — the split Wang et al. show minimizes
estimation variance among unary encodings. The per-category estimator is
``f̂ = (c/n − q) / (p − q)`` with variance
``P(1 − P) / (n (p − q)²)``, ``P = f·p + (1 − f)·q``, which approaches
the well-known ``4 e^ε / (n (e^ε − 1)²)`` at small ``f``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike
from .base import FrequencyOracle


class OptimizedUnaryEncoding(FrequencyOracle):
    """ε-LDP optimized unary encoding over ``v`` categories."""

    name = "oue"

    #: Survival probability of the true-category bit.
    p_keep = 0.5

    @property
    def p_flip(self) -> float:
        """Probability a zero bit reports as one."""
        return 1.0 / (math.exp(self.epsilon) + 1.0)

    def privatize(self, labels: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return an ``(n, v)`` 0/1 report matrix."""
        arr = self._check_labels(labels)
        gen = self._rng(rng)
        noise = gen.random((arr.size, self.n_categories))
        reports = (noise < self.p_flip).astype(np.float64)
        rows = np.arange(arr.size)
        reports[rows, arr] = (gen.random(arr.size) < self.p_keep).astype(
            np.float64
        )
        return reports

    def estimate(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased frequency estimates from the bit matrix."""
        matrix = np.asarray(reports, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_categories:
            from ..exceptions import DimensionError

            raise DimensionError(
                "expected (n, %d) report matrix, got %s"
                % (self.n_categories, matrix.shape)
            )
        return self.estimate_from_counts(matrix.sum(axis=0), matrix.shape[0])

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return self.p_keep, self.p_flip
