"""Piecewise mechanism (Wang et al., ICDE 2019) — bounded, continuous output.

For a value ``t ∈ [−1, 1]`` and per-dimension budget ``ε`` the perturbed
value ``t*`` is drawn from a two-level piecewise-constant density on
``[−Q, Q]`` (paper Eq. 4)::

    Q    = (e^{ε/2} + 1) / (e^{ε/2} − 1)
    l(t) = (Q + 1)/2 · t − (Q − 1)/2
    r(t) = l(t) + Q − 1
    Pr(t*) = (e^ε − e^{ε/2}) / (2 e^{ε/2} + 2)   on [l(t), r(t)]
    Pr(t*) = (1 − e^{−ε/2}) / (2 e^{ε/2} + 2)    elsewhere in [−Q, Q]

The estimator is unbiased with conditional variance (paper Eq. 14, with the
known ``t`` → ``t²`` typo corrected; see DESIGN.md §5)::

    Var[t*|t] = t² / (e^{ε/2} − 1) + (e^{ε/2} + 3) / (3 (e^{ε/2} − 1)²)
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .base import Mechanism, validate_epsilon


class PiecewiseMechanism(Mechanism):
    """ε-LDP Piecewise perturbation for values in ``[−1, 1]``."""

    name = "piecewise"
    bounded = True

    @staticmethod
    def boundary(epsilon: float) -> float:
        """Return the output boundary ``Q = (e^{ε/2} + 1)/(e^{ε/2} − 1)``.

        Computed as ``1/tanh(ε/4)``, which is algebraically identical and
        stays finite for arbitrarily large budgets (``exp(ε/2)`` would
        overflow past ε ≈ 1418).
        """
        eps = validate_epsilon(epsilon)
        return 1.0 / math.tanh(eps / 4.0)

    @classmethod
    def center_interval(
        cls, values: np.ndarray, epsilon: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(l(t), r(t))``, the high-probability interval per value."""
        big_q = cls.boundary(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        left = (big_q + 1.0) / 2.0 * arr - (big_q - 1.0) / 2.0
        return left, left + big_q - 1.0

    def _sample(
        self, arr: np.ndarray, eps: float, gen: np.random.Generator
    ) -> np.ndarray:
        big_q = self.boundary(eps)
        left, right = self.center_interval(arr, eps)
        # Total mass of the centre interval integrates to
        # e^{ε/2}/(e^{ε/2}+1) = 1/(1 + e^{−ε/2}) (overflow-safe form).
        prob_center = 1.0 / (1.0 + math.exp(-eps / 2.0))

        in_center = gen.random(arr.shape) < prob_center
        center_draw = left + gen.random(arr.shape) * (big_q - 1.0)
        # Tail: uniform over [−Q, l) ∪ (r, Q], total length Q + 1.
        tail_position = gen.random(arr.shape) * (big_q + 1.0)
        left_tail_len = left + big_q
        tail_draw = np.where(
            tail_position < left_tail_len,
            -big_q + tail_position,
            right + (tail_position - left_tail_len),
        )
        return np.where(in_center, center_draw, tail_draw)

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.zeros(arr.shape)

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        # Overflow-safe evaluation via d = e^{−ε/2}:
        #   t²/(e^{ε/2} − 1)            = t² d / (1 − d)
        #   (e^{ε/2} + 3)/(3(e^{ε/2}−1)²) = d (1 + 3d) / (3 (1 − d)²)
        decay = math.exp(-eps / 2.0)
        one_minus = 1.0 - decay
        return (
            arr**2 * decay / one_minus
            + decay * (1.0 + 3.0 * decay) / (3.0 * one_minus**2)
        )

    def pdf(self, outputs: np.ndarray, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Density ``Pr(t* | t)`` evaluated elementwise (paper Eq. 4)."""
        eps = validate_epsilon(epsilon)
        out = np.asarray(outputs, dtype=np.float64)
        big_q = self.boundary(eps)
        left, right = self.center_interval(values, eps)
        high = (math.exp(eps) - math.exp(eps / 2.0)) / (2.0 * math.exp(eps / 2.0) + 2.0)
        low = (1.0 - math.exp(-eps / 2.0)) / (2.0 * math.exp(eps / 2.0) + 2.0)
        density = np.where((out >= left) & (out <= right), high, low)
        return np.where(np.abs(out) <= big_q, density, 0.0)

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        big_q = self.boundary(epsilon)
        return (-big_q, big_q)
