"""High-dimensional re-calibration for frequency estimation (Section V-C).

Any categorical value can be histogram-encoded into a one-hot vector whose
entries live in ``[0, 1]``; the frequency of category ``c`` is then the
mean of the ``c``-th entry over the population. Perturbing each entry with
budget ``ε/2m`` guarantees collective ε-LDP regardless of the mechanism
(changing one's category flips exactly two entries), so a ``d``-dimensional
frequency estimation becomes ``d`` high-dimensional *mean* estimations —
and both the analytical framework and HDR4ME apply unchanged.

This module provides the encoding, a mechanism-agnostic
:class:`FrequencyEstimator`, and the standard post-processing (clip to
``[0, 1]``, optionally renormalize the simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..framework.deviation import bernoulli_sigmas
from ..framework.multivariate import MultivariateDeviationModel
from ..mechanisms.base import (
    AffineTransformedMechanism,
    Mechanism,
    affine_mean_map,
    validate_epsilon,
)
from ..rng import RngLike, ensure_rng
from .recalibrator import RecalibrationResult, Recalibrator

#: Native domain of histogram-encoded entries.
UNIT_DOMAIN: Tuple[float, float] = (0.0, 1.0)


def one_hot_encode(categories: np.ndarray, n_categories: int) -> np.ndarray:
    """Histogram-encode integer categories into an ``(n, v)`` 0/1 matrix.

    Parameters
    ----------
    categories:
        Integer category labels in ``[0, n_categories)``.
    n_categories:
        Number of categories ``v``.
    """
    labels = np.asarray(categories)
    if labels.ndim != 1:
        raise DimensionError("categories must be one-dimensional")
    if n_categories < 2:
        raise DimensionError("need at least two categories, got %d" % n_categories)
    if labels.size and (labels.min() < 0 or labels.max() >= n_categories):
        raise DomainError(
            "category labels must lie in [0, %d), got range [%d, %d]"
            % (n_categories, labels.min(), labels.max())
        )
    encoded = np.zeros((labels.size, n_categories), dtype=np.float64)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded


def true_frequencies(categories: np.ndarray, n_categories: int) -> np.ndarray:
    """Exact category frequencies of a label column (for evaluation)."""
    labels = np.asarray(categories)
    counts = np.bincount(labels, minlength=n_categories)
    return counts / max(labels.size, 1)


def adapt_to_unit_domain(mechanism: Mechanism) -> Mechanism:
    """Return ``mechanism`` re-domained to ``[0, 1]`` entries if needed."""
    if tuple(mechanism.input_domain) == UNIT_DOMAIN:
        return mechanism
    return AffineTransformedMechanism(mechanism, UNIT_DOMAIN)


def postprocess_frequencies(
    frequencies: np.ndarray, normalize: bool = True
) -> np.ndarray:
    """Clip estimated frequencies to ``[0, 1]`` and optionally renormalize."""
    freq = np.clip(np.asarray(frequencies, dtype=np.float64), 0.0, 1.0)
    if normalize:
        total = freq.sum()
        if total > 0:
            freq = freq / total
    return freq


def norm_sub_frequencies(frequencies: np.ndarray) -> np.ndarray:
    """Project a noisy frequency vector onto the probability simplex.

    The "Norm-Sub" post-processing of the LDP literature: subtract a
    common offset ``t`` and clip at zero, with ``t`` chosen so the result
    sums to one — the Euclidean projection onto the simplex. Compared to
    clip-and-rescale it removes noise mass *uniformly*, so large
    frequencies are not shrunk multiplicatively.

    Returns the unique vector ``max(f − t, 0)`` with unit sum.
    """
    freq = np.asarray(frequencies, dtype=np.float64).ravel()
    if freq.size == 0:
        raise DimensionError("cannot project an empty frequency vector")
    # Standard simplex-projection: sort descending, find the pivot.
    ordered = np.sort(freq)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, freq.size + 1)
    candidates = ordered - cumulative / ranks
    pivot = int(np.nonzero(candidates > 0)[0][-1])
    offset = cumulative[pivot] / (pivot + 1)
    return np.maximum(freq - offset, 0.0)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Result of one categorical dimension's frequency estimation.

    Attributes
    ----------
    raw:
        Per-category frequency estimates after exact mean calibration
        (see :func:`repro.mechanisms.base.affine_mean_map`); may still
        fall outside ``[0, 1]`` due to perturbation noise.
    entry_means:
        The uncalibrated means of the perturbed one-hot entries — what a
        mechanism-oblivious collector would see (biased for the square
        wave, identical to ``raw`` for unbiased mechanisms).
    enhanced:
        HDR4ME-re-calibrated estimates, present when a recalibrator was
        configured; otherwise ``None``.
    epsilon_per_entry:
        The ``ε/2m`` budget each encoded entry was perturbed with.
    reports:
        Number of users contributing to this dimension.
    """

    raw: np.ndarray
    entry_means: np.ndarray
    enhanced: Optional[np.ndarray]
    epsilon_per_entry: float
    reports: int

    def best(self, normalize: bool = True) -> np.ndarray:
        """Post-processed enhanced estimate (or raw if not enhanced)."""
        source = self.enhanced if self.enhanced is not None else self.raw
        return postprocess_frequencies(source, normalize=normalize)


class FrequencyEstimator:
    """Mechanism-agnostic LDP frequency estimation with optional HDR4ME.

    Parameters
    ----------
    mechanism:
        Any :class:`Mechanism`; it is automatically re-domained to the
        unit interval of histogram-encoded entries.
    epsilon:
        Collective privacy budget ``ε``.
    sampled_dimensions:
        The ``m`` of the paper's protocol — how many categorical
        dimensions each user reports. Each entry receives ``ε/2m``.
    recalibrator:
        Optional :class:`Recalibrator`; when present, the estimate of each
        categorical dimension is re-calibrated with a plug-in Bernoulli
        population model per entry.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        epsilon: float,
        sampled_dimensions: int = 1,
        recalibrator: Optional[Recalibrator] = None,
    ) -> None:
        self.epsilon = validate_epsilon(epsilon)
        if sampled_dimensions < 1:
            raise DimensionError(
                "sampled_dimensions must be >= 1, got %d" % sampled_dimensions
            )
        self.mechanism = adapt_to_unit_domain(mechanism)
        self.sampled_dimensions = int(sampled_dimensions)
        self.recalibrator = recalibrator

    @property
    def epsilon_per_entry(self) -> float:
        """Per-entry budget ``ε / 2m`` (Section V-C)."""
        return self.epsilon / (2.0 * self.sampled_dimensions)

    def estimate(
        self,
        categories: np.ndarray,
        n_categories: int,
        rng: RngLike = None,
    ) -> FrequencyEstimate:
        """Estimate the category frequencies of one categorical dimension."""
        gen = ensure_rng(rng)
        encoded = one_hot_encode(categories, n_categories)
        reports = encoded.shape[0]
        if reports == 0:
            raise DimensionError("cannot estimate frequencies from no users")
        eps = self.epsilon_per_entry
        perturbed = self.mechanism.perturb(encoded, eps, gen)
        entry_means = perturbed.mean(axis=0)

        # Exact aggregate-mean calibration: every shipped mechanism has an
        # affine conditional mean, so the collector can invert it.
        affine = affine_mean_map(self.mechanism, eps)
        if affine is not None:
            slope, intercept = affine
            raw = (entry_means - intercept) / slope
        else:  # pragma: no cover - no shipped mechanism hits this
            slope = 1.0
            raw = entry_means

        enhanced = None
        if self.recalibrator is not None:
            enhanced = self._recalibrate(raw, reports, slope).theta_star
        return FrequencyEstimate(
            raw=raw,
            entry_means=entry_means,
            enhanced=enhanced,
            epsilon_per_entry=eps,
            reports=reports,
        )

    def _recalibrate(
        self, raw: np.ndarray, reports: int, slope: float
    ) -> RecalibrationResult:
        """Apply HDR4ME with a plug-in Bernoulli population per entry.

        The deviation of the *calibrated* estimate is unbiased with
        variance ``E_t[Var(t*|t)] / (r · slope²)``, so the per-entry
        Gaussian model is rebuilt accordingly.
        """
        sigmas = bernoulli_sigmas(
            self.mechanism, self.epsilon_per_entry, reports, raw
        ) / abs(slope)
        model = MultivariateDeviationModel(np.zeros_like(sigmas), sigmas)
        return self.recalibrator.recalibrate(raw, model)
