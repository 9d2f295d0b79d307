"""Set-valued data collection (the paper's stated future work).

The conclusion of the paper names set-valued data as the next target for
the framework. This module implements the standard padding-and-sampling
reduction (Wang et al.; LDPMiner-style): each user holds a *set* of items
from a domain of size ``v``; she pads (or truncates) it to a fixed length
``L`` with dummy items, samples one element uniformly, and reports it
through any categorical frequency oracle over the extended domain
``v + L`` (the ``L`` dummy slots absorb the padding). Because a true item
is sampled with probability (size ∧ L)/L · 1/(size ∧ L) = 1/L when
present, the collector recovers item frequencies by scaling the oracle's
estimates by ``L``.

The result is again a vector-mean estimation problem, so the deviation
models and HDR4ME compose exactly as in Section V-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..freq_oracles import FrequencyOracle, get_oracle
from ..framework.multivariate import MultivariateDeviationModel
from ..hdr4me.recalibrator import Recalibrator
from ..rng import RngLike, ensure_rng


def item_frequencies(sets: Sequence[Sequence[int]], n_items: int) -> np.ndarray:
    """Exact fraction of users holding each item (evaluation ground truth)."""
    counts = np.zeros(n_items)
    for user_set in sets:
        for item in set(user_set):
            counts[item] += 1
    return counts / max(len(sets), 1)


@dataclass(frozen=True)
class SetValuedEstimate:
    """Outcome of one set-valued collection round.

    Attributes
    ----------
    frequencies:
        Estimated fraction of users holding each item (may exceed [0, 1]
        by noise; clip for presentation).
    enhanced:
        HDR4ME-re-calibrated frequencies when a recalibrator was set.
    padding_length:
        The ``L`` used; items beyond the ``L``-th of a user's set are
        truncated away (an inherent bias of the reduction, shrinking as
        ``L`` grows past typical set sizes).
    """

    frequencies: np.ndarray
    enhanced: Optional[np.ndarray]
    padding_length: int

    def best(self) -> np.ndarray:
        """Clipped enhanced (or raw) frequencies."""
        source = self.enhanced if self.enhanced is not None else self.frequencies
        return np.clip(source, 0.0, 1.0)


class PaddingAndSampling:
    """Set-valued frequency estimation via padding-and-sampling.

    Parameters
    ----------
    epsilon:
        Collective ε-LDP budget (the single sampled report carries all
        of it — sampling one item of the padded set costs no budget).
    n_items:
        Item-domain size ``v``.
    padding_length:
        The pad/truncate length ``L``.
    oracle:
        Registry name of the categorical oracle used underneath
        (default GRR; OUE/OLH for very large domains).
    recalibrator:
        Optional HDR4ME recalibrator for the frequency vector.
    """

    def __init__(
        self,
        epsilon: float,
        n_items: int,
        padding_length: int,
        oracle: str = "grr",
        recalibrator: Optional[Recalibrator] = None,
    ) -> None:
        if n_items < 1:
            raise DimensionError("n_items must be >= 1, got %d" % n_items)
        if padding_length < 1:
            raise DimensionError(
                "padding_length must be >= 1, got %d" % padding_length
            )
        self.n_items = int(n_items)
        self.padding_length = int(padding_length)
        self._oracle: FrequencyOracle = get_oracle(
            oracle, epsilon, self.n_items + self.padding_length
        )
        self.recalibrator = recalibrator

    # ------------------------------------------------------------- protocol

    def sample_items(
        self, sets: Sequence[Sequence[int]], rng: RngLike = None
    ) -> np.ndarray:
        """User side: pad/truncate each set to ``L`` and sample one label.

        Dummy slots map to labels ``v .. v+L−1``.
        """
        gen = ensure_rng(rng)
        labels = np.empty(len(sets), dtype=np.int64)
        for i, user_set in enumerate(sets):
            items = np.unique(np.asarray(list(user_set), dtype=np.int64))
            if items.size and (items.min() < 0 or items.max() >= self.n_items):
                raise DomainError(
                    "items must lie in [0, %d)" % self.n_items
                )
            if items.size > self.padding_length:
                items = gen.choice(items, size=self.padding_length, replace=False)
            slot = int(gen.integers(0, self.padding_length))
            if slot < items.size:
                labels[i] = items[slot]
            else:
                # A dummy slot; dummy identity spreads over L labels.
                labels[i] = self.n_items + slot
        return labels

    def run(
        self, sets: Sequence[Sequence[int]], rng: RngLike = None
    ) -> SetValuedEstimate:
        """Full round: sample, privatize via the oracle, estimate, scale."""
        if not sets:
            raise DimensionError("need at least one user set")
        gen = ensure_rng(rng)
        labels = self.sample_items(sets, gen)
        reports = self._oracle.privatize(labels, gen)
        extended = self._oracle.estimate(reports)
        frequencies = self.padding_length * extended[: self.n_items]

        enhanced = None
        if self.recalibrator is not None:
            enhanced = self._recalibrate(frequencies, len(sets)).theta_star
        return SetValuedEstimate(
            frequencies=frequencies,
            enhanced=enhanced,
            padding_length=self.padding_length,
        )

    # ------------------------------------------------------------ framework

    def _recalibrate(self, frequencies: np.ndarray, users: int):
        """HDR4ME with the L-scaled oracle variance per item."""
        scale = float(self.padding_length)
        base_var = self._oracle.estimation_variance(
            np.clip(frequencies, 0.0, 1.0) / scale, users
        )
        sigmas = scale * np.sqrt(base_var)
        return self.recalibrator.recalibrate(
            frequencies, MultivariateDeviationModel(np.zeros_like(sigmas), sigmas)
        )
