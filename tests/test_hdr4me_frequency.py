"""Tests for the Section V-C frequency-estimation extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AggregationError, DimensionError, DomainError
from repro.hdr4me import (
    Recalibrator,
    one_hot_encode,
    postprocess_frequencies,
    true_frequencies,
)
from repro.hdr4me.frequency import adapt_to_unit_domain
from repro.mechanisms import PiecewiseMechanism, SquareWaveMechanism
from repro.session import CategoricalAttribute, LDPClient, LDPServer, Schema


class TestEncoding:
    def test_one_hot_shape_and_rows(self):
        encoded = one_hot_encode(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_row_sums_are_one(self, rng):
        labels = rng.integers(0, 5, size=100)
        encoded = one_hot_encode(labels, 5)
        np.testing.assert_array_equal(encoded.sum(axis=1), np.ones(100))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            one_hot_encode(np.array([0, 3]), 3)

    def test_rejects_negative_labels(self):
        with pytest.raises(DomainError):
            one_hot_encode(np.array([-1]), 3)

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionError):
            one_hot_encode(np.zeros((2, 2), dtype=int), 3)

    def test_rejects_single_category(self):
        with pytest.raises(DimensionError):
            one_hot_encode(np.array([0]), 1)

    def test_true_frequencies(self):
        freq = true_frequencies(np.array([0, 0, 1, 2]), 4)
        np.testing.assert_allclose(freq, [0.5, 0.25, 0.25, 0.0])


class TestPostprocess:
    def test_clips_and_normalizes(self):
        out = postprocess_frequencies(np.array([-0.2, 0.5, 0.9]))
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0)

    def test_no_normalize(self):
        out = postprocess_frequencies(np.array([0.2, 0.3]), normalize=False)
        np.testing.assert_allclose(out, [0.2, 0.3])

    def test_all_zero_stays_zero(self):
        out = postprocess_frequencies(np.array([-1.0, -2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestAdaptation:
    def test_unit_domain_mechanism_unchanged(self):
        mech = SquareWaveMechanism()
        assert adapt_to_unit_domain(mech) is mech

    def test_standard_domain_mechanism_wrapped(self):
        wrapped = adapt_to_unit_domain(PiecewiseMechanism())
        assert wrapped.input_domain == (0.0, 1.0)


def _round(protocol, epsilon, labels, v, rng, postprocess=None):
    """One histogram-encoded round of a one-attribute :class:`LDPServer`."""
    schema = Schema([CategoricalAttribute("c", n_categories=v)])
    client = LDPClient(schema, epsilon, protocols=protocol)
    server = LDPServer(schema, epsilon, protocols=protocol)
    server.ingest(client.report_batch(np.asarray(labels)[:, None], rng))
    return server.estimate(postprocess=postprocess)["c"]


class TestEstimator:
    @pytest.mark.parametrize("name", ["laplace", "piecewise", "square_wave_unit"])
    def test_recovers_frequencies(self, name, rng):
        labels = rng.choice(4, size=40_000, p=[0.5, 0.3, 0.15, 0.05])
        estimate = _round(name, 4.0, labels, 4, rng)
        truth = true_frequencies(labels, 4)
        np.testing.assert_allclose(
            postprocess_frequencies(estimate.value), truth, atol=0.05
        )

    def test_epsilon_per_entry_is_half_per_dim(self):
        schema = Schema(
            [CategoricalAttribute("q%d" % j, n_categories=3) for j in range(4)]
        )
        server = LDPServer(schema, 2.0, sampled_attributes=4, protocols="laplace")
        assert server.collectors["q0"].epsilon_per_entry == pytest.approx(0.25)

    def test_with_recalibration(self, rng):
        labels = rng.choice(8, size=20_000)
        estimate = _round(
            "piecewise", 1.0, labels, 8, rng, postprocess=Recalibrator(norm="l2")
        )
        assert estimate.enhanced is not None
        # L2 shrinks, never amplifies.
        assert np.all(np.abs(estimate.enhanced) <= np.abs(estimate.raw) + 1e-12)

    def test_without_recalibration_enhanced_is_none(self, rng):
        estimate = _round("laplace", 1.0, rng.choice(3, size=1000), 3, rng)
        assert estimate.enhanced is None
        assert estimate.reports == 1000

    def test_empty_input_rejected(self, rng):
        with pytest.raises(AggregationError):
            _round("laplace", 1.0, np.empty(0, dtype=int), 3, rng)

    def test_invalid_sampled_dimensions(self):
        schema = Schema([CategoricalAttribute("c", n_categories=3)])
        with pytest.raises(DimensionError):
            LDPServer(schema, 1.0, sampled_attributes=0, protocols="laplace")

    def test_best_falls_back_to_raw(self, rng):
        estimate = _round("laplace", 4.0, rng.choice(3, size=5000), 3, rng)
        np.testing.assert_array_equal(estimate.value, estimate.raw)
        np.testing.assert_allclose(
            postprocess_frequencies(estimate.value, normalize=False),
            np.clip(estimate.raw, 0.0, 1.0),
        )
