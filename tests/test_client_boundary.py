"""The client's validation boundary and its one-gather ``report_batch``.

``LDPClient.report_batch`` validates the record matrix once
(``Schema.validate_matrix``), gathers every sampled value in one pass and
privatizes each attribute's slice through the mechanisms' ``_sample``.
The reference below is the per-column algorithm it replaced: validate
each column, gather contributors with ``mask[:, j]``, perturb through
the public ``perturb``/``privatize``. Payloads must agree under
``float.hex`` — same draws, in the same order.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import DimensionError, DomainError
from repro.freq_oracles.olh import OlhReports
from repro.hdr4me.frequency import one_hot_encode
from repro.mechanisms import LaplaceMechanism
from repro.protocol import collect_means
from repro.protocol.budget import BudgetPlan
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    sample_attribute_mask,
)
from repro.session.adapters import (
    HistogramMechanismCollector,
    NumericMechanismCollector,
)

SCHEMA = Schema(
    [
        NumericAttribute("pw"),
        CategoricalAttribute("oue", n_categories=5),
        NumericAttribute("sw", domain=(0.0, 10.0)),
        CategoricalAttribute("olh", n_categories=6),
        NumericAttribute("lap"),
        CategoricalAttribute("grr", n_categories=3),
        CategoricalAttribute("hist", n_categories=4),
    ]
)
PROTOCOLS = {
    "pw": "piecewise",
    "oue": "oue",
    "sw": "square_wave",
    "olh": "olh",
    "lap": "laplace",
    "grr": "grr",
    "hist": "piecewise",
}


def records(users: int, seed: int) -> np.ndarray:
    """Records with domain endpoints and values just past them (clipped)."""
    gen = np.random.default_rng(seed)
    columns = []
    for attr in SCHEMA:
        if attr.kind == "numeric":
            lo, hi = attr.domain
            column = gen.uniform(lo, hi, users)
            column[::5] = lo
            column[1::5] = hi
            column[2::7] = hi + 5e-10
            column[3::7] = lo - 5e-10
        else:
            column = gen.integers(0, attr.n_categories, users).astype(np.float64)
        columns.append(column)
    return np.column_stack(columns) if users else np.empty((0, len(SCHEMA)))


def reference_report_batch(client: LDPClient, matrix: np.ndarray, gen):
    """The per-column ``report_batch``: payloads, counts and protocols."""
    columns = [
        attr.validate_column(matrix[:, j]) for j, attr in enumerate(client.schema)
    ]
    mask = sample_attribute_mask(
        matrix.shape[0], client.plan.dimensions, client.plan.sampled_dimensions, gen
    )
    payloads, counts, protocols = {}, {}, {}
    for j, attr in enumerate(client.schema):
        contributors = mask[:, j]
        count = int(contributors.sum())
        if count == 0:
            continue
        collector = client.collectors[attr.name]
        values = columns[j][contributors]
        if isinstance(collector, NumericMechanismCollector):
            payload = collector.mechanism.perturb(values, collector.epsilon, gen)
        elif isinstance(collector, HistogramMechanismCollector):
            encoded = one_hot_encode(values, attr.n_categories)
            payload = collector.mechanism.perturb(
                encoded, collector.epsilon_per_entry, gen
            )
        else:
            payload = collector.oracle.privatize(values, gen)
        payloads[attr.name] = payload
        counts[attr.name] = count
        protocols[attr.name] = collector.protocol_name
    return payloads, counts, protocols


def exact(payload):
    """A payload as comparable exact values: ``float.hex`` for floats."""
    if isinstance(payload, OlhReports):
        return ("olh", exact(payload.seeds), exact(payload.buckets))
    arr = np.asarray(payload)
    if arr.dtype.kind == "f":
        return (str(arr.dtype), arr.shape, [float(x).hex() for x in arr.ravel()])
    return (str(arr.dtype), arr.shape, arr.ravel().tolist())


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("users", [0, 1, 257])
    @pytest.mark.parametrize("sampled", [1, len(SCHEMA)])
    def test_payloads_bit_identical(self, seed, users, sampled):
        client = LDPClient(SCHEMA, 2.0, sampled, PROTOCOLS)
        matrix = records(users, seed)
        batch = client.report_batch(matrix, np.random.default_rng([seed, 1]))
        payloads, counts, protocols = reference_report_batch(
            client, matrix, np.random.default_rng([seed, 1])
        )
        assert batch.users == users
        assert dict(batch.counts) == counts
        assert dict(batch.protocols) == protocols
        assert list(batch.payloads) == list(payloads)
        for name, payload in payloads.items():
            assert exact(batch.payloads[name]) == exact(payload), name

    def test_unsampled_nan_still_rejected(self):
        # The whole record is validated, not only the sampled values.
        client = LDPClient(SCHEMA, 2.0, 1, PROTOCOLS)
        mask = sample_attribute_mask(1, len(SCHEMA), 1, np.random.default_rng(3))
        unsampled = int(np.flatnonzero(~mask[0])[0])
        matrix = records(1, 0)
        matrix[0, unsampled] = np.nan
        with pytest.raises(DomainError, match=SCHEMA[unsampled].name):
            client.report_batch(matrix, np.random.default_rng(3))


class TestValidateMatrix:
    def test_names_first_offending_attribute_in_column_order(self):
        matrix = records(10, 0)
        matrix[4, 6] = 0.5  # "hist": not an integer label
        matrix[2, 2] = 11.0  # "sw": outside [0, 10]
        matrix[7, 4] = np.inf  # "lap": not finite
        with pytest.raises(DomainError, match="'sw'.*outside domain"):
            SCHEMA.validate_matrix(matrix)
        matrix[0, 1] = -1.0  # "oue": a label below 0, before every other
        with pytest.raises(DomainError, match=r"'oue'.*lie in \[0, 5\)"):
            SCHEMA.validate_matrix(matrix)

    def test_empty_batch_passes(self):
        out = SCHEMA.validate_matrix(np.empty((0, len(SCHEMA))))
        assert out.shape == (0, len(SCHEMA)) and out.dtype == np.float64

    def test_does_not_modify_the_input(self):
        matrix = records(20, 1)
        before = matrix.copy()
        SCHEMA.validate_matrix(matrix)
        np.testing.assert_array_equal(matrix, before)

    def test_matches_per_column_validation(self):
        matrix = records(40, 2)
        expected = np.column_stack(
            [attr.validate_column(matrix[:, j]) for j, attr in enumerate(SCHEMA)]
        )
        out = SCHEMA.validate_matrix(matrix)
        assert out.tobytes() == expected.astype(np.float64).tobytes()


class TestNonNumericRecords:
    """Records that are not real numbers raise DomainError, with no warning."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def _client(self):
        return LDPClient(SCHEMA, 2.0, 2, PROTOCOLS)

    def test_string_records(self):
        matrix = records(3, 0).astype(str)
        matrix[1, 0] = "abc"
        with pytest.raises(DomainError):
            self._client().report_batch(matrix, 0)

    def test_complex_records(self):
        matrix = records(3, 0) + 1j
        with pytest.raises(DomainError):
            self._client().report_batch(matrix, 0)

    def test_huge_categorical_label(self):
        matrix = records(3, 0)
        matrix[0, 5] = 1e20
        with pytest.raises(DomainError, match="'grr'"):
            self._client().report_batch(matrix, 0)
        with pytest.raises(DomainError):
            SCHEMA["grr"].validate_column(np.array([1e20]))

    def test_non_numeric_column(self):
        with pytest.raises(DomainError):
            SCHEMA["pw"].validate_column(np.array(["0.5"]))


class TestSamplingBounds:
    @pytest.mark.parametrize(
        "users,sampled", [(4, -1), (4, 0), (4, 6), (-1, 2)]
    )
    def test_out_of_range_rejected(self, users, sampled):
        with pytest.raises(DimensionError):
            sample_attribute_mask(users, 5, sampled, np.random.default_rng(0))


class TestIntegralSampling:
    @pytest.mark.parametrize("cls", [LDPClient, LDPServer])
    def test_non_integral_m_rejected(self, cls):
        with pytest.raises(DimensionError, match="sampled_dimensions"):
            cls(SCHEMA, 1.0, 2.5)

    def test_non_integral_dimensions_rejected(self):
        with pytest.raises(DimensionError, match="dimensions"):
            BudgetPlan(epsilon=1.0, dimensions=4.0, sampled_dimensions=2)

    def test_numpy_integers_accepted(self):
        client = LDPClient(SCHEMA, 1.0, np.int64(2))
        assert client.plan.sampled_dimensions == 2
        assert type(client.plan.sampled_dimensions) is int


class TestPipelineBoundary:
    def test_out_of_domain_data_rejected(self):
        data = np.zeros((5, 3))
        data[2, 1] = 1.5
        with pytest.raises(DomainError):
            collect_means(LaplaceMechanism(), 1.0, data, rng=0)

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            collect_means(LaplaceMechanism(), 1.0, np.zeros((5, 2, 1)), rng=0)
