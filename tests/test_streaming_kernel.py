"""The exact ragged-column sum kernel and the one-call batch fold.

The kernel (:func:`repro.session.streaming._exact_column_sums`) is
checked against a ``fractions.Fraction`` oracle, including extreme
exponent spreads and columns that straddle the per-pass caps. The
server-level tests pin that folding every sum-backed attribute of a
batch in one kernel call leaves exactly the state one-attribute-at-a-time
folding leaves.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, DomainError, WireFormatError
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    ReportBatch,
    Schema,
    ShardedServer,
    StreamingSum,
)
from repro.session import streaming
from repro.session.streaming import _SCALE_BITS, _exact_column_sums, add_blocks


def _oracle(column) -> int:
    """Exact scaled sum of one column, by rational arithmetic."""
    total = sum((Fraction(float(v)) for v in column), Fraction(0))
    scaled = total * (1 << _SCALE_BITS)
    assert scaled.denominator == 1
    return scaled.numerator


def _kernel(columns):
    values = np.array([v for column in columns for v in column], dtype=np.float64)
    ids = np.repeat(np.arange(len(columns)), [len(column) for column in columns])
    return _exact_column_sums(values, ids, len(columns))


def _small_caps(values, cells):
    return mock.patch.multiple(
        streaming, _PASS_VALUES=values, _PASS_CELLS=cells
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestKernelAgainstFractions:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(FINITE, max_size=30), min_size=1, max_size=10))
    def test_ragged_columns(self, columns):
        assert _kernel(columns) == [_oracle(column) for column in columns]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(FINITE, max_size=30), min_size=1, max_size=10),
        st.integers(1, 9),
        st.sampled_from([1, 64, 4096]),
    )
    def test_columns_split_across_small_pass_caps(self, columns, values, cells):
        with _small_caps(values, cells):
            got = _kernel(columns)
        assert got == [_oracle(column) for column in columns]

    def test_empty_columns_are_zero(self):
        assert _kernel([[], [1.5], [], [], [-2.0, 2.0], []]) == [
            0,
            _oracle([1.5]),
            0,
            0,
            0,
            0,
        ]

    def test_signed_zeros_and_subnormals(self):
        columns = [[0.0, -0.0], [5e-324, -5e-324, 5e-324], [2.2e-308, -1e-310]]
        assert _kernel(columns) == [_oracle(column) for column in columns]

    def test_full_exponent_span_in_one_column(self):
        """±1e308 next to 1e-308 and a subnormal: ~2,098 exponent bins."""
        column = [1e308, 1e-308, -1e308, 5e-324, 1e308, -0.0, -1e-308, 3.0]
        assert _kernel([column, [1.0]]) == [_oracle(column), _oracle([1.0])]
        with _small_caps(3, 1):
            assert _kernel([column, [1.0]]) == [_oracle(column), _oracle([1.0])]

    def test_column_straddles_the_real_pass_cap(self):
        """More than 2**16 values, one column split across two passes."""
        gen = np.random.default_rng(11)
        lengths = [100, streaming._PASS_VALUES + 50, 30]
        columns = [gen.normal(size=n) * 1e3 for n in lengths]
        assert sum(lengths) > 1 << 16
        assert _kernel(columns) == [_oracle(column) for column in columns]

    def test_many_columns_with_a_wide_spread_respect_the_cell_cap(self):
        gen = np.random.default_rng(12)
        rows = gen.normal(size=(3, 400)) * 10.0 ** gen.integers(-300, 300, (3, 400))
        columns = list(rows.T)
        spread = 2 * (streaming._EXPONENT_OFFSET + 1)
        assert len(columns) * spread > streaming._PASS_CELLS
        assert _kernel(columns) == [_oracle(column) for column in columns]


class TestAddBlocks:
    def test_ragged_blocks_match_per_block_adds(self):
        gen = np.random.default_rng(13)
        shapes = [(5, 1), (0, 3), (7, 4), (1, 1), (12, 2)]
        blocks = [gen.normal(size=shape) * 1e6 for shape in shapes]
        together = [StreamingSum(shape[1]) for shape in shapes]
        add_blocks(list(zip(together, blocks)))
        for acc, block in zip(together, blocks):
            alone = StreamingSum(block.shape[1])
            alone.add(block)
            assert acc.state_dict() == alone.state_dict()
            assert acc.state_dict()["sums"] == [_oracle(col) for col in block.T]

    def test_add_rejects_non_finite_before_folding(self):
        acc = StreamingSum(2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                acc.add(np.array([[1.0, 2.0], [bad, 3.0]]))
        assert acc.rows == 0 and acc.state_dict()["sums"] == [0, 0]


class TestStrictStreamingSumInputs:
    @pytest.mark.parametrize("width", [2.5, True, False, "2", 2.0])
    def test_non_integer_width_rejected(self, width):
        with pytest.raises(DimensionError):
            StreamingSum(width)

    def test_numpy_integer_width_accepted(self):
        acc = StreamingSum(np.int64(3))
        assert acc.width == 3 and type(acc.width) is int

    def _state(self, **changes):
        acc = StreamingSum(2)
        acc.add(np.array([[1.0, 2.0]]))
        state = acc.state_dict()
        state.update(changes)
        return state

    def test_float_sum_rejected(self):
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(self._state(sums=[2.5, 0]))

    def test_string_sum_rejected(self):
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(self._state(sums=["7", 0]))

    def test_float_width_rejected(self):
        acc = StreamingSum(1)
        acc.add(np.array([[1.0]]))
        state = acc.state_dict()
        state["width"] = 1.9
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(state)

    def test_bool_rows_rejected(self):
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(self._state(rows=True))

    def test_zero_rows_with_nonzero_sum_rejected(self):
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(self._state(rows=0))

    def test_valid_state_round_trips(self):
        state = self._state()
        assert StreamingSum.from_state_dict(state).state_dict() == state


# ------------------------------------------------------------ server fold


class _PerAttributeServer(LDPServer):
    """Reference: folds one attribute at a time through ``collector.fold``."""

    def _fold_validated(self, users, canonical):
        for name, payload in canonical.items():
            self.collectors[name].fold(self._states[name], payload)
        self._users += users


MIXED = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b", domain=(0.0, 10.0)),
        CategoricalAttribute("h", n_categories=5),
        CategoricalAttribute("o", n_categories=4),
        NumericAttribute("c"),
    ]
)
SPEC = {"o": "oue"}
EPSILON = 2.0
SAMPLED = 2


def _mixed_batches(count=5, users=60):
    client = LDPClient(MIXED, EPSILON, SAMPLED, protocols=SPEC)
    batches = []
    for seed in range(count):
        gen = np.random.default_rng(seed)
        records = np.column_stack(
            [
                gen.uniform(-1, 1, users),
                gen.uniform(0, 10, users),
                gen.integers(0, 5, users),
                gen.integers(0, 4, users),
                gen.uniform(-1, 1, users),
            ]
        )
        batches.append(client.report_batch(records, seed))
    return client, batches


def _hex(estimate):
    return {
        attr.name: [float(v).hex() for v in attr.raw] for attr in estimate.attributes
    }


class TestOneCallBatchFold:
    def _reference(self, batches):
        reference = _PerAttributeServer(MIXED, EPSILON, SAMPLED, protocols=SPEC)
        for batch in batches:
            reference.ingest(batch)
        return reference

    def test_ingest_matches_per_attribute_folding(self):
        _, batches = _mixed_batches()
        server = LDPServer(MIXED, EPSILON, SAMPLED, protocols=SPEC)
        for batch in batches:
            server.ingest(batch)
        reference = self._reference(batches)
        assert _hex(server.estimate()) == _hex(reference.estimate())
        assert server.state_dict() == reference.state_dict()

    def test_ingest_encoded_matches_per_attribute_folding(self):
        client, batches = _mixed_batches()
        server = LDPServer(MIXED, EPSILON, SAMPLED, protocols=SPEC)
        for batch in batches:
            server.ingest_encoded(client.encode(batch))
        reference = self._reference(batches)
        assert _hex(server.estimate()) == _hex(reference.estimate())
        assert server.state_dict() == reference.state_dict()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_matches_per_attribute_folding(self, shards):
        client, batches = _mixed_batches()
        sharded = ShardedServer(
            MIXED, EPSILON, SAMPLED, protocols=SPEC, shards=shards
        )
        for batch in batches:
            sharded.ingest_encoded(client.encode(batch))
        reference = self._reference(batches)
        assert _hex(sharded.estimate()) == _hex(reference.estimate())
        assert sharded.state_dict() == reference.state_dict()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", ["a", "h"])
    def test_non_finite_payload_rejected_before_any_fold(self, bad, target):
        _, batches = _mixed_batches(count=2)
        server = LDPServer(MIXED, EPSILON, SAMPLED, protocols=SPEC)
        server.ingest(batches[0])
        before = server.state_dict()
        good = batches[1]
        payloads = dict(good.payloads)
        poisoned = np.array(payloads[target], dtype=np.float64)
        poisoned.flat[-1] = bad
        payloads[target] = poisoned
        batch = ReportBatch(good.users, payloads, good.counts, good.protocols)
        with pytest.raises(DomainError):
            server.ingest([good, batch])
        assert server.state_dict() == before
