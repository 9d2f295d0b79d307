"""Exact, order-invariant streaming accumulation.

Floating-point addition is not associative, so a naive streaming
collector ("add each batch's column sum to a running total") produces
estimates that depend on *how* the report stream was batched — and a
sharded collector would additionally depend on how batches were routed
across shards and in which order the shards were merged.

:class:`StreamingSum` removes the problem at the root: it accumulates the
**exact** sum. Every float64 is an integer multiple of ``2**-1074``, so a
column sum is representable as one arbitrary-precision integer.
:meth:`StreamingSum.value` rounds the exact integer sum to the nearest
float64 (integer true division is correctly rounded).

Consequences, all load-bearing for the distributed collection API:

* **batching invariance** — the value after ten small batches is
  bit-identical to the value after one concatenated batch;
* **order invariance** — permuting the batches (e.g. routing them
  round-robin over shards) cannot change the value;
* **exact merge** — merging two accumulators is big-int addition, so a
  shard-merged estimate is bit-identical to one-shot ingestion, and a
  snapshot/restore cycle resumes a round without losing a single ulp.

One vectorized kernel computes the exact sums of ragged columns (flat
values plus a column id per value), so :func:`add_blocks` can fold every
sum-backed attribute of a batch in one call. Each pass of the kernel:

1. splits values with :func:`numpy.frexp` into 53-bit integer mantissas
   at known exponents, and each mantissa into 27-bit high/low halves;
2. reduces the halves with two :func:`numpy.bincount` calls keyed by
   (column, exponent bin) — exact, since partial sums stay below 2**53;
3. turns each column's bins into 32-bit limbs with ``int64`` arithmetic
   and one carry pass over the limbs;
4. builds each column's integer with one :meth:`int.from_bytes` and one
   shift.

A pass takes at most :data:`_PASS_VALUES` values and a (column, bit)
table of at most :data:`_PASS_CELLS` cells, so the working set stays
small however large the batch; a column may straddle passes, since each
pass adds its partial sums exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import AggregationError, DimensionError, DomainError, WireFormatError

#: ``frexp`` exponents of finite float64 values lie in [-1073, 1024];
#: shifting by the offset makes every bit position non-negative.
_EXPONENT_OFFSET = 1073

#: Accumulators store ``sum * 2**_SCALE_BITS`` as exact integers: a
#: mantissa contributes ``m * 2**(e - 53)``, i.e. ``m << (e + 1073)``
#: at this scale.
_SCALE_BITS = _EXPONENT_OFFSET + 53
_SCALE_DEN = 1 << _SCALE_BITS

#: 53-bit mantissas are split into 27-bit halves so :func:`numpy.bincount`
#: reduces them in float64 without rounding.
_SPLIT_BITS = 27

#: Values per kernel pass. With at most 2**16 halves per bin, every bin
#: sum stays below 2**43: exact in float64 and in ``int64``.
_PASS_VALUES = 1 << 16

#: Cells of one pass's (column, bit position) table, so a pass over many
#: columns with a wide exponent spread still has a small working set.
_PASS_CELLS = 1 << 18

_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Identifier stamped into (and required from) state dictionaries.
STATE_KIND = "exact-sum"


def _exact_column_sums(
    values: np.ndarray, columns: np.ndarray, width: int
) -> List[int]:
    """Exact sums of ragged columns, scaled by ``2**_SCALE_BITS``.

    ``values[i]`` (finite float64) belongs to column ``columns[i]``;
    ``columns`` is non-decreasing, so each column's values are
    contiguous. Returns one Python int per column, 0 for empty ones.
    """
    totals = [0] * width
    start, count = 0, values.shape[0]
    while start < count:
        stop = min(start + _PASS_VALUES, count)
        mantissa, exponent = np.frexp(values[start:stop])
        base = int(exponent.min())
        span = int(exponent.max()) - base + 1
        limbs = -(-(span + _SPLIT_BITS) // _LIMB_BITS)
        first = int(columns[start])
        limit = first + max(1, _PASS_CELLS // (limbs * _LIMB_BITS))
        if int(columns[stop - 1]) >= limit:
            stop = start + int(np.searchsorted(columns[start:stop], limit))
            mantissa, exponent = mantissa[: stop - start], exponent[: stop - start]
        used = int(columns[stop - 1]) - first + 1
        # Exact: frexp mantissas lie in ±[0.5, 1) with 53 significant
        # bits, so scaled by 2**26 the floor is the high half of the
        # integer mantissa m * 2**53 and the remainder is its low 27 bits
        # over 2**27. Bin sums of <= 2**16 halves stay below 2**43.
        low = np.multiply(mantissa, float(1 << (53 - _SPLIT_BITS)), out=mantissa)
        high = np.floor(low)
        low -= high
        index = columns[start:stop] * span
        index += exponent
        index -= first * span + base
        size = used * span
        # bits[c, p]: the integer coefficient of 2**p in column c's sum
        # (relative to 2**(base + _EXPONENT_OFFSET)); |bits| < 2**44.
        bits = np.zeros((used, limbs * _LIMB_BITS), dtype=np.int64)
        for weights, scale, at in ((low, 1 << _SPLIT_BITS, 0), (high, 1, _SPLIT_BITS)):
            sums = np.bincount(index, weights=weights, minlength=size) * scale
            bits[:, at : at + span] += sums.astype(np.int64).reshape(used, span)
        # Spread each coefficient over 32-bit limbs: position p = 32q + r
        # lands in limbs q, q+1 (low word) and q+1, q+2 (high word).
        bits = bits.reshape(used, limbs, _LIMB_BITS)
        offsets = np.arange(_LIMB_BITS, dtype=np.int64)
        low_word = (bits & _LIMB_MASK) << offsets
        high_word = (bits >> _LIMB_BITS) << offsets
        acc = np.zeros((used, limbs + 2), dtype=np.int64)
        acc[:, :limbs] += (low_word & _LIMB_MASK).sum(axis=2)
        acc[:, 1 : limbs + 1] += (low_word >> _LIMB_BITS).sum(axis=2)
        acc[:, 1 : limbs + 1] += (high_word & _LIMB_MASK).sum(axis=2)
        acc[:, 2:] += (high_word >> _LIMB_BITS).sum(axis=2)
        for limb in range(limbs + 1):
            acc[:, limb + 1] += acc[:, limb] >> _LIMB_BITS
            acc[:, limb] &= _LIMB_MASK
        # Two limbs of headroom keep the top limb in [-2**31, 2**31), so
        # its low 32 bits are the two's-complement sign word.
        raw = memoryview((acc & _LIMB_MASK).astype("<u4").tobytes())
        step = 4 * (limbs + 2)
        shift = base + _EXPONENT_OFFSET
        for column in range(used):
            part = int.from_bytes(
                raw[column * step : (column + 1) * step], "little", signed=True
            )
            totals[first + column] += part << shift
        start = stop
    return totals


def add_blocks(pairs: Sequence[Tuple["StreamingSum", np.ndarray]]) -> None:
    """Exactly add each ``(k, width)`` block to its accumulator.

    All blocks go through one :func:`_exact_column_sums` call. The blocks
    must already be finite float64 arrays of their accumulator's width
    (:meth:`StreamingSum.add` checks; the server passes payloads its
    collectors validated) — a NaN would corrupt a sum silently.
    """
    pairs = [(acc, block) for acc, block in pairs if block.shape[0]]
    if not pairs:
        return
    values = np.concatenate([block.T.reshape(-1) for _, block in pairs])
    lengths = np.repeat(
        [block.shape[0] for _, block in pairs], [acc.width for acc, _ in pairs]
    )
    columns = np.repeat(np.arange(lengths.shape[0]), lengths)
    totals = _exact_column_sums(values, columns, lengths.shape[0])
    offset = 0
    for acc, block in pairs:
        for column in range(acc.width):
            acc._acc[column] += totals[offset + column]
        acc._rows += block.shape[0]
        offset += acc.width


def _strict_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class StreamingSum:
    """Exact streaming column sums, invariant to batching *and* order.

    Parameters
    ----------
    width:
        Number of columns being summed (an integer >= 1).
    """

    def __init__(self, width: int) -> None:
        if isinstance(width, bool) or not isinstance(width, (int, np.integer)):
            raise DimensionError("width must be an integer, got %r" % (width,))
        width = int(width)
        if width < 1:
            raise DimensionError("width must be >= 1, got %d" % width)
        self.width = width
        self._acc: List[int] = [0] * self.width
        self._rows = 0

    @property
    def rows(self) -> int:
        """Total number of rows accumulated so far."""
        return self._rows

    def add(self, rows: np.ndarray, assume_finite: bool = False) -> None:
        """Accumulate a ``(k, width)`` batch of rows (``k`` may be 0).

        ``assume_finite`` skips the non-finite guard for callers that
        already validated the block (the collectors' fold path scans
        payloads once in ``check_payload``).
        """
        block = np.asarray(rows, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None]
        if block.ndim != 2 or block.shape[1] != self.width:
            raise DimensionError(
                "expected (k, %d) rows, got %s" % (self.width, block.shape)
            )
        if not assume_finite and not np.all(np.isfinite(block)):
            raise DomainError("cannot accumulate non-finite values")
        add_blocks([(self, block)])

    def value(self) -> np.ndarray:
        """Current column sums (does not mutate the accumulator).

        Equal, bit for bit, to the value any other batching — or any
        other *ordering* — of the same rows would produce: the integer
        accumulator is exact and the final division rounds correctly.
        """
        out = np.empty(self.width, dtype=np.float64)
        for column, acc in enumerate(self._acc):
            try:
                out[column] = acc / _SCALE_DEN
            except OverflowError:
                raise AggregationError(
                    "exact column sum exceeds the float64 range"
                ) from None
        return out

    def merge(self, other: "StreamingSum") -> None:
        """Fold ``other``'s rows into this accumulator (exactly).

        Bit-identical to having added ``other``'s rows directly, in any
        order. ``other`` is left untouched.
        """
        if not isinstance(other, StreamingSum) or other.width != self.width:
            raise DimensionError(
                "can only merge a StreamingSum of width %d" % self.width
            )
        for column in range(self.width):
            self._acc[column] += other._acc[column]
        self._rows += other._rows

    def reset(self) -> None:
        """Discard all accumulated rows."""
        self._acc = [0] * self.width
        self._rows = 0

    # ------------------------------------------------------------- snapshots

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the exact accumulator state."""
        return {
            "kind": STATE_KIND,
            "width": self.width,
            "rows": self._rows,
            "scale_bits": _SCALE_BITS,
            "sums": list(self._acc),
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "StreamingSum":
        """Reconstruct an accumulator from :meth:`state_dict` output."""
        if not isinstance(state, dict) or state.get("kind") != STATE_KIND:
            raise WireFormatError(
                "not a %r state dictionary: %r" % (STATE_KIND, state)
            )
        fields = {key: state.get(key) for key in ("scale_bits", "width", "rows")}
        sums = state.get("sums")
        if not (
            all(_strict_int(value) for value in fields.values())
            and isinstance(sums, list)
            and all(_strict_int(total) for total in sums)
        ):
            raise WireFormatError(
                "malformed accumulator state: scale_bits, width, rows and "
                "every sum must be an int"
            )
        if fields["scale_bits"] != _SCALE_BITS:
            raise WireFormatError(
                "unsupported accumulator scale %r" % fields["scale_bits"]
            )
        width, rows = fields["width"], fields["rows"]
        if width < 1 or len(sums) != width or rows < 0 or (rows == 0 and any(sums)):
            raise WireFormatError(
                "accumulator state is inconsistent: width=%d, %d sums, rows=%d"
                % (width, len(sums), rows)
            )
        restored = cls(width)
        restored._acc = list(sums)
        restored._rows = rows
        return restored
