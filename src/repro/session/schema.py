"""Typed record schemas for the unified collection API.

A :class:`Schema` declares what one user's record looks like: an ordered
list of named, typed attributes. Two attribute types cover the paper's two
estimation tasks:

* :class:`NumericAttribute` — a real value inside a declared interval
  (mean estimation, Sections III–V of the paper);
* :class:`CategoricalAttribute` — an integer label in ``[0, v)``
  (frequency estimation, Section V-C / the Wang et al. oracles).

The schema is the contract shared by :class:`~repro.session.LDPClient`
and :class:`~repro.session.LDPServer`: the client validates and encodes a
record against it before perturbing, the server uses it to shape its
aggregation state and to interpret estimates. Records travel as ``(n, d)``
float matrices in schema order; categorical columns hold integer labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..mechanisms.base import DOMAIN_ATOL, STANDARD_DOMAIN, domain_violation


#: ``(column within the block, reason)`` of a block's first bad column.
Violation = Optional[Tuple[int, str]]


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as float64; strings, complex numbers and objects are refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise DomainError("%s must be real numbers, got dtype %s" % (what, arr.dtype))
    return arr.astype(np.float64, copy=False)


def _categorical_violation(block: np.ndarray, n_categories: np.ndarray) -> Violation:
    """First column of an ``(n, k)`` block that is not labels in ``[0, v)``.

    The range is checked on the floats, so a label too large for ``int64``
    is rejected before any cast.
    """
    if not block.size:
        return None
    low, high = block.min(axis=0), block.max(axis=0)
    finite = np.isfinite(low) & np.isfinite(high)
    with np.errstate(invalid="ignore"):
        integral = (np.abs(block - np.rint(block)) <= 1e-9).all(axis=0)
    in_range = (np.rint(low) >= 0) & (np.rint(high) < n_categories)
    bad = ~(finite & integral & in_range)
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    if not finite[j]:
        return j, "labels must be finite integers"
    if not integral[j]:
        return j, "labels must be integers"
    return j, "labels must lie in [0, %d)" % n_categories[j]


def _raise(name: str, violation: Violation) -> None:
    if violation is not None:
        raise DomainError("attribute %r: %s" % (name, violation[1]))


@dataclass(frozen=True)
class NumericAttribute:
    """A real-valued attribute with a declared bounded domain.

    Attributes
    ----------
    name:
        Unique attribute name within the schema.
    domain:
        Closed interval of admissible original values; defaults to the
        library-standard ``[−1, 1]``.
    """

    name: str
    domain: Tuple[float, float] = STANDARD_DOMAIN

    #: Discriminator used by protocol adapters ("numeric"/"categorical").
    kind = "numeric"

    def __post_init__(self) -> None:
        if not self.name:
            raise DimensionError("attribute name must be non-empty")
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise DomainError(
                "numeric domain must be a finite non-degenerate interval, "
                "got [%r, %r]" % (self.domain[0], self.domain[1])
            )
        object.__setattr__(self, "domain", (lo, hi))

    def validate_column(self, column: np.ndarray, atol: float = DOMAIN_ATOL) -> np.ndarray:
        """Validate one data column against the domain; return float64."""
        arr = _real_array(column, "attribute %r: values" % self.name)
        lo, hi = self.domain
        _raise(
            self.name,
            domain_violation(arr.reshape(-1, 1), np.array([lo]), np.array([hi]), atol),
        )
        return np.clip(arr, lo, hi)


@dataclass(frozen=True)
class CategoricalAttribute:
    """An integer-label attribute over ``n_categories`` categories.

    Attributes
    ----------
    name:
        Unique attribute name within the schema.
    n_categories:
        Number of categories ``v`` (labels live in ``[0, v)``).
    """

    name: str
    n_categories: int

    kind = "categorical"

    def __post_init__(self) -> None:
        if not self.name:
            raise DimensionError("attribute name must be non-empty")
        if int(self.n_categories) < 2:
            raise DimensionError(
                "attribute %r: need at least two categories, got %d"
                % (self.name, self.n_categories)
            )
        object.__setattr__(self, "n_categories", int(self.n_categories))

    def validate_column(self, column: np.ndarray) -> np.ndarray:
        """Validate one label column; return int64 labels."""
        arr = _real_array(column, "attribute %r: labels" % self.name)
        _raise(
            self.name,
            _categorical_violation(arr.reshape(-1, 1), np.array([self.n_categories])),
        )
        return np.rint(arr).astype(np.int64)


Attribute = Union[NumericAttribute, CategoricalAttribute]


@dataclass(frozen=True)
class Schema:
    """Ordered, named, typed description of one user's record.

    Attributes
    ----------
    attributes:
        The typed attributes in record order. Names must be unique.
    """

    attributes: Tuple[Attribute, ...] = field(default_factory=tuple)

    def __init__(self, attributes: Sequence[Attribute]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise DimensionError("a schema needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DimensionError("duplicate attribute names: %s" % ", ".join(dupes))
        for attr in attrs:
            if getattr(attr, "kind", None) not in ("numeric", "categorical"):
                raise DimensionError(
                    "unsupported attribute type: %r" % (attr,)
                )
        object.__setattr__(self, "attributes", attrs)
        # The validation kernels' per-column inputs, fixed with the schema.
        numeric = [j for j, a in enumerate(attrs) if a.kind == "numeric"]
        categorical = [j for j, a in enumerate(attrs) if a.kind == "categorical"]
        for name, value in (
            ("_numeric", np.array(numeric, dtype=np.intp)),
            ("_lows", np.array([attrs[j].domain[0] for j in numeric])),
            ("_highs", np.array([attrs[j].domain[1] for j in numeric])),
            ("_categorical", np.array(categorical, dtype=np.intp)),
            ("_n_categories", np.array([attrs[j].n_categories for j in categorical])),
        ):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------- structure

    @property
    def dimensions(self) -> int:
        """Number of attributes ``d`` (the protocol's dimensionality)."""
        return len(self.attributes)

    @property
    def names(self) -> List[str]:
        """Attribute names in record order."""
        return [a.name for a in self.attributes]

    @property
    def numeric_indices(self) -> List[int]:
        """Column indices of the numeric attributes."""
        return self._numeric.tolist()

    @property
    def categorical_indices(self) -> List[int]:
        """Column indices of the categorical attributes."""
        return self._categorical.tolist()

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __getitem__(self, key: Union[int, str]) -> Attribute:
        """Look an attribute up by column index or by name."""
        if isinstance(key, str):
            for attr in self.attributes:
                if attr.name == key:
                    return attr
            raise KeyError(
                "unknown attribute %r; schema has: %s"
                % (key, ", ".join(self.names))
            )
        return self.attributes[key]

    # ------------------------------------------------------------ validation

    def validate_matrix(self, records: np.ndarray) -> np.ndarray:
        """Validate an ``(n, d)`` record matrix, one block per attribute kind.

        Returns a float64 copy whose numeric columns are clipped to their
        domains and whose categorical columns hold exact integer labels.
        A violation names the first offending attribute in column order.
        """
        matrix = _real_array(records, "records")
        if matrix.ndim == 1 and self.dimensions == 1:
            matrix = matrix[:, None]
        if matrix.ndim != 2 or matrix.shape[1] != self.dimensions:
            raise DimensionError(
                "expected (n, %d) records for schema [%s], got %s"
                % (self.dimensions, ", ".join(self.names), np.shape(records))
            )
        all_numeric = not self._categorical.size
        numeric = matrix if all_numeric else matrix[:, self._numeric]
        labels = matrix[:, self._categorical]
        found = []
        for columns, violation in (
            (self._numeric, domain_violation(numeric, self._lows, self._highs)),
            (self._categorical, _categorical_violation(labels, self._n_categories)),
        ):
            if violation is not None:
                found.append((columns[violation[0]], violation[1]))
        if found:
            column, reason = min(found)
            raise DomainError(
                "attribute %r: %s" % (self.attributes[column].name, reason)
            )
        if all_numeric:
            return np.clip(matrix, self._lows, self._highs)
        out = np.empty_like(matrix)
        out[:, self._numeric] = np.clip(numeric, self._lows, self._highs)
        out[:, self._categorical] = np.rint(labels)
        return out

    def validate_record(self, record: np.ndarray) -> np.ndarray:
        """Validate a single ``d``-dimensional record (1-D)."""
        arr = _real_array(record, "record").ravel()
        if arr.size != self.dimensions:
            raise DimensionError(
                "record must have %d attributes, got shape %s"
                % (self.dimensions, np.shape(record))
            )
        return self.validate_matrix(arr[None, :])[0]
