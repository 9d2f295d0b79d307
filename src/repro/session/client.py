"""User-side of the unified collection API.

:class:`LDPClient` perturbs whole typed records: each user samples exactly
``m`` of the schema's ``d`` attributes (the paper's Section III-B sampling
— never more, so the collective budget ``ε`` is spent exactly), perturbs
every sampled attribute with its bound protocol under the per-attribute
budget ``ε/m``, and packages the results as a :class:`ReportBatch` that
:class:`repro.session.LDPServer` can ingest incrementally.

The client is vectorized over users: :meth:`LDPClient.report_batch`
processes an ``(n, d)`` record matrix in one go, and
:meth:`LDPClient.report` is the single-record convenience on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..exceptions import DimensionError
from ..protocol.budget import BudgetPlan
from ..rng import RngLike, ensure_rng
from ..wire.codec import encode_batch
from ..wire.contract import CollectionContract
from .adapters import AttributeCollector, CollectionProtocol
from .schema import Schema

#: Spec for choosing perturbation protocols: a single name/protocol for
#: every attribute, or a per-attribute-name mapping.
ProtocolSpec = Union[None, str, CollectionProtocol, Mapping[str, Union[str, CollectionProtocol]]]

#: Protocol used when none is specified (serves numeric and categorical).
DEFAULT_PROTOCOL = "piecewise"


def sample_attribute_indices(
    users: int, dimensions: int, sampled: int, gen: np.random.Generator
) -> np.ndarray:
    """``(users, m)`` column ids; each row is one uniform size-``m`` subset.

    Row-vectorized Floyd sampling (Bentley & Floyd, CACM 1987) draws
    ``k = m`` ids per row in ``k`` numpy steps over all users: the step
    for ``top`` draws ``t`` uniformly from ``[0, top]`` and takes ``top``
    instead when the row already holds ``t``. Every size-``k`` subset is
    exactly equally likely. When ``m > d/2`` the ``k = d − m`` excluded
    ids are drawn instead and each row is their complement, so the work
    is ``O(n·min(m, d − m))`` draws; at ``m = d`` nothing is drawn. The
    order of ids within a row carries no meaning. Needs ``users ≥ 0``
    and ``1 ≤ sampled ≤ dimensions``.
    """
    if users < 0 or not 1 <= sampled <= dimensions:
        raise DimensionError(
            "need users >= 0 and 1 <= sampled <= dimensions, got users=%d, "
            "sampled=%d, dimensions=%d" % (users, sampled, dimensions)
        )
    if sampled == dimensions:
        return np.tile(np.arange(dimensions), (users, 1))
    drawn = min(sampled, dimensions - sampled)
    taken = np.zeros(users * dimensions, dtype=bool)
    starts = np.arange(users, dtype=np.int64) * dimensions
    picks = np.empty((drawn, users), dtype=np.int64)
    for step, top in enumerate(range(dimensions - drawn, dimensions)):
        pick = gen.integers(0, top + 1, size=users)
        pick[taken[starts + pick]] = top
        taken[starts + pick] = True
        picks[step] = pick
    if drawn == sampled:
        return np.ascontiguousarray(picks.T)
    every = np.broadcast_to(np.arange(dimensions), (users, dimensions))
    return every[~taken.reshape(users, dimensions)].reshape(users, sampled)


def sample_attribute_mask(
    users: int, dimensions: int, sampled: int, gen: np.random.Generator
) -> np.ndarray:
    """Boolean ``(users, d)`` mask with exactly ``m`` True per row.

    The mask of :func:`sample_attribute_indices`: same draws, same
    errors.
    """
    picks = sample_attribute_indices(users, dimensions, sampled, gen)
    mask = np.zeros((users, dimensions), dtype=bool)
    mask[np.arange(users)[:, None], picks] = True
    return mask


def resolve_collectors(
    schema: Schema, plan: BudgetPlan, protocols: ProtocolSpec = None
) -> Dict[str, AttributeCollector]:
    """Bind one :class:`AttributeCollector` per schema attribute.

    ``protocols`` may be ``None`` (use :data:`DEFAULT_PROTOCOL`
    everywhere), a single registry name or protocol object applied to all
    attributes, or a mapping from attribute name to name/protocol with
    the default filling the gaps. Client and server must be constructed
    with the same spec — it is part of the collection contract, like the
    schema and the budget plan.
    """
    from ..mechanisms.registry import get_protocol

    if plan.dimensions != schema.dimensions:
        raise DimensionError(
            "budget plan covers %d dimensions, schema has %d"
            % (plan.dimensions, schema.dimensions)
        )

    resolved: Dict[str, CollectionProtocol] = {}

    def _as_protocol(spec: Union[str, CollectionProtocol]) -> CollectionProtocol:
        if not isinstance(spec, str):
            return spec
        if spec not in resolved:
            resolved[spec] = get_protocol(spec)
        return resolved[spec]

    per_attribute: Dict[str, Union[str, CollectionProtocol]] = {}
    if protocols is None or isinstance(protocols, (str, CollectionProtocol)):
        shared = protocols if protocols is not None else DEFAULT_PROTOCOL
        per_attribute = {name: shared for name in schema.names}
    else:
        unknown = set(protocols) - set(schema.names)
        if unknown:
            raise DimensionError(
                "protocol spec names unknown attributes: %s"
                % ", ".join(sorted(unknown))
            )
        per_attribute = {
            name: protocols.get(name, DEFAULT_PROTOCOL) for name in schema.names
        }

    epsilon = plan.epsilon_per_dimension
    collectors: Dict[str, AttributeCollector] = {}
    for attr in schema:
        protocol = _as_protocol(per_attribute[attr.name])
        collector = protocol.bind(attr, epsilon)
        collector.protocol_name = protocol.name
        collectors[attr.name] = collector
    return collectors


@dataclass(frozen=True)
class ReportBatch:
    """Perturbed submissions of a batch of users, keyed by attribute.

    Attributes
    ----------
    users:
        Number of users in the batch.
    payloads:
        Protocol-specific report payloads per attribute name; an
        attribute is present only if at least one user sampled it.
    counts:
        Number of contributing users per attribute name (aligned with
        ``payloads``).
    protocols:
        Registry name of the protocol that produced each payload. The
        server refuses payloads whose protocol disagrees with its own —
        mismatched report families can be shape-compatible (e.g. OUE bit
        matrices vs histogram-encoded entries) and would otherwise
        aggregate into silent garbage.
    """

    users: int
    payloads: Mapping[str, Any]
    counts: Mapping[str, int]
    protocols: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.payloads) != set(self.counts):
            raise DimensionError("payloads and counts disagree on attributes")

    @property
    def total_reports(self) -> int:
        """Total attribute reports in the batch (``≤ users · m``)."""
        return int(sum(self.counts.values()))

    @staticmethod
    def concat(
        batches: Sequence["ReportBatch"],
        collectors: Mapping[str, AttributeCollector],
    ) -> "ReportBatch":
        """Concatenate batches into one (for one-shot ingestion).

        Payload order follows batch order, so ingesting the result is
        equivalent — bit for bit — to ingesting the batches in sequence.
        """
        if not batches:
            raise DimensionError("need at least one batch to concatenate")
        payloads: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        protocols: Dict[str, str] = {}
        for name, collector in collectors.items():
            parts = [b.payloads[name] for b in batches if name in b.payloads]
            if not parts:
                continue
            payloads[name] = collector.concat_payloads(parts)
            counts[name] = sum(b.counts[name] for b in batches if name in b.counts)
            names = {b.protocols[name] for b in batches if name in b.protocols}
            if len(names) > 1:
                raise DimensionError(
                    "attribute %r: batches mix protocols %s"
                    % (name, ", ".join(sorted(names)))
                )
            if names:
                protocols[name] = names.pop()
        return ReportBatch(
            users=sum(b.users for b in batches),
            payloads=payloads,
            counts=counts,
            protocols=protocols,
        )


class LDPClient:
    """Local perturbation agent for typed records.

    Parameters
    ----------
    schema:
        The record :class:`~repro.session.Schema` shared with the server.
    epsilon:
        Collective per-user privacy budget ``ε``.
    sampled_attributes:
        The ``m`` of the protocol — how many attributes each user
        reports; defaults to all of them.
    protocols:
        Protocol spec (see :func:`resolve_collectors`): one registry name
        for every attribute, or a per-attribute mapping. Mechanism names
        serve both attribute kinds; oracle names (``"grr"``/``"oue"``/
        ``"olh"``) serve categorical attributes only.
    """

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
    ) -> None:
        m = schema.dimensions if sampled_attributes is None else sampled_attributes
        self.schema = schema
        self.plan = BudgetPlan(
            epsilon=epsilon, dimensions=schema.dimensions, sampled_dimensions=m
        )
        self.collectors = resolve_collectors(schema, self.plan, protocols)
        self.contract = CollectionContract.for_session(
            schema, self.plan, self.collectors
        )

    def report_batch(self, records: np.ndarray, rng: RngLike = None) -> ReportBatch:
        """Sample, perturb and package an ``(n, d)`` batch of records.

        The whole matrix is validated once, unsampled values included.
        Each user's ``m`` column ids come from
        :func:`sample_attribute_indices`; one stable sort of the flat ids
        groups the sampled values by attribute in schema order and by
        user within an attribute, and one gather reads them out of the
        validated matrix. At ``m = d`` nothing is sampled and the values
        are the matrix's columns in order. Each attribute's slice is then
        privatized in schema order; the generator's draws are consumed
        by the sampler first, then by the attributes in that order.
        """
        gen = ensure_rng(rng)
        matrix = self.schema.validate_matrix(records)
        users, dimensions = matrix.shape
        sampled = self.plan.sampled_dimensions
        if sampled == dimensions:
            values = matrix.T.ravel()
            ends = users * np.arange(1, dimensions + 1)
        else:
            picks = sample_attribute_indices(users, dimensions, sampled, gen).ravel()
            keys = picks.astype(np.int16) if dimensions < 2**15 else picks
            order = np.argsort(keys, kind="stable")
            per_column = np.bincount(picks, minlength=dimensions)
            columns = np.repeat(np.arange(dimensions), per_column)
            values = matrix.take(order // sampled * dimensions + columns)
            ends = np.cumsum(per_column)
        payloads: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        protocols: Dict[str, str] = {}
        start = 0
        for attr, end in zip(self.schema, ends.tolist()):
            if end == start:
                continue
            collector = self.collectors[attr.name]
            payloads[attr.name] = collector.privatize(values[start:end], gen)
            counts[attr.name] = end - start
            protocols[attr.name] = collector.protocol_name
            start = end
        return ReportBatch(
            users=users, payloads=payloads, counts=counts, protocols=protocols
        )

    def report(self, record: np.ndarray, rng: RngLike = None) -> ReportBatch:
        """Sample, perturb and package one user's record."""
        arr = self.schema.validate_record(record)
        return self.report_batch(arr[None, :], rng)

    def encode(self, batch: ReportBatch) -> bytes:
        """Encode a batch for the wire under this client's contract."""
        return encode_batch(batch, self.contract)

    def report_encoded(self, records: np.ndarray, rng: RngLike = None) -> bytes:
        """Sample, perturb and wire-encode an ``(n, d)`` batch of records.

        The produced frame embeds the client's contract fingerprint; a
        server constructed under the same schema/budget/protocols accepts
        it via :meth:`~repro.session.LDPServer.ingest_encoded`.
        """
        return self.encode(self.report_batch(records, rng))
