"""Protocol adapters: one surface over numeric mechanisms and oracles.

The repo grew two perturbation families with incompatible interfaces:
:class:`~repro.mechanisms.base.Mechanism` (numeric perturbation with
closed-form conditional moments) and
:class:`~repro.freq_oracles.base.FrequencyOracle` (categorical GRR/OUE/OLH
with closed-form estimation variances). This module puts both behind one
``privatize`` / ``aggregate`` / ``deviation_model`` surface so the session
client and server never dispatch on the family:

* :class:`CollectionProtocol` — an *unbound* protocol resolved from the
  unified registry (:func:`repro.mechanisms.registry.get_protocol`);
  :meth:`CollectionProtocol.bind` specializes it to one schema attribute
  and its per-attribute budget;
* :class:`AttributeCollector` — the bound object: the client side calls
  :meth:`~AttributeCollector.privatize`, the server side feeds an
  additive aggregation state via :meth:`~AttributeCollector.accumulate`
  and reads :meth:`~AttributeCollector.estimate` /
  :meth:`~AttributeCollector.deviation_model` from it.

Aggregation states are strictly additive (counts, streaming sums), which
is what makes :meth:`repro.session.LDPServer.ingest` incremental: the
estimate after ten small batches is bit-identical to the estimate after
one concatenated batch.

Budget semantics: a collector receives the whole per-attribute budget
``ε/m``. Numeric mechanisms spend it directly; histogram encoding spends
``ε/2m`` per one-hot entry (a category change flips two entries); the
oracles spend ``ε/m`` on the single label report. All three therefore
compose to the user's collective ``ε`` under the exactly-``m`` sampling
done by :class:`repro.session.LDPClient`.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Sequence

import numpy as np

from ..exceptions import AggregationError, DimensionError, DomainError, WireFormatError
from ..framework.deviation import bernoulli_sigmas, build_deviation_model
from ..framework.multivariate import MultivariateDeviationModel
from ..framework.population import ValueDistribution
from ..freq_oracles.base import FrequencyOracle
from ..freq_oracles.grr import GeneralizedRandomizedResponse
from ..freq_oracles.olh import OlhReports, OptimizedLocalHashing
from ..freq_oracles.oue import OptimizedUnaryEncoding
from ..hdr4me.frequency import adapt_to_unit_domain, one_hot_encode
from ..mechanisms.base import (
    AffineTransformedMechanism,
    Mechanism,
    affine_mean_map,
    validate_epsilon,
)
from ..rng import RngLike, ensure_rng
from .schema import Attribute, CategoricalAttribute, NumericAttribute
from .streaming import StreamingSum

def _require_snapshot_kind(snapshot: Any, kind: str) -> dict:
    """Validate a state snapshot's family tag; return the snapshot dict."""
    if not isinstance(snapshot, dict) or snapshot.get("kind") != kind:
        raise WireFormatError(
            "expected a %r state snapshot, got %r"
            % (kind, snapshot.get("kind") if isinstance(snapshot, dict) else snapshot)
        )
    return snapshot


class AttributeCollector(abc.ABC):
    """A protocol bound to one attribute and its per-attribute budget.

    Collectors own both halves of the attribute's collection: the
    client-side :meth:`privatize` and the server-side additive state
    (:meth:`new_state` / :meth:`accumulate`) with its readers
    (:meth:`estimate`, :meth:`deviation_model`).

    Validation and accumulation are split so ingestion can be atomic:
    :meth:`check_payload` validates and canonicalizes a report payload
    without touching any state, :meth:`fold` accumulates an
    already-canonical payload, and :meth:`accumulate` composes the two
    for direct callers. States are mergeable and serializable —
    :meth:`merge_states` folds one state into another exactly (the float
    accumulators are exact integers under the hood, see
    :mod:`repro.session.streaming`), and :meth:`snapshot` /
    :meth:`restore` round-trip a state through a JSON-able dictionary
    for checkpointing.
    """

    #: Registry name of the protocol that bound this collector (stamped by
    #: ``resolve_collectors``); lets the server reject report payloads
    #: produced under a different protocol.
    protocol_name: str = "unknown"

    def __init__(self, attribute: Attribute, epsilon: float) -> None:
        self.attribute = attribute
        self.epsilon = validate_epsilon(epsilon)

    # -------------------------------------------------------------- client

    @abc.abstractmethod
    def privatize(self, values: np.ndarray, rng: RngLike = None) -> Any:
        """Perturb the contributing users' values into a report payload.

        ``values`` is a float64 column already validated against the
        attribute (:meth:`repro.session.Schema.validate_matrix`); it is
        not checked again here.
        """

    # -------------------------------------------------------------- server

    @abc.abstractmethod
    def new_state(self) -> Any:
        """Fresh additive aggregation state for this attribute."""

    @abc.abstractmethod
    def check_payload(self, payload: Any) -> Any:
        """Validate one report payload without touching any state.

        Returns the canonical form :meth:`fold` accepts; raises
        :class:`DimensionError` / :class:`DomainError` on malformed
        payloads. Ingestion validates every payload of a batch through
        this *before* accumulating any of them, so a bad attribute can
        never leave earlier attributes' state partially updated.
        """

    @abc.abstractmethod
    def fold(self, state: Any, payload: Any) -> None:
        """Fold a canonical (already-validated) payload into the state."""

    def accumulate(self, state: Any, payload: Any) -> None:
        """Validate and fold one report payload into the state."""
        self.fold(state, self.check_payload(payload))

    def payload_rows(self, payload: Any) -> int:
        """Number of user reports a canonical payload carries."""
        return int(np.asarray(payload).shape[0])

    @abc.abstractmethod
    def merge_states(self, state: Any, other: Any) -> None:
        """Fold another aggregation state into ``state`` (exactly).

        Bit-identical to having accumulated the other state's payloads
        directly; ``other`` is left untouched.
        """

    @abc.abstractmethod
    def snapshot(self, state: Any) -> dict:
        """JSON-serializable snapshot of an aggregation state."""

    @abc.abstractmethod
    def restore(self, snapshot: dict) -> Any:
        """Rebuild an aggregation state from :meth:`snapshot` output.

        Raises :class:`~repro.exceptions.WireFormatError` when the
        snapshot belongs to a different state family or is malformed.
        """

    @abc.abstractmethod
    def reports(self, state: Any) -> int:
        """Number of user reports accumulated so far."""

    @abc.abstractmethod
    def estimate(self, state: Any) -> np.ndarray:
        """Calibrated estimate from the current state (non-destructive).

        Numeric attributes yield a length-1 vector (the mean); categorical
        attributes yield the length-``v`` frequency vector.
        """

    @abc.abstractmethod
    def deviation_model(self, state: Any) -> MultivariateDeviationModel:
        """Theorem-1-style deviation model of :meth:`estimate`'s output."""

    # ------------------------------------------------------------- payloads

    def concat_payloads(self, payloads: Sequence[Any]) -> Any:
        """Concatenate report payloads (default: stacked numpy arrays)."""
        return np.concatenate([np.asarray(p) for p in payloads], axis=0)

    def entry_means(self, state: Any) -> Optional[np.ndarray]:
        """Uncalibrated encoded-entry means, when the encoding has them."""
        return None

    def _require_reports(self, state: Any) -> int:
        count = self.reports(state)
        if count < 1:
            raise AggregationError(
                "attribute %r received no reports; increase n or m"
                % self.attribute.name
            )
        return count


class CollectionProtocol(abc.ABC):
    """Unbound perturbation protocol resolvable by name from the registry."""

    #: Registry-style short name.
    name: str = "abstract"

    @abc.abstractmethod
    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        """Specialize to one schema attribute under budget ``epsilon``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(name=%r)" % (type(self).__name__, self.name)


# --------------------------------------------------------------------------
# Numeric mechanisms (and their histogram-encoded categorical route)
# --------------------------------------------------------------------------


class SumStateMixin:
    """Merge/snapshot/restore shared by :class:`StreamingSum`-backed states.

    Subclasses set :attr:`state_kind` (the snapshot family tag) and
    override :meth:`_sum_width` when the state is wider than one column;
    the state object returned by ``new_state`` must carry its accumulator
    in a ``sums`` attribute. :meth:`sum_block` exposes the block
    :meth:`fold` adds, so a server can fold every sum-backed attribute of
    a batch in one :func:`~repro.session.streaming.add_blocks` call.
    """

    state_kind: str = "sum"

    def _sum_width(self) -> int:
        return 1

    def sum_block(self, payload: np.ndarray) -> np.ndarray:
        """The ``(k, width)`` block a canonical payload adds to ``sums``."""
        return payload

    def fold(self, state: Any, payload: np.ndarray) -> None:
        state.sums.add(self.sum_block(payload), assume_finite=True)

    def merge_states(self, state: Any, other: Any) -> None:
        state.sums.merge(other.sums)

    def snapshot(self, state: Any) -> dict:
        return {"kind": self.state_kind, "sums": state.sums.state_dict()}

    def restore(self, snapshot: dict) -> Any:
        data = _require_snapshot_kind(snapshot, self.state_kind)
        sums = StreamingSum.from_state_dict(data.get("sums"))
        if sums.width != self._sum_width():
            raise WireFormatError(
                "attribute %r: %s state must have width %d, got %d"
                % (
                    self.attribute.name,
                    self.state_kind,
                    self._sum_width(),
                    sums.width,
                )
            )
        state = self.new_state()
        state.sums = sums
        return state


class _NumericState:
    """Additive state for one numeric attribute: streaming sum + count."""

    __slots__ = ("sums",)

    def __init__(self) -> None:
        self.sums = StreamingSum(width=1)


class NumericMechanismCollector(SumStateMixin, AttributeCollector):
    """Mean estimation for one numeric attribute via a :class:`Mechanism`.

    The mechanism is re-domained to the attribute's declared interval when
    they differ, so schemas may mix attribute ranges freely.
    """

    state_kind = "numeric-sum"

    def __init__(
        self, mechanism: Mechanism, attribute: NumericAttribute, epsilon: float
    ) -> None:
        super().__init__(attribute, epsilon)
        if tuple(mechanism.input_domain) != tuple(attribute.domain):
            mechanism = AffineTransformedMechanism(mechanism, attribute.domain)
        self.mechanism = mechanism

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return self.mechanism._sample(values, self.epsilon, ensure_rng(rng))

    def new_state(self) -> _NumericState:
        return _NumericState()

    def check_payload(self, payload: Any) -> np.ndarray:
        arr = np.asarray(payload, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionError(
                "attribute %r: expected a (k,) numeric report vector, got "
                "shape %s" % (self.attribute.name, arr.shape)
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError(
                "attribute %r: perturbed reports must be finite"
                % self.attribute.name
            )
        return arr

    def sum_block(self, payload: np.ndarray) -> np.ndarray:
        return payload[:, None]

    def reports(self, state: _NumericState) -> int:
        return state.sums.rows

    def estimate(self, state: _NumericState) -> np.ndarray:
        count = self._require_reports(state)
        mean = state.sums.value()[0] / count
        bias = self.mechanism.deterministic_bias(self.epsilon)
        if bias:
            mean = mean - bias
        return np.array([mean])

    def deviation_model(self, state: _NumericState) -> MultivariateDeviationModel:
        count = self._require_reports(state)
        population = None
        if self.mechanism.bounded:
            lo, hi = self.attribute.domain
            plugin = float(np.clip(self.estimate(state)[0], lo, hi))
            population = ValueDistribution.point_mass(plugin)
        model = build_deviation_model(
            self.mechanism, self.epsilon, count, population
        )
        return MultivariateDeviationModel([model.delta], [model.sigma])


class _HistogramState:
    """Additive state for histogram-encoded entries: ``(v,)`` sums + count."""

    __slots__ = ("sums",)

    def __init__(self, n_categories: int) -> None:
        self.sums = StreamingSum(width=n_categories)


class HistogramMechanismCollector(SumStateMixin, AttributeCollector):
    """Frequency estimation via histogram encoding (paper Section V-C).

    Labels are one-hot encoded and every entry is perturbed with
    ``ε/2`` of the attribute budget (a category change flips two
    entries), using the mechanism re-domained to the unit interval. The
    collector inverts the mechanism's affine conditional-mean map to
    calibrate entry means back into frequencies.
    """

    state_kind = "histogram-sum"

    def _sum_width(self) -> int:
        return self.attribute.n_categories

    def __init__(
        self, mechanism: Mechanism, attribute: CategoricalAttribute, epsilon: float
    ) -> None:
        super().__init__(attribute, epsilon)
        self.mechanism = adapt_to_unit_domain(mechanism)
        self.epsilon_per_entry = self.epsilon / 2.0

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        encoded = one_hot_encode(values.astype(np.int64), self.attribute.n_categories)
        return self.mechanism._sample(
            encoded, self.epsilon_per_entry, ensure_rng(rng)
        )

    def new_state(self) -> _HistogramState:
        return _HistogramState(self.attribute.n_categories)

    def check_payload(self, payload: Any) -> np.ndarray:
        matrix = np.asarray(payload, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.attribute.n_categories:
            raise DimensionError(
                "attribute %r: expected (k, %d) histogram payload, got %s"
                % (self.attribute.name, self.attribute.n_categories, matrix.shape)
            )
        if matrix.size and not np.all(np.isfinite(matrix)):
            raise DomainError(
                "attribute %r: perturbed entries must be finite"
                % self.attribute.name
            )
        return matrix

    def reports(self, state: _HistogramState) -> int:
        return state.sums.rows

    def entry_means(self, state: _HistogramState) -> np.ndarray:
        count = self._require_reports(state)
        return state.sums.value() / count

    def _affine(self) -> tuple:
        affine = affine_mean_map(self.mechanism, self.epsilon_per_entry)
        if affine is None:  # pragma: no cover - no shipped mechanism hits this
            return 1.0, 0.0
        return affine

    def estimate(self, state: _HistogramState) -> np.ndarray:
        slope, intercept = self._affine()
        return (self.entry_means(state) - intercept) / slope

    def deviation_model(self, state: _HistogramState) -> MultivariateDeviationModel:
        """Plug-in Bernoulli model per entry, rescaled by the calibration.

        The calibrated estimate divides by the affine slope, so the
        per-entry deviation sigma is the Lemma 3 sigma over ``|slope|``.
        """
        count = self._require_reports(state)
        slope, _ = self._affine()
        sigmas = bernoulli_sigmas(
            self.mechanism, self.epsilon_per_entry, count, self.estimate(state)
        ) / abs(slope)
        return MultivariateDeviationModel(np.zeros_like(sigmas), sigmas)


class MechanismProtocol(CollectionProtocol):
    """Adapter exposing any numeric :class:`Mechanism` as a protocol.

    Numeric attributes are perturbed directly; categorical attributes go
    through the histogram-encoding route, so one mechanism name can serve
    a mixed schema end to end.
    """

    def __init__(self, mechanism: Mechanism, name: Optional[str] = None) -> None:
        self.mechanism = mechanism
        self.name = name or mechanism.name

    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        if attribute.kind == "numeric":
            return NumericMechanismCollector(self.mechanism, attribute, epsilon)
        return HistogramMechanismCollector(self.mechanism, attribute, epsilon)


# --------------------------------------------------------------------------
# Frequency oracles
# --------------------------------------------------------------------------


class _OracleState:
    """Additive state shared by the oracle collectors: counts + users."""

    __slots__ = ("counts", "users")

    def __init__(self, n_categories: int) -> None:
        self.counts = np.zeros(n_categories, dtype=np.int64)
        self.users = 0


class OracleCollector(AttributeCollector):
    """Common plumbing for the three Wang et al. oracle collectors.

    Subclasses accumulate integer per-category statistics (label counts,
    bit-column sums or hash-support counts) — exact arithmetic, hence
    trivially batching-invariant — and the oracle's
    :meth:`~repro.freq_oracles.FrequencyOracle.estimate_from_counts`
    turns them into its unbiased estimator.
    """

    oracle_cls = FrequencyOracle  # overridden by subclasses

    def __init__(self, attribute: CategoricalAttribute, epsilon: float) -> None:
        if attribute.kind != "categorical":
            raise DimensionError(
                "frequency oracle %r only serves categorical attributes, "
                "got numeric attribute %r" % (self.oracle_cls.name, attribute.name)
            )
        super().__init__(attribute, epsilon)
        self.oracle = self.oracle_cls(self.epsilon, attribute.n_categories)

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> Any:
        return self.oracle.privatize(values.astype(np.int64), rng)

    def new_state(self) -> _OracleState:
        return _OracleState(self.attribute.n_categories)

    def reports(self, state: _OracleState) -> int:
        return state.users

    def merge_states(self, state: _OracleState, other: _OracleState) -> None:
        state.counts = state.counts + other.counts
        state.users += other.users

    def snapshot(self, state: _OracleState) -> dict:
        return {
            "kind": "oracle-counts",
            "counts": [int(count) for count in state.counts],
            "users": int(state.users),
        }

    def restore(self, snapshot: dict) -> _OracleState:
        data = _require_snapshot_kind(snapshot, "oracle-counts")
        try:
            counts = [int(count) for count in data["counts"]]
            users = int(data["users"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError("malformed oracle state: %s" % exc) from None
        if len(counts) != self.attribute.n_categories or users < 0:
            raise WireFormatError(
                "attribute %r: oracle state is inconsistent (%d counts for "
                "%d categories, users=%d)"
                % (
                    self.attribute.name,
                    len(counts),
                    self.attribute.n_categories,
                    users,
                )
            )
        state = _OracleState(self.attribute.n_categories)
        state.counts = np.asarray(counts, dtype=np.int64)
        state.users = users
        return state

    def estimate(self, state: _OracleState) -> np.ndarray:
        return self.oracle.estimate_from_counts(
            state.counts, self._require_reports(state)
        )

    def deviation_model(self, state: _OracleState) -> MultivariateDeviationModel:
        self._require_reports(state)
        frequencies = np.clip(self.estimate(state), 0.0, 1.0)
        return self.oracle.deviation_model(state.users, frequencies=frequencies)


class GrrCollector(OracleCollector):
    """GRR aggregation: exact per-category counts of the noisy labels."""

    oracle_cls = GeneralizedRandomizedResponse

    def check_payload(self, payload: Any) -> np.ndarray:
        arr = np.asarray(payload)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise DimensionError(
                "attribute %r: expected a (k,) integer label vector, got "
                "%s of dtype %s" % (self.attribute.name, arr.shape, arr.dtype)
            )
        labels = arr.astype(np.int64)
        if labels.size and (
            labels.min() < 0 or labels.max() >= self.attribute.n_categories
        ):
            raise DomainError(
                "attribute %r: noisy labels must lie in [0, %d)"
                % (self.attribute.name, self.attribute.n_categories)
            )
        return labels

    def fold(self, state: _OracleState, payload: np.ndarray) -> None:
        state.counts += np.bincount(
            payload, minlength=self.attribute.n_categories
        )
        state.users += payload.size


class OueCollector(OracleCollector):
    """OUE aggregation: exact column sums of the perturbed bit matrix."""

    oracle_cls = OptimizedUnaryEncoding

    def check_payload(self, payload: Any) -> np.ndarray:
        matrix = np.asarray(payload, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.attribute.n_categories:
            raise DimensionError(
                "attribute %r: expected (k, %d) OUE payload, got %s"
                % (self.attribute.name, self.attribute.n_categories, matrix.shape)
            )
        if matrix.size and not np.all((matrix == 0.0) | (matrix == 1.0)):
            raise DomainError(
                "attribute %r: OUE payloads must be 0/1 bit matrices"
                % self.attribute.name
            )
        return matrix

    def fold(self, state: _OracleState, payload: np.ndarray) -> None:
        state.counts += np.rint(payload.sum(axis=0)).astype(np.int64)
        state.users += payload.shape[0]


class OlhCollector(OracleCollector):
    """OLH aggregation: exact support counts over the hash reports."""

    oracle_cls = OptimizedLocalHashing

    def check_payload(self, payload: Any) -> OlhReports:
        if not isinstance(payload, OlhReports):
            raise DimensionError(
                "attribute %r: expected OlhReports payload" % self.attribute.name
            )
        seeds = np.asarray(payload.seeds)
        buckets = np.asarray(payload.buckets)
        if not (
            np.issubdtype(seeds.dtype, np.integer)
            and np.issubdtype(buckets.dtype, np.integer)
        ):
            raise DimensionError(
                "attribute %r: OLH seeds/buckets must be integers, got "
                "%s/%s" % (self.attribute.name, seeds.dtype, buckets.dtype)
            )
        seeds = seeds.astype(np.int64)
        buckets = buckets.astype(np.int64)
        if (
            seeds.ndim != 2
            or seeds.shape[1] != 2
            or buckets.ndim != 1
            or seeds.shape[0] != buckets.size
        ):
            raise DimensionError(
                "attribute %r: OLH payload shapes disagree: seeds %s, "
                "buckets %s" % (self.attribute.name, seeds.shape, buckets.shape)
            )
        if buckets.size and (
            buckets.min() < 0 or buckets.max() >= self.oracle.n_buckets
        ):
            raise DomainError(
                "attribute %r: OLH buckets must lie in [0, %d)"
                % (self.attribute.name, self.oracle.n_buckets)
            )
        return OlhReports(seeds=seeds, buckets=buckets)

    def fold(self, state: _OracleState, payload: OlhReports) -> None:
        state.counts += self.oracle.support_counts(payload)
        state.users += payload.buckets.size

    def payload_rows(self, payload: OlhReports) -> int:
        return int(payload.buckets.size)

    def concat_payloads(self, payloads: Sequence[OlhReports]) -> OlhReports:
        return OlhReports(
            seeds=np.concatenate([p.seeds for p in payloads], axis=0),
            buckets=np.concatenate([p.buckets for p in payloads], axis=0),
        )


class OracleProtocol(CollectionProtocol):
    """Adapter exposing one :class:`FrequencyOracle` family as a protocol."""

    def __init__(self, collector_cls: type, name: str) -> None:
        self.collector_cls = collector_cls
        self.name = name

    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        return self.collector_cls(attribute, epsilon)


#: The oracle protocols registered with the unified registry.
ORACLE_PROTOCOLS = {
    "grr": lambda: OracleProtocol(GrrCollector, "grr"),
    "oue": lambda: OracleProtocol(OueCollector, "oue"),
    "olh": lambda: OracleProtocol(OlhCollector, "olh"),
}


def _register_default_protocols() -> None:
    """Idempotently register the oracle protocols with the registry."""
    from ..mechanisms import registry

    for name, factory in ORACLE_PROTOCOLS.items():
        if name not in registry._PROTOCOLS:
            registry.register_protocol(name, factory)


_register_default_protocols()
