"""The upstream end of the federation tier: fold edge pushes, serve one estimate.

:class:`RootAggregator` is the :class:`~repro.transport.ingest.IngestServer`
for ``STATE`` push streams (hello magic ``STATE_MAGIC``, edge id in the
stream-id field); handshake, epoch-watermark dedup, durable-before-ack
and poisoning are the shared core's. Its fold policy:

* **One record per edge.** A push is a CRC-sealed, fingerprint-checked
  :meth:`~repro.session.LDPServer.state_dict` — a full cumulative
  snapshot, or a *delta* over the edge's last acknowledged epoch, added
  to the stored record through the exact big-integer merge. Either way
  the root installs the edge's newest cumulative state, so epochs may
  skip ahead.
* **Validated before installed.** A snapshot must restore cleanly and
  a delta must build on exactly the epoch the root holds.
* **Durable before ack.** With a checkpoint store the edge table is
  persisted before the ack; a failed save rolls the fold back (so
  un-durable state never satisfies a waiter) and poisons the round.

Merging across edges at read time is exact, so the federated estimate
is bit-identical to one-shot ingestion regardless of edge count, push
ordering, duplicate pushes, push kinds, or restarts.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Optional

from ..exceptions import WireFormatError
from ..session.client import ProtocolSpec
from ..session.schema import Schema
from ..session.server import LDPServer, Postprocessor, SessionEstimate
from ..storage import CheckpointStore
from ..telemetry import MetricsRegistry, emit
from ..transport.framing import DEFAULT_MAX_FRAME_BYTES, STATE_MAGIC
from ..transport.ingest import IngestServer, Refusal
from ..wire.contract import CollectionContract
from .checkpoint import (
    EdgeRecord,
    federation_checkpoint_document,
    parse_federation_checkpoint,
)
from .state_push import PUSH_KIND_DELTA, decode_state_push


class RootAggregator(IngestServer):
    """Terminal aggregator of a multi-gateway federated round.

    Parameters
    ----------
    schema, epsilon, sampled_attributes, protocols:
        The collection contract, exactly as for
        :class:`~repro.session.LDPServer` — every edge (and every client
        behind every edge) must operate under the same one.
    max_frame_bytes:
        Reject pushes longer than this before allocating them.
    store:
        Optional :class:`~repro.storage.CheckpointStore`. With it every
        folded push is durable *before* its ack (an acknowledged epoch
        survives SIGKILL), and :meth:`start` recovers the newest intact
        edge table. The caller owns the store's lifetime.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` (one is
        created when omitted, so :meth:`stats_snapshot` and the
        ``STATS`` socket request always work).
    """

    _hello_magic = STATE_MAGIC
    _accepts = "STATE pushes from edges, not report frames"
    _role = "root"
    _peer = "edge"
    _unit = "push"
    _seq_key = "epoch"
    _accept_event = "edge_connected"

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        store: Optional[CheckpointStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._constructor_args = (schema, epsilon, sampled_attributes, protocols)
        self._template = LDPServer(schema, epsilon, sampled_attributes, protocols)
        super().__init__(max_frame_bytes, store, metrics)
        self._edges: Dict[bytes, EdgeRecord] = {}
        # A push is "accepted" once validated, folded into the edge
        # table and (with a store) persisted durably.
        self.pushes_accepted = 0
        self.deltas_applied = 0
        registry = self.telemetry
        self._m_pushes_accepted = registry.counter(
            "root_pushes_accepted_total",
            "Edge state pushes validated, folded and acknowledged",
        )
        self._m_deduped = registry.counter(
            "root_pushes_deduped_total",
            "Replayed epochs acknowledged without folding (edge retries)",
        )
        self._m_deltas_applied = registry.counter(
            "root_deltas_applied_total",
            "Accepted pushes that arrived as deltas over a stored base",
        )
        self._m_rejected = registry.counter(
            "root_pushes_rejected_total",
            "Edge state pushes refused after the handshake, by reason",
            labels=("reason",),
        )
        self._m_bytes_received = registry.counter(
            "root_push_bytes_received_total",
            "Payload bytes of accepted state pushes",
        )
        self._m_fold_seconds = registry.histogram(
            "root_fold_seconds",
            "Decode + validate + fold (+ durable checkpoint) per push",
        )
        self._m_edge_epoch = registry.gauge(
            "root_edge_epoch",
            "Newest epoch folded per edge",
            labels=("edge",),
        )
        self._m_edge_users = registry.gauge(
            "root_edge_users",
            "Users covered by the newest folded snapshot, per edge",
            labels=("edge",),
        )

    @property
    def pushes_rejected(self) -> int:
        """Pushes refused after the handshake."""
        return self._rejected

    @property
    def pushes_deduped(self) -> int:
        """Replayed epochs acknowledged without folding."""
        return self._deduped

    @property
    def contract(self) -> CollectionContract:
        """The collection contract every edge push must match."""
        return self._template.contract

    # ------------------------------------------------------------ lifecycle

    def _recover(self, document: Dict[str, Any]) -> None:
        self._edges = parse_federation_checkpoint(document, self.contract)
        for edge_id, (epoch, state, _) in self._edges.items():
            self._observe_edge(edge_id, epoch, state)
        emit(
            self._log,
            "recovery_replayed",
            edges=len(self._edges),
            users=self.users,
        )

    async def stop(self, grace: Optional[float] = None) -> None:
        """Stop accepting and settle the open push connections.

        Folded pushes are already durable (when a store is configured)
        and already in the edge table, so there is nothing to drain —
        settling just lets an in-flight push finish its ack. ``grace``
        bounds the wait; after it (or immediately when ``None``)
        remaining connections are closed.
        """
        await self._shutdown(grace is None, grace)

    # --------------------------------------------------------------- waiting

    @property
    def users(self) -> int:
        """Users covered by the newest folded snapshot of every edge.

        Each user reports through exactly one edge and edge snapshots
        are cumulative, so the sum across edges counts every user once.
        """
        total = 0
        for _, state, _ in self._edges.values():
            users = state.get("users")
            if isinstance(users, int) and not isinstance(users, bool):
                total += users
        return total

    @property
    def edges(self) -> int:
        """Edges that have pushed (or been recovered) so far."""
        return len(self._edges)

    def _users_acked(self) -> int:
        return self.users

    # -------------------------------------------------------------- results

    def merged(self) -> LDPServer:
        """Merge every edge's newest snapshot into one fresh server."""
        self._check_folds()
        target = LDPServer(*self._constructor_args)
        for edge_id in sorted(self._edges):
            _, state, _ = self._edges[edge_id]
            target.merge_state_dict(state)
        return target

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Federated estimates over every edge's newest snapshot.

        Deterministic merge order (edge ids sorted) — not that it could
        matter: aggregation is exactly additive, so any order yields the
        same bits.
        """
        return self.merged().estimate(postprocess=postprocess)

    # ------------------------------------------------------------- telemetry

    def stats_snapshot(self) -> Dict[str, Any]:
        """Root counters, per-edge records and the aggregated edge view.

        ``counters`` are the root's own integers; ``edges`` maps edge id
        (hex) to its newest epoch, covered users and self-reported
        gateway counters; ``edge_totals`` sums those reported counters
        across edges — one snapshot describes the whole topology.
        """
        edge_totals: Dict[str, int] = {}
        edges: Dict[str, Any] = {}
        for edge_id, (epoch, state, counters) in sorted(self._edges.items()):
            users = state.get("users")
            edges[edge_id.hex()] = {
                "epoch": epoch,
                "users": users if isinstance(users, int) else 0,
                "counters": dict(counters),
            }
            for name, value in counters.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    edge_totals[name] = edge_totals.get(name, 0) + value
        counters = {
            "pushes_accepted": self.pushes_accepted,
            "pushes_deduped": self.pushes_deduped,
            "deltas_applied": self.deltas_applied,
            "pushes_rejected": self.pushes_rejected,
            "handshakes_rejected": self.handshakes_rejected,
            "rejections_total": self.pushes_rejected + self.handshakes_rejected,
            "bytes_received": self.bytes_received,
            "checkpoints_written": self.checkpoints_written,
            "edges": len(self._edges),
            "users": self.users,
        }
        return {
            "counters": counters,
            "edges": edges,
            "edge_totals": edge_totals,
            "metrics": self.telemetry.snapshot(),
        }

    def _observe_edge(
        self, edge_id: bytes, epoch: int, state: Dict[str, Any]
    ) -> None:
        label = edge_id.hex()[:8]
        self._m_edge_epoch.labels(edge=label).set(epoch)
        users = state.get("users")
        if isinstance(users, int) and not isinstance(users, bool):
            self._m_edge_users.labels(edge=label).set(users)

    # ----------------------------------------------------------- fold policy

    def _watermark(self, edge_id: bytes) -> int:
        return self._edges[edge_id][0] if edge_id in self._edges else 0

    async def _fold(
        self, edge_id: bytes, epoch: int, payload: bytes
    ) -> Optional[Refusal]:
        """Install one push as the edge's newest cumulative state.

        Each push is cumulative, so an epoch may skip ahead. Snapshot
        epochs replace the edge's record; delta epochs — accepted only
        when their ``base_epoch`` names exactly the record the root
        holds — are added to it through the exact merge, so the
        installed state equals the snapshot the edge would have
        shipped, bit for bit.
        """
        started = self._clock()
        push = decode_state_push(payload, self.contract)
        record = self._edges.get(edge_id)
        if push.kind == PUSH_KIND_DELTA:
            if record is None:
                raise WireFormatError(
                    "delta push over base epoch %d from edge %s, but this "
                    "root holds no state for it — a delta needs the "
                    "snapshot it builds on" % (push.base_epoch, edge_id.hex())
                )
            if push.base_epoch != record[0]:
                raise WireFormatError(
                    "delta push builds on epoch %d but this root holds "
                    "epoch %d for edge %s — the edge must re-ship a full "
                    "snapshot" % (push.base_epoch, record[0], edge_id.hex())
                )
            # stored + (current − stored) == current, bit for bit.
            folded = LDPServer(*self._constructor_args)
            folded.load_state_dict(record[1])
            folded.merge_state_dict(push.state)
            state = folded.state_dict()
        else:
            state = push.state
            # Validate the snapshot restores cleanly BEFORE installing
            # it — a malformed state must not replace a good one
            # (merged() would fail long after the ack).
            LDPServer(*self._constructor_args).load_state_dict(state)
        self._edges[edge_id] = (epoch, state, push.counters)
        if self.store is not None:
            # Durable BEFORE the ack: once the edge hears OK, its
            # snapshot survives a root SIGKILL.
            refusal = await self._durably(self._checkpoint, "push")
            if refusal is not None:
                # Roll the fold back, or un-durable state would satisfy
                # wait_for_users despite having no checkpoint behind it.
                if record is None:
                    del self._edges[edge_id]
                else:
                    self._edges[edge_id] = record
                return refusal
        self.pushes_accepted += 1
        self.bytes_received += len(payload)
        self._m_pushes_accepted.inc()
        self._m_bytes_received.inc(len(payload))
        if push.kind == PUSH_KIND_DELTA:
            self.deltas_applied += 1
            self._m_deltas_applied.inc()
        self._m_fold_seconds.observe(self._clock() - started)
        self._observe_edge(edge_id, epoch, state)
        emit(
            self._log,
            "push_folded",
            level=logging.DEBUG,
            edge_id=edge_id.hex(),
            epoch=epoch,
            kind=push.kind,
            users=state.get("users"),
            bytes=len(payload),
        )
        return None

    async def _checkpoint(self) -> None:
        """Persist the whole edge table (one checkpoint per folded push)."""
        document = federation_checkpoint_document(self.contract, self._edges)
        self._count_checkpoint(self.store.save(document))


async def serve_root(
    schema: Schema,
    epsilon: float,
    sampled_attributes: Optional[int] = None,
    protocols: ProtocolSpec = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    store: Optional[CheckpointStore] = None,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> RootAggregator:
    """Start a :class:`RootAggregator` on ``host:port`` and return it.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`RootAggregator.port`). The caller owns the round's lifecycle:
    typically ``await root.wait_for_users(n)``, then ``await
    root.stop()`` and read :meth:`~RootAggregator.estimate`.
    """
    root = RootAggregator(
        schema,
        epsilon,
        sampled_attributes,
        protocols,
        max_frame_bytes=max_frame_bytes,
        store=store,
        metrics=metrics,
    )
    return await root.start(host, port, ssl=ssl)
