"""Asyncio TCP state pusher: the edge-side end of the federation hop.

:class:`StatePusher` is the ``STATE`` push
:class:`~repro.transport.ingest.HandshakenStream` — the hello (opened by
:data:`~repro.transport.framing.STATE_MAGIC`), the contract checks and
the ack round trip are the shared client half. It ships epoch-numbered,
CRC-sealed state pushes, each acknowledged only once the root has
validated and folded it (and, with a root-side checkpoint store,
persisted it durably).

Resume: the hello reply carries the *epoch watermark* — the highest
epoch the root already folded for this edge id — and
:meth:`StatePusher.push` numbers pushes ``watermark + 1, watermark + 2,
…``. Because snapshots are cumulative, a reconnecting edge does not need
to replay anything: its next push covers everything the lost ones would
have.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping, Optional

from ..exceptions import TransportError
from ..telemetry import MetricsRegistry, emit, event_logger
from ..transport.framing import SENDER_ID_SIZE, STATE_MAGIC
from ..transport.ingest import ContractLike, HandshakenStream
from ..wire.contract import CollectionContract
from .state_push import PUSH_KIND_SNAPSHOT, encode_state_push

_LOG = event_logger("pusher")


class StatePusher(HandshakenStream):
    """One open, handshaken push connection to a root aggregator.

    Construct through :meth:`connect`; use as an async context manager
    so half-open connections cannot leak::

        async with await StatePusher.connect(host, port, server, edge_id) as p:
            await p.push(server.state_dict())

    The edge id (16 raw bytes, random unless given) names the edge's
    resumable push stream — pass the same id across reconnects and
    restarts so the root keeps one record for this edge.
    """

    _hello_magic = STATE_MAGIC
    _name = "pusher"
    _server = "root aggregator"
    _id_key = "edge_id"
    _resume_key = "resume_epoch"

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        edge_id: bytes,
        resume_epoch: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(contract, reader, writer, metrics)
        self.edge_id = edge_id
        #: Highest epoch the root already folded for this edge when the
        #: connection opened; pushes continue at ``resume_epoch + 1``.
        self.resume_epoch = resume_epoch
        self._next_epoch = resume_epoch + 1
        #: Highest epoch the root has acknowledged on *this* connection
        #: (starts at the resume watermark). Edges compare it against
        #: their delta base to know whether the root holds the state a
        #: delta would build on.
        self.acked_epoch = resume_epoch
        self.pushes_sent = 0
        self.bytes_sent = 0
        if metrics is not None:
            self._m_pushes_sent = metrics.counter(
                "pusher_pushes_sent_total",
                "State pushes acknowledged by the root",
            )
            self._m_bytes_sent = metrics.counter(
                "pusher_bytes_sent_total",
                "Payload bytes of acknowledged state pushes",
            )
            self._m_push_seconds = metrics.histogram(
                "pusher_push_seconds",
                "Encode + ship + root-ack round trip per push",
            )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        contract: ContractLike,
        edge_id: Optional[bytes] = None,
        metrics: Optional[MetricsRegistry] = None,
        ssl=None,
    ) -> "StatePusher":
        """Open a push connection and perform the contract handshake.

        Raises :class:`~repro.exceptions.ContractMismatchError` when the
        root aggregates under a different contract — before any payload
        bytes flow — and :class:`~repro.exceptions.TransportError` when
        the peer is not a root aggregator at all (a collection gateway,
        say, which refuses the ``STATE`` magic symmetrically). ``ssl``
        is an optional client-side :class:`ssl.SSLContext` for a
        TLS-serving root.
        """
        return await cls._open(host, port, contract, edge_id, metrics, ssl)

    async def push(
        self,
        state: Mapping[str, Any],
        counters: Optional[Mapping[str, Any]] = None,
        kind: str = PUSH_KIND_SNAPSHOT,
        base_epoch: int = 0,
    ) -> int:
        """Ship one state push; returns its epoch number.

        ``kind="snapshot"`` (the default) ships ``state`` as the full
        cumulative snapshot; ``kind="delta"`` ships it as a
        :func:`~repro.federation.state_push.state_dict_delta` difference
        over the acknowledged epoch ``base_epoch``. The ack only arrives
        once the root has validated the push, folded it into its edge
        table and — when it checkpoints — persisted it durably, so a
        returned epoch is a *safe* epoch: the reports it covers survive
        anything short of losing the root's storage.
        """
        if self._closed:
            raise TransportError("pusher is closed")
        started = (
            self.telemetry.clock() if self.telemetry is not None else 0.0
        )
        payload = encode_state_push(state, counters, kind, base_epoch)
        epoch = self._next_epoch
        self._next_epoch += 1
        await self._round_trip(epoch, payload)
        self.acked_epoch = epoch
        self.pushes_sent += 1
        self.bytes_sent += len(payload)
        if self.telemetry is not None:
            self._m_pushes_sent.inc()
            self._m_bytes_sent.inc(len(payload))
            self._m_push_seconds.observe(self.telemetry.clock() - started)
        emit(
            _LOG,
            "state_pushed",
            edge_id=self.edge_id.hex(),
            epoch=epoch,
            kind=kind,
            bytes=len(payload),
        )
        return epoch


#: Edge ids share the sender-id width: 16 raw bytes.
EDGE_ID_SIZE = SENDER_ID_SIZE

__all__ = ["StatePusher", "EDGE_ID_SIZE"]
