"""Asyncio TCP report sender: the user-side end of the socket transport.

:class:`AsyncReportSender` is the report-stream
:class:`~repro.transport.ingest.HandshakenStream`: the hello, the
contract checks and the ack round trip are the shared client half.
It ships wire frames produced by :func:`~repro.wire.encode_batch`, one
sequenced frame per report batch, each acknowledged once the gateway has
validated it and handed it to a shard consumer — so a gateway with full
shard queues slows :meth:`AsyncReportSender.send` down to its own pace.

Resume: every sender carries a 16-byte *sender id* naming its logical
report stream, and numbers its frames 1, 2, 3, … The hello reply
carries the stream's *resume watermark*; frames at or below it are
skipped locally (:attr:`AsyncReportSender.frames_skipped`) instead of
re-sent, so a sender that replays its whole round after a crash — its
own or the gateway's — contributes every report exactly once.
:func:`replay_frames` wraps the loop: connect, skip, send, and retry on
transport failures until the round is through.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import TransportError
from ..session.client import ReportBatch
from ..telemetry import MetricsRegistry, emit, event_logger
from ..wire.codec import encode_batch
from ..wire.contract import DIGEST_SIZE, CollectionContract
from .framing import SENDER_ID_SIZE, STATS_MAGIC, TRANSPORT_MAGIC
from .ingest import (
    ContractLike,
    HandshakenStream,
    close_writer,
    exchange_hello,
    retry_exhausted,
    strict_positive,
)

_LOG = event_logger("sender")


class AsyncReportSender(HandshakenStream):
    """One open, handshaken connection to a collection gateway.

    Construct through :meth:`connect`; use as an async context manager
    so half-open connections cannot leak::

        async with await AsyncReportSender.connect(host, port, client) as s:
            await s.send(batch)

    A fresh random sender id is drawn per :meth:`connect` unless one is
    given — pass the same id across reconnects to make the gateway
    treat them as one resumable stream.
    """

    _hello_magic = TRANSPORT_MAGIC
    _name = "sender"
    _server = "collection gateway"
    _id_key = "sender_id"
    _resume_key = "resume_seq"

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        sender_id: bytes,
        resume_seq: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(contract, reader, writer, metrics)
        self.sender_id = sender_id
        #: Highest sequence number the gateway already holds durably for
        #: this stream; sends at or below it are skipped, not shipped.
        self.resume_seq = resume_seq
        self._next_seq = 1
        self.frames_sent = 0
        self.frames_skipped = 0
        self.bytes_sent = 0
        if metrics is not None:
            self._m_frames_sent = metrics.counter(
                "sender_frames_sent_total",
                "Frames shipped and acknowledged by the gateway",
            )
            self._m_frames_skipped = metrics.counter(
                "sender_frames_skipped_total",
                "Frames skipped locally because the gateway already "
                "holds them durably (resume watermark)",
            )
            self._m_bytes_sent = metrics.counter(
                "sender_bytes_sent_total",
                "Payload bytes of acknowledged frames",
            )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        contract: ContractLike,
        sender_id: Optional[bytes] = None,
        metrics: Optional[MetricsRegistry] = None,
        ssl=None,
    ) -> "AsyncReportSender":
        """Open a connection and perform the contract handshake.

        Raises :class:`~repro.exceptions.ContractMismatchError` when the
        gateway collects under a different contract — before any payload
        bytes flow — and :class:`~repro.exceptions.TransportError` when
        the peer is not a collection gateway at all. ``ssl`` is an
        optional client-side :class:`ssl.SSLContext` for a TLS-serving
        gateway; the framing above the encrypted stream is unchanged.
        """
        return await cls._open(host, port, contract, sender_id, metrics, ssl)

    # --------------------------------------------------------------- sending

    async def send_encoded(self, frame: bytes) -> None:
        """Ship one pre-encoded wire frame and wait for its ack.

        The frame takes the stream's next sequence number. If that
        number is at or below the gateway's resume watermark the frame
        is already durable server-side — it is skipped locally (counted
        in :attr:`frames_skipped`) and no bytes go out. Otherwise the
        ack only arrives once the gateway has validated the frame and
        found queue room for it — this await *is* the backpressure.
        """
        if self._closed:
            raise TransportError("sender is closed")
        seq = self._next_seq
        self._next_seq += 1
        if seq <= self.resume_seq:
            self.frames_skipped += 1
            if self.telemetry is not None:
                self._m_frames_skipped.inc()
            return
        await self._round_trip(seq, frame)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        if self.telemetry is not None:
            self._m_frames_sent.inc()
            self._m_bytes_sent.inc(len(frame))

    async def send(self, batch: ReportBatch) -> None:
        """Encode one batch under this sender's contract and ship it."""
        await self.send_encoded(encode_batch(batch, self.contract))

    async def heartbeat(self) -> None:
        """Ship a zero-user frame: a liveness no-op for idle gateways.

        An empty :class:`~repro.session.ReportBatch` is a first-class
        frame — it round-trips the full validate/route/ack path, changes
        no aggregation state, and proves the connection (and the
        gateway's consumers) are still moving.
        """
        await self.send(
            ReportBatch(users=0, payloads={}, counts={}, protocols={})
        )


async def replay_frames(
    host: str,
    port: int,
    contract: ContractLike,
    frames: Sequence[bytes],
    sender_id: bytes,
    attempts: int = 1,
    retry_delay: float = 0.5,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> "AsyncReportSender":
    """Deliver a whole round of encoded frames exactly once, with retries.

    Connects under ``sender_id``, skips every frame the gateway already
    holds durably (its resume watermark), ships the rest, and half-closes.
    On a *transport* failure — connection refused or dropped, gateway
    restarting — it waits ``retry_delay`` seconds and reconnects, up to
    ``attempts`` total; each reconnect re-learns the watermark, so no
    frame is ever contributed twice. Typed rejections
    (:class:`~repro.exceptions.ContractMismatchError`,
    :class:`~repro.exceptions.WireFormatError`) are never retried — a
    frame the gateway refused once will be refused again.

    Returns the final (closed) sender, whose counters describe the last
    successful pass. When every attempt fails, the raised
    :class:`~repro.exceptions.TransportError` lists each *distinct*
    failure with the attempts that produced it, so a round that bounced
    off two different problems (say, connection refused, then a restart
    mid-stream) shows both. Each failed attempt also emits a
    ``sender_retry`` event and, with ``metrics``, counts into
    ``sender_retries_total``.
    """
    total = strict_positive(attempts, "attempts", TransportError)
    frames = list(frames)
    failures: List[Tuple[int, BaseException]] = []
    retries = (
        None
        if metrics is None
        else metrics.counter(
            "sender_retries_total",
            "Delivery attempts that failed with a transport error",
        )
    )
    for attempt in range(1, total + 1):
        if attempt > 1:
            await asyncio.sleep(retry_delay)
        try:
            sender = await AsyncReportSender.connect(
                host,
                port,
                contract,
                sender_id=sender_id,
                metrics=metrics,
                ssl=ssl,
            )
            async with sender:
                for frame in frames:
                    await sender.send_encoded(frame)
            return sender
        except (TransportError, ConnectionError, OSError) as exc:
            failures.append((attempt, exc))
            if retries is not None:
                retries.inc()
            emit(
                _LOG,
                "sender_retry",
                level=logging.WARNING,
                attempt=attempt,
                attempts=total,
                error=str(exc),
            )
    raise retry_exhausted(
        "round not delivered", total, failures
    ) from failures[-1][1]


async def request_stats(
    host: str,
    port: int,
    timeout: Optional[float] = 10.0,
    ssl=None,
) -> Dict[str, Any]:
    """Fetch a server's live telemetry snapshot over its socket.

    Sends a ``STATS`` control request — a hello-sized message opened by
    :data:`~repro.transport.framing.STATS_MAGIC` with the digest and
    sender-id fields zeroed — and returns the decoded snapshot dict:
    the ``stats_snapshot()`` of whichever server answers (a collection
    gateway, an edge's gateway, or a root aggregator). Needs no
    contract, so any admin client can poll a round mid-flight.

    ``timeout`` bounds the whole exchange (connect through reply) in
    seconds; a server that accepts the connection but never answers —
    hung event loop, half-dead process — raises
    :class:`~repro.exceptions.TransportError` after ``timeout`` seconds
    instead of blocking the admin client forever. Pass ``None`` to wait
    without bound.
    """
    try:
        return await asyncio.wait_for(
            _request_stats(host, port, ssl=ssl), timeout
        )
    except asyncio.TimeoutError:
        raise TransportError(
            "server at %s:%d did not answer the stats request within "
            "%.1f seconds" % (host, port, timeout)
        ) from None


async def _request_stats(host: str, port: int, ssl=None) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port, ssl=ssl)
    try:
        _, _, _, message = await exchange_hello(
            reader,
            writer,
            STATS_MAGIC,
            b"\0" * DIGEST_SIZE,
            b"\0" * SENDER_ID_SIZE,
            "server",
        )
        try:
            snapshot = json.loads(message)
        except ValueError as exc:
            raise TransportError(
                "server stats reply is not valid JSON: %s" % exc
            ) from None
        if not isinstance(snapshot, dict):
            raise TransportError(
                "server stats reply is %s, expected an object"
                % type(snapshot).__name__
            )
        return snapshot
    finally:
        await close_writer(writer)


__all__ = ["AsyncReportSender", "replay_frames", "request_stats"]
