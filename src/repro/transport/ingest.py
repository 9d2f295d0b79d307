"""The shared ingest core: one server half, one client half.

The collector runs at two tiers over one framed socket protocol
(:mod:`repro.transport.framing`): a
:class:`~repro.transport.CollectionGateway` folds report frames from
senders, a :class:`~repro.federation.RootAggregator` folds state pushes
from edges. Everything but the fold policy is shared and lives here
(the rules are set out in DESIGN §1c):

* :class:`IngestServer` — the socket lifecycle (recover, then bind;
  settle connections before ``wait_closed()``); one handshake (STATS
  first, with no contract check, then hello magic, transport version,
  contract digest and duplicate-stream checks, each refusal counted by
  reason); one pump (dedup at or below the stream's watermark, then
  the role's fold); durable-before-ack with poisoning
  (:meth:`IngestServer._durably`).
* :class:`HandshakenStream` — the client half shared by
  :class:`~repro.transport.AsyncReportSender` and
  :class:`~repro.federation.StatePusher`: connect (hello, reply checks,
  close on failure), one ack round trip per frame, close.
"""

from __future__ import annotations

import asyncio
import json
import logging
import operator
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import (
    ContractMismatchError,
    DimensionError,
    DomainError,
    TransportError,
    WireFormatError,
)
from ..storage import CheckpointStore
from ..telemetry import MetricsRegistry, emit, event_logger
from ..wire.contract import CollectionContract
from .framing import (
    HELLO,
    HELLO_REPLY,
    SENDER_ID_SIZE,
    STATS_MAGIC,
    STATUS_CONTRACT_MISMATCH,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    STATUS_WIRE_ERROR,
    TRANSPORT_MAGIC,
    TRANSPORT_VERSION,
    pack_status,
    raise_for_status,
    read_frame,
    read_status,
    write_frame,
)

#: ``connect`` accepts a bare contract or anything carrying one (an
#: :class:`~repro.session.LDPClient`, an :class:`~repro.session.LDPServer`).
ContractLike = Union[CollectionContract, object]


def strict_positive(
    value: Any,
    name: str,
    error: type,
    count: bool = True,
    optional: bool = False,
):
    """``value`` checked as a count (``count``) or a period, else ``error``.

    A count must be an ``int`` or numpy integer — never a bool, never a
    float that a silent ``int()`` would truncate — and at least 1. A
    period must be a finite number above 0 (``nan`` would leave a timer
    that never fires). An ``optional`` option may also be ``None``.
    """
    if optional and value is None:
        return None
    try:
        if isinstance(value, bool):
            raise TypeError(name)
        number = operator.index(value) if count else float(value)
    except (TypeError, ValueError):
        raise error(
            "%s must be %s, got %r"
            % (name, "an integer" if count else "a number", value)
        ) from None
    if not 0 < number < float("inf"):
        raise error(
            "%s must be %s, got %r"
            % (name, ">= 1" if count else "finite and > 0", value)
        )
    return number


def retry_exhausted(
    what: str, total: int, failures: Sequence[Tuple[int, BaseException]]
) -> TransportError:
    """The error closing a retry loop whose every attempt failed.

    Each *distinct* failure is listed once with the attempts that
    produced it, in first-seen order ("attempts 1,2: connection refused;
    attempt 3: ..."), so an intermediate failure is never swallowed by
    the final one and a repeated one is never listed twice.
    """
    distinct: Dict[str, List[int]] = {}
    for attempt, exc in failures:
        distinct.setdefault(str(exc), []).append(attempt)
    detail = "; ".join(
        "attempt%s %s: %s"
        % ("s" if len(numbers) > 1 else "", ",".join(map(str, numbers)), message)
        for message, numbers in distinct.items()
    )
    return TransportError(
        "%s after %d attempt(s): %s" % (what, total, detail)
    )


def as_contract(contract: ContractLike) -> CollectionContract:
    """The contract itself, or the one an object carries as ``.contract``."""
    if isinstance(contract, CollectionContract):
        return contract
    carried = getattr(contract, "contract", None)
    if isinstance(carried, CollectionContract):
        return carried
    raise TransportError(
        "connect needs a CollectionContract (or an object carrying one "
        "as .contract), got %s" % type(contract).__name__
    )


def as_stream_id(stream_id: Optional[bytes]) -> bytes:
    """A 16-byte stream id: the given one checked, or a fresh random one."""
    if stream_id is None:
        return os.urandom(SENDER_ID_SIZE)
    if not isinstance(stream_id, (bytes, bytearray)) or len(
        stream_id
    ) != SENDER_ID_SIZE:
        raise TransportError(
            "a sender id is %d raw bytes, got %r" % (SENDER_ID_SIZE, stream_id)
        )
    return bytes(stream_id)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream and wait for it, ignoring a peer already gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def exchange_hello(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    magic: bytes,
    digest: bytes,
    stream_id: bytes,
    server: str,
) -> Tuple[int, bytes, int, str]:
    """Send one hello; return the reply's version, digest, resume, message.

    Raises :class:`TransportError` when the peer hangs up or does not
    speak this protocol, and the typed error of a refusal status.
    """
    writer.write(HELLO.pack(magic, TRANSPORT_VERSION, digest, stream_id))
    await writer.drain()
    try:
        reply, version, theirs, resume = HELLO_REPLY.unpack(
            await reader.readexactly(HELLO_REPLY.size)
        )
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(
            "%s closed the connection during the handshake: %s" % (server, exc)
        ) from None
    if reply != TRANSPORT_MAGIC:
        raise TransportError(
            "peer is not a %s: bad hello magic %r" % (server, reply)
        )
    status, message = await read_status(reader)
    raise_for_status(status, message)
    return version, theirs, resume, message


#: A refused frame: its ``reason`` label and the typed error its peer hears.
Refusal = Tuple[str, Exception]


def _status_for(error: Exception) -> int:
    """The status a refused peer hears: the inverse of ``raise_for_status``."""
    if isinstance(error, ContractMismatchError):
        return STATUS_CONTRACT_MISMATCH
    if isinstance(error, (WireFormatError, DimensionError, DomainError)):
        return STATUS_WIRE_ERROR
    return STATUS_TRANSPORT_ERROR


class IngestServer:
    """The server half of both ingest tiers; a subclass adds the fold policy.

    A subclass sets the class attributes below, creates its
    ``_m_rejected`` (labelled by ``reason``) and ``_m_deduped``
    counters, and supplies ``contract``, ``stats_snapshot()`` and the
    fold policy: ``_watermark(stream_id)`` (the highest frame number
    already folded), :meth:`_fold` and ``_users_acked()`` (the users
    :meth:`wait_for_users` counts). :meth:`_recover`, :meth:`_serving`
    and :meth:`_wind_down` are optional lifecycle hooks.
    """

    #: Magic opening the stream hellos this role accepts, and what it
    #: accepts in words (completing a bad-magic refusal).
    _hello_magic: bytes
    _accepts: str
    #: How errors, events and metric names call this server and the
    #: owner of a stream.
    _role: str
    _peer: str
    #: What a stream ships, and the event field its number goes under.
    _unit: str
    _seq_key: str
    #: Event emitted for an accepted handshake.
    _accept_event: str

    def __init__(
        self,
        max_frame_bytes: int,
        store: Optional[CheckpointStore],
        metrics: Optional[MetricsRegistry],
    ) -> None:
        self.max_frame_bytes = strict_positive(
            max_frame_bytes, "max_frame_bytes", DimensionError
        )
        self.store = store
        self._connections: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        # Streams connected right now: a stream id names ONE stream, so
        # concurrent connections under it would make its watermark
        # meaningless.
        self._active: Set[bytes] = set()
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._progress: Optional[asyncio.Event] = None
        self._stopping = False
        self._fold_error: Optional[Exception] = None
        self._rejected = 0
        self._deduped = 0
        self.handshakes_rejected = 0
        self.bytes_received = 0
        self.checkpoints_written = 0
        # Telemetry: the plain counters stay authoritative (and cheap);
        # the registry mirrors them with labels/latencies for snapshots
        # and the STATS request. One registry can be shared across the
        # stack — instruments are registered idempotently.
        self.telemetry = metrics if metrics is not None else MetricsRegistry()
        self._clock = self.telemetry.clock
        self._log = event_logger(self._role)
        registry = self.telemetry
        self._m_handshakes_rejected = registry.counter(
            "%s_handshakes_rejected_total" % self._role,
            "Connections refused during the handshake, by reason",
            labels=("reason",),
        )
        self._m_stats_requests = registry.counter(
            "%s_stats_requests_total" % self._role,
            "STATS control requests served",
        )
        self._m_checkpoints = registry.counter(
            "%s_checkpoints_written_total" % self._role,
            "Checkpoints persisted",
        )
        self._m_checkpoint_bytes = registry.counter(
            "%s_checkpoint_bytes_total" % self._role,
            "Encoded bytes of persisted checkpoints",
        )
        if store is not None and getattr(store, "telemetry", None) is None:
            store.attach_telemetry(registry)

    # ------------------------------------------------------- fold policy

    async def _fold(
        self, stream_id: bytes, seq: int, payload: bytes
    ) -> Optional[Refusal]:
        """Fold one frame numbered above the watermark; a refusal, if any.

        Typed errors (:class:`ContractMismatchError`,
        :class:`WireFormatError`, :class:`DimensionError`,
        :class:`DomainError`) refuse the frame before any state moves.
        A returned ``(reason, error)`` refuses it too — a policy's own
        check, or a failed :meth:`_durably` save.
        """
        raise NotImplementedError

    def _recover(self, document: Dict[str, Any]) -> None:
        """Resume from the newest intact checkpoint ``document``."""

    def _serving(self) -> None:
        """Spawn the role's own tasks, right after the bind."""

    async def _wind_down(self) -> None:
        """The role's own shutdown, once the connections are settled."""

    # ------------------------------------------------------------ lifecycle

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, ssl=None
    ) -> "IngestServer":
        """Bind the listening socket, recovering durable state first.

        With a checkpoint store configured, the newest intact checkpoint
        is recovered *before* the socket opens, so every reconnecting
        peer hears its true watermark. A checkpoint written under a
        different contract raises
        :class:`~repro.exceptions.ContractMismatchError`; a damaged
        store raises :class:`~repro.exceptions.CheckpointCorruptError`.
        ``ssl`` is an optional server-side :class:`ssl.SSLContext`: with
        it the server only speaks TLS, and the framing above the
        encrypted stream is unchanged.
        """
        if self._tcp is not None:
            raise TransportError("%s is already serving" % self._role)
        if self.store is not None:
            document = self.store.recover()
            if document is not None:
                self._recover(document)
        self._stopping = False
        self._progress = asyncio.Event()
        self._tcp = await asyncio.start_server(
            self._handle, host, port, ssl=ssl
        )
        # Spawn only after a successful bind (a port in use must not
        # leave tasks behind). No await separates the two, so no
        # connection is handled before the spawned tasks exist.
        self._serving()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (useful after binding port 0)."""
        if self._tcp is None or not self._tcp.sockets:
            raise TransportError("%s is not serving" % self._role)
        ports = {sock.getsockname()[1] for sock in self._tcp.sockets}
        if len(ports) > 1:
            # port=0 on a multi-address hostname (e.g. dual-stack
            # "localhost") gives each address family its own ephemeral
            # port; advertising just one would misdirect half the peers.
            raise TransportError(
                "%s is bound to multiple ports %s: binding port 0 on a "
                "multi-address host gives each address family its own "
                "ephemeral port — bind one explicit address (e.g. "
                "127.0.0.1) instead" % (self._role, sorted(ports))
            )
        return ports.pop()

    async def _shutdown(self, abort: bool, grace: Optional[float]) -> None:
        """Stop accepting, settle the open connections, wind down.

        ``abort`` closes every connection at once; otherwise ``grace``
        bounds the wait for in-flight connections (``None`` waits for
        all) and whatever is still open afterwards is closed — so one
        silent peer cannot hang the shutdown forever.
        """
        # Settle the connections BEFORE awaiting wait_closed(): on
        # Python >= 3.12 Server.wait_closed() waits for every connection
        # handler to finish (gh-79033), so awaiting it while a handler
        # is still blocked reading an idle peer would deadlock.
        self._stopping = True
        tcp, self._tcp = self._tcp, None
        if tcp is not None:
            tcp.close()  # stop accepting; existing connections live on
        pending = list(self._connections)
        if abort:
            for writer in list(self._writers):
                writer.close()
        if pending:
            if abort or grace is None:
                await asyncio.gather(*pending, return_exceptions=True)
            else:
                _, overdue = await asyncio.wait(pending, timeout=grace)
                if overdue:
                    for writer in list(self._writers):
                        writer.close()
                    await asyncio.gather(*overdue, return_exceptions=True)
        if tcp is not None:
            await tcp.wait_closed()
        await self._wind_down()

    async def __aenter__(self) -> "IngestServer":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self._shutdown(abort=True, grace=None)

    async def wait_for_users(self, count: int) -> None:
        """Block until acknowledged frames cover at least ``count`` users.

        Raises :class:`TransportError` once the server is poisoned: a
        poisoned server refuses every further frame, so the count could
        never be reached. :meth:`_poison` sets the progress event
        precisely so this waiter wakes up to notice.
        """
        if self._progress is None:
            raise TransportError("%s is not serving" % self._role)
        while self._users_acked() < int(count):
            self._check_folds()
            self._progress.clear()
            if self._users_acked() >= int(count):
                break
            await self._progress.wait()

    # ------------------------------------------------------------ poisoning

    def _poison(self, exc: Exception) -> None:
        """Record a fatal aggregation error and wake anyone waiting.

        First error wins (later failures are usually its consequences).
        """
        if self._fold_error is None:
            self._fold_error = exc
        if self._progress is not None:
            self._progress.set()

    def _check_folds(self) -> None:
        if self._fold_error is not None:
            raise TransportError(
                "%s aggregation failed mid-round; the aggregate is "
                "incomplete and cannot be served: %s"
                % (self._role, self._fold_error)
            ) from self._fold_error

    async def _durably(self, save, trigger: str) -> Optional[Refusal]:
        """Await one durable save; on failure poison the server.

        Returns the refusal for the frame that was about to be acked, or
        ``None`` when the save held — so no peer ever hears OK for state
        a crash would lose.
        """
        try:
            await save()
        # repro: allow[broad-except] -- poison rationale: a durable save
        # failing in any way means durability can no longer be promised;
        # the server is poisoned so no peer hears OK for un-durable state
        # and waiters and estimates raise instead of serving it.
        except Exception as exc:
            emit(
                self._log,
                "checkpoint_failed",
                level=logging.ERROR,
                trigger=trigger,
                error=str(exc),
            )
            self._poison(exc)
            return "checkpoint_failed", TransportError(
                "%s checkpoint failed: %s" % (self._role, exc)
            )
        return None

    def _count_checkpoint(self, nbytes: int) -> None:
        """Count one persisted checkpoint of ``nbytes`` encoded bytes."""
        self.checkpoints_written += 1
        self._m_checkpoints.inc()
        self._m_checkpoint_bytes.inc(nbytes)

    # ----------------------------------------------------------- connections

    def _stream_fields(self, stream_id: bytes) -> Dict[str, str]:
        return {"%s_id" % self._peer: stream_id.hex()}

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            # Accepted in the same tick stop() began: this handler is in
            # neither _connections nor _writers, so the shutdown's
            # settle pass cannot reach it. Refusing here (before any
            # handshake or ack) keeps every ack folded, and lets
            # Server.wait_closed() return promptly.
            await close_writer(writer)
            return
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        stream_id: Optional[bytes] = None
        try:
            stream_id = await self._handshake(reader, writer)
            if stream_id is not None:
                await self._pump(reader, writer, stream_id)
        except (ConnectionError, TransportError):
            pass  # peer vanished: acknowledged frames stay acknowledged
        finally:
            if stream_id is not None:
                self._active.discard(stream_id)
            self._writers.discard(writer)
            await close_writer(writer)
            if task is not None:
                self._connections.discard(task)

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str = "",
        hello: bool = False,
        resume: int = 0,
    ) -> None:
        if hello:
            writer.write(
                HELLO_REPLY.pack(
                    TRANSPORT_MAGIC,
                    TRANSPORT_VERSION,
                    self.contract.digest,
                    resume,
                )
            )
        writer.write(pack_status(status, message))
        await writer.drain()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """Check a hello before any payload flows; the stream id or None.

        On success the stream is registered as active and the reply
        carries its resume watermark, so a reconnecting peer knows
        exactly which frames are already folded.
        """
        try:
            magic, version, digest, stream_id = HELLO.unpack(
                await reader.readexactly(HELLO.size)
            )
        except asyncio.IncompleteReadError:
            return None  # probe/scan connection: nothing to answer
        if magic == STATS_MAGIC:
            # Live introspection: not a stream and not a rejection.
            payload = json.dumps(self.stats_snapshot(), sort_keys=True)
            self._m_stats_requests.inc()
            emit(self._log, "stats_served", bytes=len(payload))
            await self._reply(writer, STATUS_OK, payload, hello=True)
            return None
        if magic != self._hello_magic:
            reason, error = "bad_magic", TransportError(
                "bad magic %r: this %s accepts %s (expected hello magic %r)"
                % (magic, self._role, self._accepts, self._hello_magic)
            )
        elif version != TRANSPORT_VERSION:
            reason, error = "version", TransportError(
                "unsupported transport version %d (this %s speaks %d)"
                % (version, self._role, TRANSPORT_VERSION)
            )
        elif digest != self.contract.digest:
            reason, error = "contract_mismatch", ContractMismatchError(
                "%s operates under contract %s but this %s collects under "
                "%s (schema, budget, and per-attribute protocols must agree)"
                % (
                    self._peer,
                    bytes(digest).hex(),
                    self._role,
                    self.contract.fingerprint,
                )
            )
        elif stream_id in self._active:
            reason, error = "duplicate_%s" % self._peer, TransportError(
                "%s id %s is already connected: one id names one resumable "
                "stream, so concurrent connections under it would corrupt "
                "its watermark" % (self._peer, stream_id.hex())
            )
        else:
            self._active.add(stream_id)
            resume = self._watermark(stream_id)
            emit(
                self._log,
                self._accept_event,
                **self._stream_fields(stream_id),
                **{"resume_%s" % self._seq_key: resume},
            )
            await self._reply(writer, STATUS_OK, hello=True, resume=resume)
            return stream_id
        self.handshakes_rejected += 1
        self._m_handshakes_rejected.labels(reason=reason).inc()
        emit(
            self._log,
            "handshake_rejected",
            level=logging.WARNING,
            reason=reason,
            detail=str(error),
        )
        await self._reply(writer, _status_for(error), str(error), hello=True)
        return None

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stream_id: bytes,
    ) -> None:
        """Dedup, fold and ack frames until EOF or the first refused one."""
        while True:
            try:
                framed = await read_frame(reader, self.max_frame_bytes)
            except WireFormatError as exc:
                return await self._refuse(writer, stream_id, "wire", exc)
            if framed is None:
                return  # clean end of stream
            seq, payload = framed
            if self._fold_error is not None:
                # A poisoned server must not keep collecting acks it
                # cannot honour.
                return await self._refuse(
                    writer,
                    stream_id,
                    "poisoned",
                    TransportError(
                        "%s aggregation failed: %s"
                        % (self._role, self._fold_error)
                    ),
                )
            if seq <= self._watermark(stream_id):
                # Already folded: re-acknowledge, state untouched.
                self._deduped += 1
                self._m_deduped.inc()
                emit(
                    self._log,
                    "%s_deduped" % self._unit,
                    level=logging.DEBUG,
                    **self._stream_fields(stream_id),
                    **{self._seq_key: seq},
                )
                await self._reply(writer, STATUS_OK)
                continue
            try:
                refusal = await self._fold(stream_id, seq, payload)
            except ContractMismatchError as exc:
                refusal = "contract_mismatch", exc
            except (WireFormatError, DimensionError, DomainError) as exc:
                refusal = "invalid", exc
            if refusal is not None:
                return await self._refuse(writer, stream_id, *refusal)
            if self._progress is not None:
                self._progress.set()
            await self._reply(writer, STATUS_OK)

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        stream_id: bytes,
        reason: str,
        error: Exception,
    ) -> None:
        """Count, log and answer one refused frame (the stream then ends)."""
        self._rejected += 1
        self._m_rejected.labels(reason=reason).inc()
        emit(
            self._log,
            "%s_rejected" % self._unit,
            level=logging.WARNING,
            reason=reason,
            **self._stream_fields(stream_id),
            detail=str(error),
        )
        await self._reply(writer, _status_for(error), str(error))


class HandshakenStream:
    """One open, handshaken stream: the client half of both tiers.

    A subclass sets the class attributes below, wraps :meth:`_open` in
    its own ``connect`` and ships payloads through :meth:`_round_trip`.
    Use as an async context manager so half-open connections cannot
    leak.
    """

    #: Magic opening this stream's hello.
    _hello_magic: bytes
    #: How metrics, events and errors call this client and its server.
    _name: str
    _server: str
    #: Event fields of the stream id and the resume watermark.
    _id_key: str
    _resume_key: str

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        metrics: Optional[MetricsRegistry],
    ) -> None:
        self.contract = contract
        self._reader = reader
        self._writer = writer
        self._closed = False
        self.telemetry = metrics

    @classmethod
    async def _open(
        cls,
        host: str,
        port: int,
        contract: ContractLike,
        stream_id: Optional[bytes],
        metrics: Optional[MetricsRegistry],
        ssl,
    ) -> "HandshakenStream":
        """Connect, handshake, and wrap the stream in ``cls``.

        Raises :class:`~repro.exceptions.ContractMismatchError` when the
        server collects under a different contract — before any payload
        bytes flow — and :class:`~repro.exceptions.TransportError` when
        the peer is not the server this stream dials.
        """
        agreed = as_contract(contract)
        stream_id = as_stream_id(stream_id)
        reader, writer = await asyncio.open_connection(host, port, ssl=ssl)
        try:
            version, digest, resume, _ = await exchange_hello(
                reader,
                writer,
                cls._hello_magic,
                agreed.digest,
                stream_id,
                cls._server,
            )
            if version != TRANSPORT_VERSION:
                raise TransportError(
                    "%s speaks transport version %d, this %s %d"
                    % (cls._server, version, cls._name, TRANSPORT_VERSION)
                )
            if digest != agreed.digest:
                # The server accepted us but presents a different
                # fingerprint: refuse symmetrically.
                raise ContractMismatchError(
                    "%s presents contract %s but this %s operates under %s"
                    % (
                        cls._server,
                        bytes(digest).hex(),
                        cls._name,
                        agreed.fingerprint,
                    )
                )
        # repro: allow[broad-except] -- cleanup-and-reraise: the failed
        # handshake's socket must close on every path (including
        # CancelledError) before the original error propagates.
        except BaseException:
            writer.close()
            raise
        if metrics is not None:
            metrics.counter(
                "%s_connects_total" % cls._name,
                "Successful handshaken connections to a %s" % cls._server,
            ).inc()
        emit(
            event_logger(cls._name),
            "%s_connected" % cls._name,
            **{
                cls._id_key: stream_id.hex(),
                "host": host,
                "port": port,
                cls._resume_key: resume,
            },
        )
        return cls(agreed, reader, writer, stream_id, resume, metrics)

    async def _round_trip(self, seq: int, payload: bytes) -> None:
        """Ship one framed payload and wait for its status.

        The server closes the stream after an error status, so this side
        tears down too before the typed error propagates.
        """
        write_frame(self._writer, seq, payload)
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            raise TransportError("connection lost mid-send: %s" % exc) from None
        status, message = await read_status(self._reader)
        if status != STATUS_OK:
            await self.close()
            raise_for_status(status, message)

    async def close(self) -> None:
        """End the stream (EOF) and release the connection."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._writer.can_write_eof():
                self._writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass
        await close_writer(self._writer)

    async def __aenter__(self) -> "HandshakenStream":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
