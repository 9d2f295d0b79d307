"""Asyncio TCP collection gateway: sockets in, sharded aggregation out.

:class:`CollectionGateway` is the ingestion front of a collection round,
an :class:`~repro.transport.ingest.IngestServer` for report frames: the
handshake, resume dedup, durable-before-ack and poisoning rules are the
shared core's. What this module adds is the gateway's fold policy.

* **Contiguous sequences.** A sender numbers its frames 1, 2, 3, …; a
  gap above the watermark is a protocol violation.
* **Validate before ack.** Each frame is decoded (CRC, structure),
  checked against the contract and fully validated on the connection
  coroutine, so an ack means "this batch will be in the estimate once
  drained" and a bad frame never touches aggregation state.
* **Bounded shard queues.** Validated batches fan out over one consumer
  per shard of a :class:`~repro.session.ShardedServer`, each behind a
  bounded queue. A reader that lands on a full queue blocks in
  ``put()`` — its socket is not read and its sender not acked — so a
  slow shard slows its producers instead of ballooning memory.
* **Round checkpoints.** With a
  :class:`~repro.storage.CheckpointStore`, the exact aggregation
  snapshot plus every sender's acknowledged watermark is persisted
  every ``N`` frames (before the triggering ack) and/or every ``T``
  seconds, and once more at :meth:`CollectionGateway.stop`. A round
  interrupted by SIGKILL and resumed from checkpoint finishes
  bit-identical to one that never crashed.

Shutdown is drain-and-merge: stop accepting, settle the connections,
fold every queued batch, write the final checkpoint. Because
aggregation is exact (:mod:`repro.session.streaming`), the estimate is
bit-identical to one-shot in-process ingestion of the same reports.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, List, Optional

from ..session.sharded import ShardedServer
from ..session.server import LDPServer, Postprocessor, SessionEstimate
from ..exceptions import DimensionError, StorageError, WireFormatError
from ..storage import (
    CheckpointStore,
    parse_round_checkpoint,
    round_checkpoint_document,
)
from ..telemetry import MetricsRegistry, emit
from ..wire.codec import iter_attribute_blocks
from ..wire.contract import CollectionContract
from .framing import DEFAULT_MAX_FRAME_BYTES, TRANSPORT_MAGIC
from .ingest import IngestServer, Refusal, strict_positive


class CollectionGateway(IngestServer):
    """Socket ingestion front over a :class:`~repro.session.ShardedServer`.

    Parameters
    ----------
    server:
        The sharded collector the gateway feeds. One consumer coroutine
        is spawned per shard; each shard is only ever touched by its own
        consumer, so folding needs no locks.
    queue_depth:
        Bound of every per-shard queue — the backpressure knob. Small
        values couple producers tightly to consumer progress; large
        values smooth bursts at the cost of buffered memory.
    max_frame_bytes:
        Reject frames longer than this before allocating them.
    store:
        Optional :class:`~repro.storage.CheckpointStore` for round
        checkpoints. :meth:`start` recovers the newest intact checkpoint
        from it (state, watermarks and counters resume), :meth:`stop`
        writes a final one, and the ``checkpoint_every_*`` triggers
        write periodic ones in between. The caller owns the store's
        lifetime (the gateway never closes it).
    checkpoint_every_frames:
        Checkpoint after this many accepted frames — *before* the
        triggering frame's ack is sent, so an acknowledged frame on a
        frame-triggered gateway is a durable frame.
    checkpoint_every_seconds:
        Checkpoint at least this often (in gateway-loop time) while
        frames are arriving.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` to instrument
        against (one is created when omitted, so :meth:`stats_snapshot`
        and the ``STATS`` socket request always work). The gateway also
        attaches the registry to its checkpoint store and session
        shards when they are not already instrumented, so one snapshot
        covers the whole ingest path.
    """

    _hello_magic = TRANSPORT_MAGIC
    _accepts = "report frames from senders, not STATE pushes"
    _role = "gateway"
    _peer = "sender"
    _unit = "frame"
    _seq_key = "seq"
    _accept_event = "handshake_accepted"

    def __init__(
        self,
        server: ShardedServer,
        queue_depth: int = 8,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        store: Optional[CheckpointStore] = None,
        checkpoint_every_frames: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.queue_depth = strict_positive(
            queue_depth, "queue_depth", DimensionError
        )
        if store is None and (
            checkpoint_every_frames is not None
            or checkpoint_every_seconds is not None
        ):
            raise StorageError(
                "checkpoint triggers need a checkpoint store"
            )
        self.checkpoint_every_frames = strict_positive(
            checkpoint_every_frames,
            "checkpoint_every_frames",
            StorageError,
            optional=True,
        )
        self.checkpoint_every_seconds = strict_positive(
            checkpoint_every_seconds,
            "checkpoint_every_seconds",
            StorageError,
            count=False,
            optional=True,
        )
        super().__init__(max_frame_bytes, store, metrics)
        self.server = server
        self._queues: List[asyncio.Queue] = []
        self._frame_listeners: List[Any] = []
        self._consumers: List[asyncio.Task] = []
        self._cursor = 0
        # Resume bookkeeping: highest contiguously acknowledged frame
        # sequence number per sender id.
        self._acked: Dict[bytes, int] = {}
        # Intake barrier: checkpoint() holds this across drain+snapshot
        # so no frame can be queued (or its watermark advanced) while
        # the snapshot is being cut — acked == folded at save time.
        self._intake_lock = asyncio.Lock()
        self._timer: Optional[asyncio.Task] = None
        self._frames_since_checkpoint = 0
        # "Accepted" means validated + acked + queued; the batch is
        # folded into a shard by drain time at the latest.
        self.frames_accepted = 0
        self.users_accepted = 0
        self.heartbeats = 0
        registry = self.telemetry
        self._m_frames_accepted = registry.counter(
            "gateway_frames_accepted_total",
            "Frames validated, acknowledged and queued for folding",
        )
        self._m_rejected = registry.counter(
            "gateway_frames_rejected_total",
            "Frames refused after the handshake, by reason",
            labels=("reason",),
        )
        self._m_deduped = registry.counter(
            "gateway_frames_deduped_total",
            "Replayed frames acknowledged without folding (resume dedup)",
        )
        self._m_users_accepted = registry.counter(
            "gateway_users_accepted_total",
            "Users carried by accepted frames",
        )
        self._m_bytes_received = registry.counter(
            "gateway_bytes_received_total",
            "Payload bytes of accepted frames",
        )
        self._m_heartbeats = registry.counter(
            "gateway_heartbeats_total",
            "Zero-user liveness frames accepted",
        )
        self._m_queue_depth = registry.time_weighted_gauge(
            "gateway_queue_depth",
            "Per-shard queue depth; time_weighted_mean is the exact "
            "average depth over the round",
            labels=("shard",),
        )
        self._m_ack_latency = registry.histogram(
            "gateway_ack_latency_seconds",
            "Frame read to OK ack (validation, routing, backpressure, "
            "and any triggered checkpoint)",
        )
        self._m_fold_seconds = registry.histogram(
            "gateway_fold_seconds",
            "Time folding one validated batch into its shard",
        )
        self._m_stall_seconds = registry.counter(
            "gateway_backpressure_stall_seconds_total",
            "Seconds connection readers spent blocked on full shard queues",
        )
        self._m_stalls = registry.counter(
            "gateway_backpressure_stalls_total",
            "Frame intakes that found their target shard queue full",
        )
        self._m_checkpoint_seconds = registry.histogram(
            "gateway_checkpoint_seconds",
            "Drain + snapshot + store.save per round checkpoint",
        )
        if getattr(server, "telemetry", None) is None:
            server.attach_telemetry(registry)

    @property
    def frames_rejected(self) -> int:
        """Frames refused after the handshake."""
        return self._rejected

    @property
    def frames_deduped(self) -> int:
        """Replayed frames acknowledged without folding."""
        return self._deduped

    @property
    def contract(self) -> CollectionContract:
        """The collection contract every connection must match."""
        return self.server.contract

    def add_frame_listener(self, listener) -> None:
        """Register a zero-argument callable invoked per accepted frame.

        Called synchronously right after a frame's intake (counters
        updated, watermark advanced), still under the intake barrier —
        so a listener that counts frames sees exactly the accepted
        sequence. Listeners must be cheap and must not raise; the
        federation edge uses one to wake its push loop.
        """
        self._frame_listeners.append(listener)

    # ------------------------------------------------------------ lifecycle

    def _recover(self, document: Dict[str, Any]) -> None:
        state, progress, frames = parse_round_checkpoint(
            document, self.contract
        )
        self.server.load_state_dict(state)
        self._acked = dict(progress)
        self.frames_accepted = frames
        self.users_accepted = self.server.users
        self._frames_since_checkpoint = 0
        self._m_frames_accepted.inc(frames)
        self._m_users_accepted.inc(self.users_accepted)
        emit(
            self._log,
            "recovery_replayed",
            frames=frames,
            users=self.users_accepted,
            senders=len(self._acked),
        )

    def _serving(self) -> None:
        self._queues = [
            asyncio.Queue(maxsize=self.queue_depth)
            for _ in self.server.shards
        ]
        self._consumers = [
            asyncio.ensure_future(self._consume(index))
            for index in range(len(self._queues))
        ]
        if self.checkpoint_every_seconds is not None:
            self._timer = asyncio.ensure_future(self._checkpoint_timer())

    async def drain(self) -> None:
        """Wait until every accepted frame has been folded into a shard."""
        await asyncio.gather(*(queue.join() for queue in self._queues))

    async def stop(
        self,
        abort_connections: bool = False,
        grace: Optional[float] = None,
    ) -> None:
        """Graceful drain-and-merge shutdown.

        Stops accepting, waits for in-flight connections to finish,
        drains every shard queue, writes a final checkpoint when a store
        is configured (and something changed since the last one), then
        cancels the consumers. ``abort_connections`` closes connections
        immediately instead of waiting; ``grace`` waits up to that many
        seconds and then closes whatever is still open. Either way every
        acknowledged frame is folded. A frame in flight when its
        connection was aborted may be folded *without* its ack reaching
        the sender — harmless under resume: the gateway's watermark
        covers it, so a retry is deduplicated instead of double-counted.
        """
        await self._shutdown(abort_connections, grace)

    async def _wind_down(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            await asyncio.gather(self._timer, return_exceptions=True)
            self._timer = None
        await self.drain()
        if (
            self.store is not None
            and self._fold_error is None
            and (self._frames_since_checkpoint or not self.checkpoints_written)
        ):
            await self.checkpoint()
        for consumer in self._consumers:
            consumer.cancel()
        await asyncio.gather(*self._consumers, return_exceptions=True)
        self._consumers = []

    def _users_acked(self) -> int:
        return self.users_accepted

    # ----------------------------------------------------------- checkpoints

    async def checkpoint(self) -> None:
        """Persist a round checkpoint now (state + sender watermarks).

        Holds the intake barrier while draining the shard queues and
        cutting the snapshot, so the saved state covers *exactly* the
        acknowledged frames — every watermark in the checkpoint is a
        frame folded into the saved state, nothing more, nothing less.
        """
        if self.store is None:
            raise StorageError("this gateway has no checkpoint store")
        async with self._intake_lock:
            started = self._clock()
            frames = self._frames_since_checkpoint
            await self.drain()
            self._check_folds()
            document = round_checkpoint_document(
                self.server.state_dict(), self._acked, self.frames_accepted
            )
            nbytes = self.store.save(document)
            self._frames_since_checkpoint = 0
            seconds = self._clock() - started
            self._count_checkpoint(nbytes)
            self._m_checkpoint_seconds.observe(seconds)
            emit(
                self._log,
                "checkpoint_cut",
                frames=frames,
                users=self.server.users,
                bytes=nbytes,
                seconds=round(seconds, 6),
            )

    async def _checkpoint_timer(self) -> None:
        """Time-triggered checkpoints (only when frames arrived since)."""
        period = self.checkpoint_every_seconds
        while True:
            await asyncio.sleep(period)
            if not self._frames_since_checkpoint:
                continue
            if await self._durably(self.checkpoint, "timer") is not None:
                return  # poisoned: nothing durable can be promised now

    # ------------------------------------------------------------- consumers

    async def _consume(self, index: int) -> None:
        """Fold validated batches from queue ``index`` into shard ``index``.

        A fold that raises (e.g. allocation failure under memory
        pressure) poisons the whole gateway, not just this shard: the
        error is recorded, later frames are refused instead of acked,
        and :meth:`estimate`/:meth:`merged` re-raise it rather than
        serve a silently partial aggregate. The consumer itself keeps
        draining (``task_done`` for every item) so a drain can never
        hang on a dead shard.
        """
        shard = self.server.shards[index]
        queue = self._queues[index]
        depth = self._m_queue_depth.labels(shard=index)
        while True:
            users, canonical = await queue.get()
            try:
                if self._fold_error is None:
                    started = self._clock()
                    shard._fold_validated(users, canonical)
                    seconds = self._clock() - started
                    self._m_fold_seconds.observe(seconds)
                    emit(
                        self._log,
                        "fold",
                        level=logging.DEBUG,
                        shard=index,
                        users=users,
                        seconds=round(seconds, 6),
                    )
            # repro: allow[broad-except] -- poison rationale: a fold that
            # raises anything leaves the shard partially updated; the whole
            # gateway is poisoned so estimate()/merged() re-raise instead
            # of serving a silently partial aggregate.
            except Exception as exc:
                emit(
                    self._log,
                    "fold_failed",
                    level=logging.ERROR,
                    shard=index,
                    error=str(exc),
                )
                self._poison(exc)
            finally:
                queue.task_done()
                depth.set(queue.qsize())

    # ----------------------------------------------------------- fold policy

    def _watermark(self, sender_id: bytes) -> int:
        return self._acked.get(sender_id, 0)

    async def _fold(
        self, sender_id: bytes, seq: int, frame: bytes
    ) -> Optional[Refusal]:
        """Validate, route and (when due) checkpoint one fresh frame."""
        started = self._clock()
        watermark = self._acked.get(sender_id, 0)
        if seq != watermark + 1:
            return "sequence_gap", WireFormatError(
                "frame %d skips ahead of watermark %d for sender %s: "
                "sequence numbers must be contiguous"
                % (seq, watermark, sender_id.hex())
            )
        # Streaming decode: each attribute block is parsed and validated
        # as it comes off the frame (payloads stay read-only zero-copy
        # views into it) — no intermediate ReportBatch. Validation is
        # contract-level and identical across shards; consumers fold
        # without re-validating, and nothing folds until every block of
        # the frame has passed.
        users, blocks = iter_attribute_blocks(frame, contract=self.contract)
        canonical = self.server.shards[0]._validate_blocks(users, blocks)
        users = int(users)
        # Bounded queue: blocking here is the backpressure — the socket
        # is not read (and the sender not acked) until the target shard
        # has room. The intake barrier makes queue+watermark atomic with
        # respect to checkpoint().
        async with self._intake_lock:
            shard_index = self._cursor % len(self._queues)
            queue = self._queues[shard_index]
            self._cursor += 1
            stalled = queue.full()
            if stalled:
                self._m_stalls.inc()
                stall_started = self._clock()
            await queue.put((users, canonical))
            if stalled:
                self._m_stall_seconds.inc(self._clock() - stall_started)
            self._m_queue_depth.labels(shard=shard_index).set(queue.qsize())
            self._acked[sender_id] = seq
            self.frames_accepted += 1
            self._frames_since_checkpoint += 1
            self.users_accepted += users
            self.bytes_received += len(frame)
            self._m_frames_accepted.inc()
            self._m_users_accepted.inc(users)
            self._m_bytes_received.inc(len(frame))
            if users == 0:
                self.heartbeats += 1
                self._m_heartbeats.inc()
            for listener in self._frame_listeners:
                listener()
        emit(
            self._log,
            "frame_accepted",
            level=logging.DEBUG,
            sender_id=sender_id.hex(),
            seq=seq,
            users=users,
            shard=shard_index,
        )
        if (
            self.checkpoint_every_frames is not None
            and self._frames_since_checkpoint >= self.checkpoint_every_frames
        ):
            # Durable BEFORE the ack: once the sender hears OK, the
            # frames that triggered this checkpoint survive SIGKILL.
            refusal = await self._durably(self.checkpoint, "frames")
            if refusal is not None:
                return refusal
        self._m_ack_latency.observe(self._clock() - started)
        return None

    # ------------------------------------------------------------- telemetry

    def stats_snapshot(self) -> Dict[str, Any]:
        """The gateway's counters and full metric registry as a plain dict.

        This is exactly what the ``STATS`` socket request serves (see
        :func:`~repro.transport.request_stats`) and what the CLI's
        ``--metrics PATH`` writes on exit. ``counters`` are the plain
        authoritative integers; ``metrics`` is the registry snapshot
        (histograms, time-weighted gauges, labelled families) and
        ``rejections_total`` sums frame and handshake rejections so a
        clean round is a single zero check.
        """
        counters = {
            "frames_accepted": self.frames_accepted,
            "frames_rejected": self.frames_rejected,
            "frames_deduped": self.frames_deduped,
            "handshakes_rejected": self.handshakes_rejected,
            "rejections_total": self.frames_rejected + self.handshakes_rejected,
            "users_accepted": self.users_accepted,
            "users_folded": self.server.users,
            "bytes_received": self.bytes_received,
            "heartbeats": self.heartbeats,
            "checkpoints_written": self.checkpoints_written,
        }
        return {
            "counters": counters,
            "metrics": self.telemetry.snapshot(),
        }

    # -------------------------------------------------------------- results

    @property
    def users(self) -> int:
        """Users folded into the shards so far (drained frames only)."""
        return self.server.users

    def merged(self) -> LDPServer:
        """Fold all shard states into one fresh server (after a drain)."""
        self._check_folds()
        return self.server.merged()

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Merged estimates over everything folded so far.

        Call after :meth:`stop` (or :meth:`drain`) to cover every
        acknowledged frame; mid-round calls see a consistent prefix.
        Raises :class:`TransportError` if a shard consumer died
        mid-round — a partial aggregate is never served.
        """
        self._check_folds()
        return self.server.estimate(postprocess=postprocess)


async def serve_collection(
    server: ShardedServer,
    host: str = "127.0.0.1",
    port: int = 0,
    queue_depth: int = 8,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    store: Optional[CheckpointStore] = None,
    checkpoint_every_frames: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> CollectionGateway:
    """Start a :class:`CollectionGateway` over ``server`` on ``host:port``.

    Returns the serving gateway; ``port=0`` binds an ephemeral port
    (read it back from :attr:`CollectionGateway.port`). With ``store``
    the gateway resumes the newest intact round checkpoint before
    binding and checkpoints per the ``checkpoint_every_*`` triggers. The
    caller owns the round's lifecycle: typically
    ``await gateway.wait_for_users(n)`` (or any other completion
    signal), then ``await gateway.stop()`` and read
    :meth:`~CollectionGateway.estimate`.
    """
    gateway = CollectionGateway(
        server,
        queue_depth=queue_depth,
        max_frame_bytes=max_frame_bytes,
        store=store,
        checkpoint_every_frames=checkpoint_every_frames,
        checkpoint_every_seconds=checkpoint_every_seconds,
        metrics=metrics,
    )
    return await gateway.start(host, port, ssl=ssl)
