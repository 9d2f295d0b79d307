"""Socket transport of the distributed collection API.

The wire layer (:mod:`repro.wire`) makes a report batch a byte string;
this subpackage moves those bytes between real processes over TCP, with
the same strictness guarantees:

* :mod:`repro.transport.ingest` — the shared ingest core: the server
  half (contract handshake before any payload flows, resume dedup,
  durable-before-ack with poisoning, graceful shutdown) and the client
  half (handshaken stream, acknowledged frames) of every tier;
* :func:`serve_collection` / :class:`CollectionGateway` — the report
  ingestion front: accepted frames validated and fanned over shard
  consumers of a :class:`~repro.session.ShardedServer` through bounded
  queues (explicit backpressure), drain-and-merge on shutdown and, with
  a :class:`~repro.storage.CheckpointStore`, round checkpoints that let
  a SIGKILLed gateway resume the round exactly;
* :class:`AsyncReportSender` / :func:`replay_frames` — the user side:
  sequenced acknowledged sends (the ack wait *is* the backpressure),
  zero-user heartbeats, and crash-safe round replay that skips frames
  the gateway already holds durably;
* :mod:`repro.transport.framing` — the shared message definitions
  (handshake structs, sequenced length-prefixed frames, typed status
  codes).

Because aggregation is exact (:mod:`repro.session.streaming`), a socket
round's estimate is bit-identical to one-shot in-process ingestion of
the same report multiset — concurrency, routing, backpressure stalls,
and even a mid-round crash-and-resume cannot move it by one ulp.
"""

from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    SENDER_ID_SIZE,
    STATE_MAGIC,
    STATS_MAGIC,
    STATUS_CONTRACT_MISMATCH,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    STATUS_WIRE_ERROR,
    TRANSPORT_MAGIC,
    TRANSPORT_VERSION,
)
from .gateway import CollectionGateway, serve_collection
from .sender import AsyncReportSender, replay_frames, request_stats

__all__ = [
    "AsyncReportSender",
    "CollectionGateway",
    "DEFAULT_MAX_FRAME_BYTES",
    "SENDER_ID_SIZE",
    "STATE_MAGIC",
    "STATS_MAGIC",
    "STATUS_CONTRACT_MISMATCH",
    "STATUS_OK",
    "STATUS_TRANSPORT_ERROR",
    "STATUS_WIRE_ERROR",
    "TRANSPORT_MAGIC",
    "TRANSPORT_VERSION",
    "replay_frames",
    "request_stats",
    "serve_collection",
]
