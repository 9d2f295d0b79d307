"""The contract both ingest servers share, and the strict options around it.

:class:`~repro.transport.CollectionGateway` (report frames) and
:class:`~repro.federation.RootAggregator` (edge state pushes) run on one
ingest-server core: the same hello checks, the same socket lifecycle and
the same poisoning rules. ``TestSharedServerContract`` pins that
contract once, parametrized over both roles, so a fix to the core is
exercised through each server that inherits it.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time

import numpy as np
import pytest

from repro.exceptions import (
    DimensionError,
    StorageError,
    TransportError,
)
from repro.federation import EdgeAggregator, RootAggregator, StatePusher
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    ShardedServer,
)
from repro.storage import JsonFileStore, encode_document
from repro.transport import (
    CollectionGateway,
    AsyncReportSender,
    replay_frames,
    request_stats,
    serve_collection,
)
from repro.transport.framing import (
    HELLO,
    HELLO_REPLY,
    SENDER_ID_SIZE,
    STATE_MAGIC,
    STATUS_OK,
    TRANSPORT_MAGIC,
    read_status,
)

SCHEMA = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b"),
        CategoricalAttribute("c", n_categories=5),
    ]
)
SPEC = {"c": "oue"}
EPSILON = 2.0
STREAM_ID = b"\x42" * SENDER_ID_SIZE


def _contract():
    return LDPClient(SCHEMA, EPSILON, protocols=SPEC).contract


def _frame(seed=0, users=30):
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            gen.uniform(-1, 1, users),
            gen.uniform(-1, 1, users),
            gen.integers(0, 5, users),
        ]
    )
    return LDPClient(SCHEMA, EPSILON, protocols=SPEC).report_encoded(
        records, gen
    )


class BrokenStore(JsonFileStore):
    """A store whose every save fails: the durable step cannot succeed."""

    def save(self, document):
        raise StorageError("disk full")


class GatewayRole:
    """Report frames into a collection gateway."""

    magic = TRANSPORT_MAGIC
    prefix = "gateway"

    async def serve(self, store=None):
        kwargs = {} if store is None else {
            "store": store,
            "checkpoint_every_frames": 1,
        }
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        return await serve_collection(server, "127.0.0.1", 0, **kwargs)

    async def connect(self, port):
        return await AsyncReportSender.connect(
            "127.0.0.1", port, _contract(), sender_id=STREAM_ID
        )

    async def deliver(self, client):
        await client.send_encoded(_frame())


class RootRole:
    """Edge state pushes into a root aggregator."""

    magic = STATE_MAGIC
    prefix = "root"

    async def serve(self, store=None):
        root = RootAggregator(SCHEMA, EPSILON, protocols=SPEC, store=store)
        return await root.start("127.0.0.1", 0)

    async def connect(self, port):
        return await StatePusher.connect(
            "127.0.0.1", port, _contract(), edge_id=STREAM_ID
        )

    async def deliver(self, client):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.ingest_encoded(_frame())
        await client.push(server.state_dict())


@pytest.fixture(params=[GatewayRole, RootRole], ids=["gateway", "root"])
def role(request):
    return request.param()


async def _raw_hello(port, hello):
    """Send one raw hello; return the reply's status and message."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(hello)
        await writer.drain()
        await reader.readexactly(HELLO_REPLY.size)
        return await read_status(reader)
    finally:
        writer.close()


class TestSharedServerContract:
    def test_transport_version_mismatch_refused_and_counted(self, role):
        async def scenario():
            server = await role.serve()
            status, message = await _raw_hello(
                server.port,
                HELLO.pack(role.magic, 99, _contract().digest, STREAM_ID),
            )
            snapshot = server.stats_snapshot()
            await server.stop()
            return status, message, snapshot

        status, message, snapshot = asyncio.run(scenario())
        assert status != STATUS_OK
        assert "version" in message
        assert snapshot["counters"]["handshakes_rejected"] == 1
        family = snapshot["metrics"][
            "%s_handshakes_rejected_total" % role.prefix
        ]
        assert family["values"]["reason=version"] == 1.0

    def test_probe_hanging_up_mid_hello_is_harmless(self, role):
        async def scenario():
            server = await role.serve()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(role.magic)  # a partial hello, then hang up
            await writer.drain()
            writer.close()
            client = await role.connect(server.port)
            async with client:
                await role.deliver(client)
            counters = server.stats_snapshot()["counters"]
            await server.stop()
            return counters

        counters = asyncio.run(scenario())
        assert counters["handshakes_rejected"] == 0
        assert counters["rejections_total"] == 0

    def test_stats_served_before_any_contract_check(self, role):
        async def scenario():
            server = await role.serve()
            # The request carries a zeroed digest: no contract at all.
            served = await request_stats("127.0.0.1", server.port)
            after = server.stats_snapshot()
            await server.stop()
            return served, after

        served, after = asyncio.run(scenario())
        assert served["counters"]["handshakes_rejected"] == 0
        assert after["counters"]["handshakes_rejected"] == 0
        family = after["metrics"]["%s_stats_requests_total" % role.prefix]
        assert family["values"][""] == 1.0

    def test_connection_accepted_after_stop_began_is_refused(self, role):
        async def scenario():
            server = await role.serve()
            # stop() has begun (the flag is set) but the listener still
            # accepts: the handler must close before any hello or ack.
            server._stopping = True
            with pytest.raises(TransportError, match="handshake"):
                await role.connect(server.port)
            server._stopping = False
            counters = server.stats_snapshot()["counters"]
            await server.stop()
            return counters

        counters = asyncio.run(scenario())
        assert counters["handshakes_rejected"] == 0
        assert counters["rejections_total"] == 0

    def test_stop_with_grace_closes_an_idle_peer_promptly(self, role):
        async def scenario():
            server = await role.serve()
            client = await role.connect(server.port)
            started = time.monotonic()
            await asyncio.wait_for(server.stop(grace=0.2), timeout=10)
            elapsed = time.monotonic() - started
            await client.close()
            return elapsed

        assert asyncio.run(scenario()) < 5.0

    def test_each_checkpoint_is_encoded_once(self, role, tmp_path, monkeypatch):
        # The byte counter comes from the store's save, not a re-encode:
        # every module-level binding of the encoder is spied on.
        real = encode_document
        sizes = []

        def counting(document):
            blob = real(document)
            sizes.append(len(blob))
            return blob

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "encode_document", None) is real:
                monkeypatch.setattr(module, "encode_document", counting)

        async def scenario():
            server = await role.serve(JsonFileStore(tmp_path / "ckpt.json"))
            client = await role.connect(server.port)
            async with client:
                await role.deliver(client)
            snapshot = server.stats_snapshot()
            await server.stop()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["checkpoints_written"] == len(sizes) >= 1
        family = snapshot["metrics"]["%s_checkpoint_bytes_total" % role.prefix]
        assert family["values"][""] == sum(sizes)

    def test_wait_for_users_raises_once_poisoned(self, role, tmp_path):
        async def scenario():
            server = await role.serve(BrokenStore(tmp_path / "broken.json"))
            client = await role.connect(server.port)
            with pytest.raises(TransportError, match="checkpoint failed"):
                await role.deliver(client)
            await client.close()
            with pytest.raises(TransportError, match="disk full"):
                await asyncio.wait_for(
                    server.wait_for_users(10**6), timeout=10
                )
            await server.stop()

        asyncio.run(scenario())


class TestStrictNumericOptions:
    """Counts are integers (never bools), periods finite and positive."""

    @pytest.mark.parametrize("value", [2.5, True, 0, -3])
    def test_root_max_frame_bytes(self, value):
        with pytest.raises(DimensionError):
            RootAggregator(SCHEMA, EPSILON, protocols=SPEC, max_frame_bytes=value)

    def test_root_max_frame_bytes_accepts_numpy_integers(self):
        root = RootAggregator(
            SCHEMA, EPSILON, protocols=SPEC, max_frame_bytes=np.int64(4096)
        )
        assert root.max_frame_bytes == 4096

    @pytest.mark.parametrize("value", [2.5, True])
    def test_checkpoint_every_frames(self, value, tmp_path):
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        with pytest.raises(StorageError):
            CollectionGateway(
                server,
                store=JsonFileStore(tmp_path / "round.json"),
                checkpoint_every_frames=value,
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_checkpoint_every_seconds_must_be_finite(self, value, tmp_path):
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        with pytest.raises(StorageError):
            CollectionGateway(
                server,
                store=JsonFileStore(tmp_path / "round.json"),
                checkpoint_every_seconds=value,
            )

    @pytest.mark.parametrize(
        "option", ["push_every_frames", "push_attempts"]
    )
    @pytest.mark.parametrize("value", [2.5, 1.5, True])
    def test_edge_push_counts(self, option, value):
        with pytest.raises(TransportError):
            EdgeAggregator(SCHEMA, EPSILON, protocols=SPEC, **{option: value})

    def test_edge_push_every_seconds_must_be_finite(self):
        with pytest.raises(TransportError):
            EdgeAggregator(
                SCHEMA, EPSILON, protocols=SPEC, push_every_seconds=math.nan
            )

    @pytest.mark.parametrize("value", [1.5, True, 0])
    def test_replay_attempts(self, value):
        async def scenario():
            await replay_frames(
                "127.0.0.1", 1, _contract(), [], STREAM_ID, attempts=value
            )

        with pytest.raises(TransportError, match="attempts"):
            asyncio.run(scenario())


class TestRetryExhaustion:
    def test_exhausted_edge_push_groups_repeated_errors(self):
        """Both retry loops report distinct errors once, with the
        attempts that produced them — not one entry per attempt."""

        async def scenario():
            # Nothing listens upstream: every attempt is refused alike.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            edge = EdgeAggregator(
                SCHEMA,
                EPSILON,
                protocols=SPEC,
                push_attempts=3,
                push_retry_delay=0.01,
            )
            await edge.start("127.0.0.1", port)
            try:
                with pytest.raises(TransportError) as info:
                    await edge.push_now()
            finally:
                with pytest.raises(TransportError):
                    await edge.stop()
            return str(info.value)

        message = asyncio.run(scenario())
        assert "after 3 attempt(s)" in message
        assert "attempts 1,2,3:" in message
        assert "attempt 2:" not in message
