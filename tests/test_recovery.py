"""Crash-recovery tests for the checkpointing socket gateway (ISSUE 6).

The acceptance invariant: a collection round interrupted by gateway
death and resumed from a checkpoint store finishes with estimates
bit-identical to an uninterrupted round, with zero double-counted
frames. The gateway dies *without* a final checkpoint here (tasks are
torn down mid-round, like SIGKILL), so resume runs from the periodic
frame-triggered checkpoints alone; the restarted gateway may even use a
different shard count — checkpoints are topology-independent.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    ContractMismatchError,
    StorageError,
    TransportError,
    WireFormatError,
)
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    ShardedServer,
)
from repro.storage import (
    JsonFileStore,
    SegmentLogStore,
    SqliteStore,
    parse_round_checkpoint,
    round_checkpoint_document,
)
from repro.transport import (
    AsyncReportSender,
    CollectionGateway,
    replay_frames,
    serve_collection,
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

SENDER_ONE = b"\x11" * 16
SENDER_TWO = b"\x22" * 16


def _contract():
    return LDPClient(SCHEMA, EPSILON, protocols=SPEC).contract


def _frames(seed, users=120, batches=4):
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            gen.uniform(-1, 1, users),
            gen.uniform(-1, 1, users),
            gen.integers(0, 5, users),
        ]
    )
    client = LDPClient(SCHEMA, EPSILON, protocols=SPEC)
    return [
        client.report_encoded(chunk, gen)
        for chunk in np.array_split(records, batches)
    ]


def _reference(frame_lists):
    server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
    for frames in frame_lists:
        for frame in frames:
            server.ingest_encoded(frame)
    return server.estimate()


def _assert_estimates_equal(a, b):
    assert a.users == b.users
    for x, y in zip(a.attributes, b.attributes):
        assert x.reports == y.reports, x.name
        assert np.array_equal(x.raw, y.raw), x.name


async def _gateway(store=None, shards=2, checkpoint_every=None, **kwargs):
    server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=shards)
    return await serve_collection(
        server,
        "127.0.0.1",
        0,
        queue_depth=2,
        store=store,
        checkpoint_every_frames=checkpoint_every,
        **kwargs,
    )


async def _crash(gateway):
    """Tear the gateway down mid-round: no drain, no final checkpoint.

    The in-process stand-in for SIGKILL — whatever the periodic
    checkpoints persisted is all a restarted gateway gets.
    """
    tcp, gateway._tcp = gateway._tcp, None
    if tcp is not None:
        tcp.close()
    tasks = list(gateway._consumers) + list(gateway._connections)
    if gateway._timer is not None:
        tasks.append(gateway._timer)
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    if tcp is not None:
        await tcp.wait_closed()


def _store_for(backend, tmp_path):
    if backend == "file":
        return JsonFileStore(tmp_path / "round.json")
    if backend == "sqlite":
        return SqliteStore(tmp_path / "round.db")
    return SegmentLogStore(tmp_path / "round-log")


class TestKillAndResume:
    @pytest.mark.parametrize("backend", ["file", "sqlite", "segments"])
    def test_killed_gateway_resumes_bit_identical(self, backend, tmp_path):
        """Acceptance: kill mid-round, restart (different shard count),
        replay every sender — estimates bit-identical to an
        uninterrupted round, zero frames double-counted."""

        frames_one = _frames(1)
        frames_two = _frames(2)

        async def scenario():
            store = _store_for(backend, tmp_path)
            gateway = await _gateway(store=store, shards=2, checkpoint_every=1)
            port = gateway.port
            # Sender one completes its whole round before the crash.
            await replay_frames(
                "127.0.0.1", port, _contract(), frames_one, SENDER_ONE
            )
            # Sender two gets half its round through, then the gateway
            # dies without any orderly shutdown.
            partial = await AsyncReportSender.connect(
                "127.0.0.1", port, _contract(), sender_id=SENDER_TWO
            )
            async with partial:
                for frame in frames_two[:2]:
                    await partial.send_encoded(frame)
            await _crash(gateway)

            # Restart from the same store — different topology on a
            # fresh port — and let both senders replay their rounds.
            resumed = await _gateway(store=store, shards=3, checkpoint_every=2)
            replay_one = await replay_frames(
                "127.0.0.1", resumed.port, _contract(), frames_one, SENDER_ONE
            )
            replay_two = await replay_frames(
                "127.0.0.1", resumed.port, _contract(), frames_two, SENDER_TWO
            )
            await resumed.stop()
            estimate = resumed.estimate()
            store.close()
            return estimate, replay_one, replay_two, resumed

        estimate, replay_one, replay_two, resumed = asyncio.run(scenario())
        # Every pre-crash frame was durable (checkpoint_every=1), so the
        # replays skipped exactly the durable prefixes.
        assert replay_one.frames_skipped == len(frames_one)
        assert replay_one.frames_sent == 0
        assert replay_two.frames_skipped == 2
        assert replay_two.frames_sent == len(frames_two) - 2
        _assert_estimates_equal(
            estimate, _reference([frames_one, frames_two])
        )

    def test_resume_survives_a_second_restart(self, tmp_path):
        """Checkpoint chains: crash, resume, crash again, resume again."""

        frames = _frames(3, batches=6)

        async def scenario():
            store = SqliteStore(tmp_path / "round.db")
            first = await _gateway(store=store, checkpoint_every=1)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", first.port, _contract(), sender_id=SENDER_ONE
            )
            async with sender:
                for frame in frames[:2]:
                    await sender.send_encoded(frame)
            await _crash(first)

            second = await _gateway(store=store, checkpoint_every=1)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", second.port, _contract(), sender_id=SENDER_ONE
            )
            assert sender.resume_seq == 2
            async with sender:
                for frame in frames:  # full replay; prefix skipped
                    await sender.send_encoded(frame)
                    if sender.frames_sent == 2:  # frames 3 and 4 landed
                        break
            await _crash(second)

            third = await _gateway(store=store, checkpoint_every=1)
            final = await replay_frames(
                "127.0.0.1", third.port, _contract(), frames, SENDER_ONE
            )
            await third.stop()
            estimate = third.estimate()
            store.close()
            return estimate, final

        estimate, final = asyncio.run(scenario())
        assert final.frames_skipped == 4
        assert final.frames_sent == 2
        _assert_estimates_equal(estimate, _reference([frames]))


class TestDedupAndSequencing:
    def test_gateway_dedups_resent_frames(self, tmp_path):
        """A sender that ignores the watermark cannot double-count."""

        frames = _frames(4, batches=3)

        async def scenario():
            store = JsonFileStore(tmp_path / "round.json")
            gateway = await _gateway(store=store, checkpoint_every=1)
            await replay_frames(
                "127.0.0.1", gateway.port, _contract(), frames, SENDER_ONE
            )
            # Reconnect and force a full resend: pretend the resume
            # watermark was never heard.
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            assert sender.resume_seq == len(frames)
            sender.resume_seq = 0
            async with sender:
                for frame in frames:
                    await sender.send_encoded(frame)
            deduped = gateway.frames_deduped
            await gateway.stop()
            estimate = gateway.estimate()
            store.close()
            return estimate, deduped

        estimate, deduped = asyncio.run(scenario())
        assert deduped == len(frames)
        _assert_estimates_equal(estimate, _reference([frames]))

    def test_sequence_gap_is_a_protocol_violation(self):
        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            sender._next_seq = 5  # skip ahead of the watermark
            frame = _frames(5, batches=1)[0]
            with pytest.raises(WireFormatError, match="skips ahead"):
                await sender.send_encoded(frame)
            rejected = gateway.frames_rejected
            await gateway.stop()
            return rejected, gateway.users

        rejected, users = asyncio.run(scenario())
        assert rejected == 1
        assert users == 0

    def test_concurrent_duplicate_sender_id_refused(self):
        async def scenario():
            gateway = await _gateway()
            first = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            with pytest.raises(TransportError, match="already connected"):
                await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
                )
            await first.close()
            # The id frees up once its connection is gone.
            second = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            await second.close()
            rejected = gateway.handshakes_rejected
            await gateway.stop()
            return rejected

        assert asyncio.run(scenario()) == 1


class TestDurability:
    def test_frame_trigger_is_durable_before_the_ack(self, tmp_path):
        """Once a send() returns, the frame is in the store."""

        frames = _frames(6, batches=3)

        async def scenario():
            store = JsonFileStore(tmp_path / "round.json")
            gateway = await _gateway(store=store, checkpoint_every=1)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            watermarks = []
            async with sender:
                for frame in frames:
                    await sender.send_encoded(frame)
                    _, progress, _ = parse_round_checkpoint(
                        store.load(), _contract()
                    )
                    watermarks.append(progress[SENDER_ONE])
            await gateway.stop()
            store.close()
            return watermarks

        assert asyncio.run(scenario()) == [1, 2, 3]

    def test_time_trigger_checkpoints_idle_free(self, tmp_path):
        """The timer only writes when frames arrived since the last one."""

        frames = _frames(7, batches=2)

        async def scenario():
            store = JsonFileStore(tmp_path / "round.json")
            gateway = await _gateway(
                store=store, checkpoint_every_seconds=0.05
            )
            await replay_frames(
                "127.0.0.1", gateway.port, _contract(), frames, SENDER_ONE
            )
            await asyncio.sleep(0.2)  # several timer periods, no frames
            written_after_round = gateway.checkpoints_written
            await asyncio.sleep(0.2)
            assert gateway.checkpoints_written == written_after_round
            await gateway.stop()
            store.close()
            return written_after_round

        assert asyncio.run(scenario()) >= 1

    def test_stop_writes_a_final_checkpoint(self, tmp_path):
        frames = _frames(8, batches=2)

        async def scenario():
            store = JsonFileStore(tmp_path / "round.json")
            # No periodic trigger at all: only stop() persists.
            gateway = await _gateway(store=store)
            await replay_frames(
                "127.0.0.1", gateway.port, _contract(), frames, SENDER_ONE
            )
            await gateway.stop()
            state, progress, total = parse_round_checkpoint(
                store.load(), _contract()
            )
            store.close()
            return progress, total

        progress, total = asyncio.run(scenario())
        assert progress[SENDER_ONE] == len(frames)
        assert total == len(frames)

    def test_triggers_require_a_store(self):
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        with pytest.raises(StorageError, match="store"):
            CollectionGateway(server, checkpoint_every_frames=1)
        with pytest.raises(StorageError):
            CollectionGateway(
                server, store=None, checkpoint_every_seconds=1.0
            )


class TestCheckpointTimerEdges:
    """Satellite: the gateway's timer trigger and the in-process
    AutoCheckpointer, at their edges."""

    def test_timer_checkpoint_failure_poisons_gateway_and_stops_acks(
        self, tmp_path
    ):
        """A timer-cut checkpoint that fails must poison the whole
        gateway — acks stop flowing (durability was promised and broken)
        and waiters are woken with the error, not left hanging."""

        class FlakyStore(JsonFileStore):
            fail = False

            def save(self, document):
                if self.fail:
                    raise StorageError("disk full")
                return super().save(document)

        frames = _frames(12, batches=3)

        async def scenario():
            store = FlakyStore(tmp_path / "round.json")
            gateway = await _gateway(
                store=store, checkpoint_every_seconds=0.05
            )
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract(), sender_id=SENDER_ONE
            )
            async with sender:
                await sender.send_encoded(frames[0])  # acked
                store.fail = True
                for _ in range(200):  # the next timer tick must fail
                    if gateway._fold_error is not None:
                        break
                    await asyncio.sleep(0.02)
                assert gateway._fold_error is not None
                with pytest.raises(TransportError, match="aggregation"):
                    await sender.send_encoded(frames[1])
            with pytest.raises(TransportError, match="incomplete"):
                await asyncio.wait_for(
                    gateway.wait_for_users(1000), timeout=5
                )
            store.fail = False  # let stop() cut its final checkpoint
            await gateway.stop()
            snapshot = gateway.stats_snapshot()
            store.close()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["frames_accepted"] == 1
        rejected = snapshot["metrics"]["gateway_frames_rejected_total"]
        assert rejected["values"].get("reason=poisoned") == 1.0

    def test_auto_time_trigger_is_evaluated_on_ingest_not_idle(
        self, tmp_path
    ):
        """The AutoCheckpointer's time trigger fires on the first frame
        after the period elapsed — never while the server sits idle."""
        from repro.storage import AutoCheckpointer

        clock = _FakeClock()
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        store = JsonFileStore(tmp_path / "auto.json")
        auto = AutoCheckpointer(
            server, store, every_seconds=5.0, clock=clock
        )
        clock.advance(100)  # long idle: zero new frames, zero writes
        assert auto.checkpoints_written == 0
        assert store.recover() is None
        auto.ingest_encoded(_frames(13, users=30, batches=1)[0])
        assert auto.checkpoints_written == 1
        store.close()

    def test_auto_checkpointer_telemetry_agrees_with_folds(self, tmp_path):
        """Counters triangulate: auto checkpoints written == the plain
        counter, and the instrumented server's fold totals match the
        frames actually ingested."""
        from repro.storage import AutoCheckpointer
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.attach_telemetry(registry)
        store = JsonFileStore(tmp_path / "auto.json")
        auto = AutoCheckpointer(
            server, store, every_frames=2, metrics=registry
        )
        frames = _frames(14, users=120, batches=4)
        for frame in frames:
            auto.ingest_encoded(frame)
        assert auto.checkpoints_written == 2
        shot = registry.snapshot()
        assert shot["auto_checkpoints_written_total"]["values"][""] == 2.0
        assert shot["auto_checkpoint_seconds"]["values"][""]["count"] == 2
        assert shot["server_batches_folded_total"]["values"][""] == 4.0
        assert shot["server_users_folded_total"]["values"][""] == 120.0
        # the store was auto-instrumented into the same registry
        saves = shot["storage_save_seconds"]["values"]["backend=file"]
        assert saves["count"] == 2
        assert server.users == 120
        store.close()


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRestoreValidation:
    def test_foreign_contract_names_both_fingerprints(self, tmp_path):
        """Satellite: a mismatched checkpoint fails loudly, with both
        fingerprints in the message."""

        stranger = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
        store = JsonFileStore(tmp_path / "round.json")
        store.save(
            round_checkpoint_document(stranger.state_dict(), {}, 0)
        )

        async def scenario():
            gateway = await _gateway(store=store)
            await gateway.stop()

        with pytest.raises(ContractMismatchError) as excinfo:
            asyncio.run(scenario())
        message = str(excinfo.value)
        assert stranger.contract.fingerprint in message
        assert _contract().fingerprint in message

    def test_corrupt_store_raises_typed_error_on_start(self, tmp_path):
        path = tmp_path / "round.json"
        path.write_text("definitely { not json")
        store = JsonFileStore(path)

        async def scenario():
            gateway = await _gateway(store=store)
            await gateway.stop()

        with pytest.raises(CheckpointCorruptError):
            asyncio.run(scenario())

    def test_structurally_drifted_checkpoint_rejected(self, tmp_path):
        store = JsonFileStore(tmp_path / "round.json")
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        document = round_checkpoint_document(server.state_dict(), {}, 0)
        document["progress"] = {"ab": -3}  # negative watermark
        store.save(document)
        with pytest.raises(CheckpointCorruptError, match="watermark"):
            parse_round_checkpoint(store.load(), _contract())

    def test_round_checkpoint_round_trips(self):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        progress = {SENDER_ONE: 4, SENDER_TWO: 9}
        document = round_checkpoint_document(
            server.state_dict(), progress, 13
        )
        state, parsed, frames = parse_round_checkpoint(
            document, _contract()
        )
        assert parsed == progress
        assert frames == 13
        restored = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        restored.load_state_dict(state)
        assert restored.users == 0


class TestReplayRetry:
    def test_replay_rides_out_a_gateway_restart(self, tmp_path):
        """replay_frames keeps trying while the gateway is down."""

        frames = _frames(9, batches=3)

        async def scenario():
            store = SegmentLogStore(tmp_path / "round-log")
            gateway = await _gateway(store=store, checkpoint_every=1)
            port = gateway.port
            partial = await AsyncReportSender.connect(
                "127.0.0.1", port, _contract(), sender_id=SENDER_ONE
            )
            async with partial:
                await partial.send_encoded(frames[0])
            await _crash(gateway)

            async def restart_later():
                await asyncio.sleep(0.3)
                server = ShardedServer(
                    SCHEMA, EPSILON, protocols=SPEC, shards=2
                )
                replacement = CollectionGateway(
                    server, queue_depth=2, store=store,
                    checkpoint_every_frames=1,
                )
                await replacement.start("127.0.0.1", port)
                return replacement

            restart = asyncio.ensure_future(restart_later())
            sender = await replay_frames(
                "127.0.0.1",
                port,
                _contract(),
                frames,
                SENDER_ONE,
                attempts=20,
                retry_delay=0.1,
            )
            replacement = await restart
            await replacement.stop()
            estimate = replacement.estimate()
            store.close()
            return estimate, sender

        estimate, sender = asyncio.run(scenario())
        assert sender.frames_skipped == 1
        assert sender.frames_sent == len(frames) - 1
        _assert_estimates_equal(estimate, _reference([frames]))

    def test_exhausted_attempts_enumerate_every_attempt(self):
        """Satellite: the final error names the attempt count and each
        attempt number — not just the last failure."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        async def scenario():
            with pytest.raises(TransportError) as excinfo:
                await replay_frames(
                    "127.0.0.1",
                    dead_port,
                    _contract(),
                    _frames(11, batches=1),
                    SENDER_ONE,
                    attempts=3,
                    retry_delay=0.01,
                )
            return str(excinfo.value)

        message = asyncio.run(scenario())
        assert "3 attempt(s)" in message
        # all three refusals collapse into one distinct error, with
        # every attempt number listed against it
        assert "attempts 1,2,3" in message

    def test_exhausted_attempts_report_all_distinct_errors(self):
        """Satellite: a round that bounced off *different* problems
        shows each of them, in first-seen order, with its attempts —
        intermediate errors are not swallowed by the final one."""
        from unittest import mock

        from repro.telemetry import MetricsRegistry
        from repro.transport.sender import AsyncReportSender as Sender

        errors = [
            TransportError("handshake refused: gateway is stopping"),
            ConnectionRefusedError("connection refused"),
            ConnectionRefusedError("connection refused"),
        ]

        async def failing_connect(*args, **kwargs):
            raise errors.pop(0)

        registry = MetricsRegistry()

        async def scenario():
            with mock.patch.object(
                Sender, "connect", side_effect=failing_connect
            ):
                with pytest.raises(TransportError) as excinfo:
                    await replay_frames(
                        "127.0.0.1",
                        1,
                        _contract(),
                        _frames(11, batches=1),
                        SENDER_ONE,
                        attempts=3,
                        retry_delay=0.01,
                        metrics=registry,
                    )
            return excinfo.value

        error = asyncio.run(scenario())
        message = str(error)
        assert "3 attempt(s)" in message
        assert "attempt 1: handshake refused: gateway is stopping" in message
        assert "attempts 2,3: connection refused" in message
        # first-seen order: the handshake refusal comes first
        assert message.index("handshake refused") < message.index(
            "connection refused"
        )
        # chained from the last underlying failure
        assert isinstance(error.__cause__, ConnectionRefusedError)
        shot = registry.snapshot()
        assert shot["sender_retries_total"]["values"][""] == 3.0

    def test_typed_rejections_are_not_retried(self):
        async def scenario():
            gateway = await _gateway()
            rogue = LDPClient(SCHEMA, epsilon=9.0, protocols=SPEC)
            with pytest.raises(ContractMismatchError):
                await replay_frames(
                    "127.0.0.1",
                    gateway.port,
                    rogue.contract,
                    _frames(10, batches=1),
                    SENDER_ONE,
                    attempts=50,
                    retry_delay=0.1,
                )
            rejected = gateway.handshakes_rejected
            await gateway.stop()
            return rejected

        # One handshake attempt, not fifty: the mismatch is final.
        assert asyncio.run(scenario()) == 1
