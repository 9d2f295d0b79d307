"""A collection round that survives the death of its aggregator.

The paper's collection model assumes the aggregator stays up for the
whole round; real aggregators get OOM-killed, rescheduled and power
cycled. This example makes the round durable with `repro.storage`: the
gateway checkpoints every acknowledged frame (the aggregation snapshot
plus each sender's acknowledged-frame watermark) into an append-only
segment-log store, then "dies" mid-round — torn down abruptly, no
drain, no final checkpoint, exactly what SIGKILL leaves behind.

A replacement gateway opens the same store, recovers the newest intact
checkpoint (onto a *different* shard count — checkpoints are
topology-independent), and tells each reconnecting sender how much of
its stream is already durable. The senders simply replay their whole
round: durable frames are skipped client-side, one frame that was
re-sent anyway is deduplicated gateway-side, and the finished round's
estimates are asserted bit-identical to a round that never crashed.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import asyncio
import tempfile

import numpy as np

from repro import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    ShardedServer,
    open_store,
)
from repro.transport import AsyncReportSender, replay_frames, serve_collection

USERS_PER_CLIENT, CLIENTS, EPSILON, SEED = 4_000, 3, 2.0, 31

SCHEMA = Schema(
    [
        NumericAttribute("commute_minutes"),
        NumericAttribute("charge_level"),
        CategoricalAttribute("transport_mode", n_categories=8),
    ]
)
PROTOCOLS = {"transport_mode": "oue"}


def client_frames(seed: int) -> list:
    """One client's perturbed, wire-encoded report frames (seeded)."""
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            np.clip(gen.normal(0.2, 0.5, USERS_PER_CLIENT), -1, 1),
            np.clip(gen.normal(-0.3, 0.4, USERS_PER_CLIENT), -1, 1),
            gen.integers(0, 8, USERS_PER_CLIENT),
        ]
    )
    client = LDPClient(SCHEMA, EPSILON, protocols=PROTOCOLS)
    return [
        client.report_encoded(chunk, gen)
        for chunk in np.array_split(records, 4)
    ]


def sender_id(seed: int) -> bytes:
    """A stable id per logical stream — the key the watermark lives under."""
    return seed.to_bytes(16, "big")


async def crash(gateway) -> None:
    """Kill the gateway the unkind way: sockets torn, nothing saved.

    The listener and the open connections are the shared ingest core's
    (``repro.transport.ingest.IngestServer``); the shard consumers are
    the gateway's own. Tearing both down without ``stop()`` skips the
    drain and the final checkpoint, exactly like SIGKILL.
    """
    tcp, gateway._tcp = gateway._tcp, None
    tcp.close()
    for writer in list(gateway._writers):
        writer.transport.abort()
    tasks = list(gateway._connections) + list(gateway._consumers)
    for task in gateway._consumers:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    await tcp.wait_closed()


async def run_round(store_uri: str) -> None:
    contract = LDPClient(SCHEMA, EPSILON, protocols=PROTOCOLS).contract
    store = open_store(store_uri)

    # --- first gateway: every acknowledged frame is durable ------------
    first = await serve_collection(
        ShardedServer(SCHEMA, EPSILON, protocols=PROTOCOLS, shards=2),
        "127.0.0.1",
        0,
        store=store,
        checkpoint_every_frames=1,
    )
    print("gateway up on port %d (segment-log checkpoints)" % first.port)

    # Client 0 finishes its round; client 1 is cut off halfway.
    await replay_frames(
        "127.0.0.1", first.port, contract, client_frames(SEED), sender_id(0)
    )
    partial = await AsyncReportSender.connect(
        "127.0.0.1", first.port, contract, sender_id=sender_id(1)
    )
    async with partial:
        for frame in client_frames(SEED + 1)[:2]:
            await partial.send_encoded(frame)
    await crash(first)
    print(
        "gateway killed mid-round after %d checkpoints (%d frames durable)"
        % (first.checkpoints_written, first.frames_accepted)
    )

    # --- replacement gateway: same store, different topology -----------
    resumed = await serve_collection(
        ShardedServer(SCHEMA, EPSILON, protocols=PROTOCOLS, shards=3),
        "127.0.0.1",
        0,
        store=store,
        checkpoint_every_frames=1,
    )
    print(
        "replacement gateway resumed %d users on 3 shards (was 2)"
        % resumed.users
    )

    # Every client replays its WHOLE round; durable prefixes are skipped.
    for index in range(CLIENTS):
        sender = await replay_frames(
            "127.0.0.1",
            resumed.port,
            contract,
            client_frames(SEED + index),
            sender_id(index),
        )
        print(
            "  client %d: %d frames skipped (already durable), %d sent"
            % (index, sender.frames_skipped, sender.frames_sent)
        )

    # One stubborn sender ignores its watermark and re-sends everything;
    # the gateway acknowledges the duplicates without folding them.
    stubborn = await AsyncReportSender.connect(
        "127.0.0.1", resumed.port, contract, sender_id=sender_id(0)
    )
    stubborn.resume_seq = 0
    async with stubborn:
        for frame in client_frames(SEED):
            await stubborn.send_encoded(frame)
    print("  stubborn re-send: %d frames deduplicated" % resumed.frames_deduped)

    await resumed.stop()
    estimate = resumed.estimate()
    store.close()

    # --- the crash changed the estimate by exactly nothing -------------
    reference = LDPServer(SCHEMA, EPSILON, protocols=PROTOCOLS)
    for index in range(CLIENTS):
        for frame in client_frames(SEED + index):
            reference.ingest_encoded(frame)
    baseline = reference.estimate()
    for a, b in zip(estimate.attributes, baseline.attributes):
        assert np.array_equal(a.raw, b.raw), a.name
    print(
        "resumed round is bit-identical to an uninterrupted one "
        "(%d users, zero double-counted frames)" % estimate.users
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        asyncio.run(run_round("segments://%s/round-log" % scratch))


if __name__ == "__main__":
    main()
