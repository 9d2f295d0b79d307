"""Tests for the repro.storage subpackage (ISSUE 6 tentpole).

The store contract across all three backends: ``save`` is durable and
atomic, ``load`` is strict (damage raises
:class:`~repro.exceptions.CheckpointCorruptError`, never a raw ``json``
or ``sqlite3`` exception), ``recover`` steps back to the newest intact
checkpoint where the backend retains history — and after any corruption
scenario the store is still readable at its previous checkpoint. Plus
the URI front door, the document codec, and the AutoCheckpointer
triggers.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    StorageError,
    WireFormatError,
)
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
)
from repro.storage import (
    AutoCheckpointer,
    JsonFileStore,
    SegmentLogStore,
    SqliteStore,
    decode_document,
    encode_document,
    open_store,
    parse_storage_uri,
)
from repro.storage.segments import RECORD_MAGIC

SCHEMA = Schema(
    [NumericAttribute("x"), CategoricalAttribute("c", n_categories=4)]
)
SPEC = {"c": "grr"}
EPSILON = 2.0


def _store_for(backend, tmp_path, **kwargs):
    if backend == "file":
        return JsonFileStore(tmp_path / "ckpt.json", **kwargs)
    if backend == "sqlite":
        return SqliteStore(tmp_path / "ckpt.db", **kwargs)
    return SegmentLogStore(tmp_path / "ckpt-log", **kwargs)


BACKENDS = ["file", "sqlite", "segments"]


class TestStoreContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_store_loads_none(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            assert store.load() is None
            assert store.recover() is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_newest_document_wins(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            for n in range(5):
                store.save({"round": n, "nested": {"values": [n, n + 1]}})
            assert store.load()["round"] == 4
            assert store.recover()["round"] == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_save_returns_the_encoded_size(self, backend, tmp_path):
        document = {"round": 3, "nested": {"values": [1.5, None]}}
        with _store_for(backend, tmp_path) as store:
            assert store.save(document) == len(encode_document(document))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_location_is_a_reopenable_uri(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            store.save({"round": 7})
            uri = store.location
        with open_store(uri) as reopened:
            assert reopened.load() == {"round": 7}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unserializable_document_refused_before_touching_state(
        self, backend, tmp_path
    ):
        with _store_for(backend, tmp_path) as store:
            store.save({"round": 1})
            with pytest.raises(StorageError):
                store.save({"bad": object()})
            with pytest.raises(StorageError):
                store.save(["not", "a", "mapping"])
            # The refusal left the previous checkpoint untouched.
            assert store.load() == {"round": 1}


class TestCorruptionMatrix:
    """Satellite: garbage bytes, torn tails and schema drift per backend.

    Every scenario must (a) surface as the typed corruption error — a
    :class:`WireFormatError` subclass, so wire-layer guards keep working
    — and (b) leave the store readable at its previous checkpoint where
    the backend retains one.
    """

    def test_jsonfile_garbage_bytes(self, tmp_path):
        store = JsonFileStore(tmp_path / "ckpt.json")
        store.path.write_bytes(b"\xff\xfe not json")
        with pytest.raises(CheckpointCorruptError):
            store.load()
        # Single-document backend: no history, recover raises too.
        with pytest.raises(CheckpointCorruptError):
            store.recover()
        # Wire-layer guards keep catching storage corruption (MRO).
        assert issubclass(CheckpointCorruptError, WireFormatError)

    def test_jsonfile_scalar_document(self, tmp_path):
        store = JsonFileStore(tmp_path / "ckpt.json")
        store.path.write_text("42\n")
        with pytest.raises(CheckpointCorruptError, match="JSON int"):
            store.load()

    def test_sqlite_garbage_file(self, tmp_path):
        path = tmp_path / "ckpt.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SqliteStore(path)
        with pytest.raises(CheckpointCorruptError, match="sqlite"):
            store.load()
        with pytest.raises(CheckpointCorruptError):
            store.recover()

    def test_sqlite_damaged_newest_row_recovers_previous(self, tmp_path):
        with SqliteStore(tmp_path / "ckpt.db", keep=3) as store:
            store.save({"round": 1})
            store.save({"round": 2})
            store._connect().execute(
                "UPDATE checkpoints SET document = ? WHERE generation = "
                "(SELECT MAX(generation) FROM checkpoints)",
                (b"{torn...",),
            )
            store._connection.commit()
            with pytest.raises(CheckpointCorruptError):
                store.load()  # strict: damage is reported
            assert store.recover() == {"round": 1}  # history survives

    def test_sqlite_no_generation_readable(self, tmp_path):
        with SqliteStore(tmp_path / "ckpt.db") as store:
            store.save({"round": 1})
            store._connect().execute(
                "UPDATE checkpoints SET crc = crc + 1"
            )
            store._connection.commit()
            with pytest.raises(CheckpointCorruptError, match="none is readable"):
                store.recover()

    def test_segments_torn_tail_recovers_previous(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        store.save({"round": 2})
        # SIGKILL mid-append: a partial record head lands on the tail.
        with open(store.segments()[-1], "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x40")
        with pytest.raises(CheckpointCorruptError, match="torn"):
            store.load()
        assert store.recover() == {"round": 2}

    def test_segments_corrupt_crc_recovers_previous(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        store.save({"round": 2})
        path = store.segments()[-1]
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte of the newest record
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            store.load()
        assert store.recover() == {"round": 1}

    def test_segments_all_records_damaged(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        path = store.segments()[-1]
        path.write_bytes(b"\x00" * path.stat().st_size)
        with pytest.raises(CheckpointCorruptError, match="not one is intact"):
            store.recover()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schema_drifted_document_rejected_by_restore(
        self, backend, tmp_path
    ):
        """A well-stored but drifted document fails *typed* at restore."""
        with _store_for(backend, tmp_path) as store:
            store.save({"format": "somebody-elses-state", "state_version": 99})
            drifted = store.load()  # the store itself is fine with it
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        with pytest.raises(WireFormatError):
            server.load_state_dict(drifted)


class TestSegmentLog:
    def test_segments_roll_at_size_limit(self, tmp_path):
        store = SegmentLogStore(
            tmp_path / "log", segment_max_bytes=64, compact_every=1000
        )
        for n in range(8):
            store.save({"round": n})
        assert len(store.segments()) > 1
        assert store.load() == {"round": 7}

    def test_compaction_keeps_newest_and_drops_history(self, tmp_path):
        store = SegmentLogStore(
            tmp_path / "log", segment_max_bytes=64, compact_every=1000
        )
        for n in range(10):
            store.save({"round": n})
        before = store.log_bytes()
        store.compact()
        assert len(store.segments()) == 1
        assert store.log_bytes() < before
        assert store.load() == {"round": 9}

    def test_auto_compaction_bounds_the_log(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log", compact_every=4)
        for n in range(12):
            store.save({"round": n})
        # Compacted every 4 saves: never more than one compacted record
        # plus compact_every appended ones.
        assert len(store.segments()) == 1
        assert store.load() == {"round": 11}

    def test_directory_fsynced_exactly_when_a_segment_file_is_created(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        from repro.storage import segments as segments_module

        directory = tmp_path / "log"
        calls = []
        real_fsync_path = segments_module.fsync_path

        def record(path):
            present = sorted(p.name for p in directory.glob("*.seg"))
            calls.append((pathlib.Path(path), present))
            real_fsync_path(path)

        monkeypatch.setattr(segments_module, "fsync_path", record)
        # Each record is 24 bytes: two fit in a 64-byte segment, a third rolls.
        store = SegmentLogStore(directory, segment_max_bytes=64, compact_every=1000)
        store.save({"round": 0})  # first save creates the first segment
        assert calls == [(directory, ["00000001.seg"])]
        store.save({"round": 1})  # an append creates no directory entry
        assert len(calls) == 1
        store.save({"round": 2})  # the roll creates a second segment
        assert calls[1:] == [(directory, ["00000001.seg", "00000002.seg"])]
        store.compact()  # fsynced after the new segment, before the unlinks
        assert calls[2:] == [
            (directory, ["00000001.seg", "00000002.seg", "00000003.seg"])
        ]
        assert [p.name for p in store.segments()] == ["00000003.seg"]
        assert store.load() == {"round": 2}

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentLogStore(tmp_path / "log", segment_max_bytes=0)
        with pytest.raises(StorageError):
            SegmentLogStore(tmp_path / "log", compact_every=0)


class TestSqliteGenerations:
    def test_history_is_pruned_to_keep(self, tmp_path):
        with SqliteStore(tmp_path / "ckpt.db", keep=3) as store:
            for n in range(10):
                store.save({"round": n})
            assert store.generations() == 3
            assert store.load() == {"round": 9}

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError):
            SqliteStore(tmp_path / "ckpt.db", keep=0)


class TestJsonFileAtomicity:
    def test_failed_write_cleans_scratch(self, tmp_path, monkeypatch):
        import pathlib

        store = JsonFileStore(tmp_path / "ckpt.json")
        store.save({"round": 1})
        real_write = pathlib.Path.write_text

        def broken(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", broken)
        with pytest.raises(StorageError, match="disk full") as caught:
            store.save({"round": 2})
        assert isinstance(caught.value.__cause__, OSError)
        monkeypatch.undo()
        # No scratch litter, and the previous checkpoint survived.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
        assert store.load() == {"round": 1}

    def test_save_fsyncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "directory" if stat.S_ISDIR(info.st_mode) else "file"
            events.append(("fsync", kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace",))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "ckpt.json"
        JsonFileStore(target).save({"round": 1})
        monkeypatch.undo()
        assert events == [
            ("fsync", "file", target.stat().st_ino),
            ("replace",),
            ("fsync", "directory", tmp_path.stat().st_ino),
        ]

    def test_unreadable_file_raises_storage_error(self, tmp_path):
        target = tmp_path / "ckpt.json"
        target.mkdir()  # reading a directory is an OSError, not a miss
        with pytest.raises(StorageError, match="cannot read") as caught:
            JsonFileStore(target).load()
        assert isinstance(caught.value.__cause__, OSError)

    def test_non_os_errors_propagate_untouched(self, tmp_path, monkeypatch):
        import asyncio
        import pathlib

        real_write = pathlib.Path.write_text

        def cancelled(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise asyncio.CancelledError()

        monkeypatch.setattr(pathlib.Path, "write_text", cancelled)
        with pytest.raises(asyncio.CancelledError):
            JsonFileStore(tmp_path / "ckpt.json").save({"round": 1})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_load_required_raises_on_missing(self, tmp_path):
        with pytest.raises(StorageError, match="no checkpoint"):
            JsonFileStore(tmp_path / "absent.json").load_required()


class TestUri:
    def test_bare_path_means_json_file(self, tmp_path):
        scheme, path = parse_storage_uri(str(tmp_path / "state.json"))
        assert scheme == "file"
        store = open_store(str(tmp_path / "state.json"))
        assert isinstance(store, JsonFileStore)

    @pytest.mark.parametrize(
        "scheme,cls",
        [("file", JsonFileStore), ("sqlite", SqliteStore),
         ("segments", SegmentLogStore)],
    )
    def test_schemes_resolve(self, scheme, cls, tmp_path):
        store = open_store("%s://%s" % (scheme, tmp_path / "target"))
        assert isinstance(store, cls)
        assert store.scheme == scheme

    def test_unknown_scheme_lists_known_ones(self, tmp_path):
        with pytest.raises(StorageError, match="file, segments, sqlite"):
            open_store("redis://somewhere")

    def test_empty_inputs_rejected(self):
        with pytest.raises(StorageError):
            parse_storage_uri("")
        with pytest.raises(StorageError):
            parse_storage_uri("file://")


class TestDocumentCodec:
    def test_canonical_encoding_round_trips(self):
        blob = encode_document({"b": 2, "a": [1, {"z": None}]})
        assert blob == encode_document({"a": [1, {"z": None}], "b": 2})
        assert decode_document(blob, "test") == {"a": [1, {"z": None}], "b": 2}

    def test_decode_rejects_garbage_and_non_objects(self):
        with pytest.raises(CheckpointCorruptError):
            decode_document(b"\xff\xff", "test")
        with pytest.raises(CheckpointCorruptError):
            decode_document(b"[1, 2]", "test")


def _ingest_some(server, seed=0, users=40):
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [gen.uniform(-1, 1, users), gen.integers(0, 4, users)]
    )
    client = LDPClient(SCHEMA, EPSILON, protocols=SPEC)
    server.ingest(client.report_batch(records, gen))


class TestAutoCheckpointer:
    def test_requires_a_trigger(self, tmp_path):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        store = JsonFileStore(tmp_path / "a.json")
        with pytest.raises(StorageError, match="trigger"):
            AutoCheckpointer(server, store)
        with pytest.raises(StorageError):
            AutoCheckpointer(server, store, every_frames=0)
        with pytest.raises(StorageError):
            AutoCheckpointer(server, store, every_seconds=0.0)

    def test_frame_trigger_checkpoints_every_n(self, tmp_path):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        store = JsonFileStore(tmp_path / "a.json")
        auto = AutoCheckpointer(server, store, every_frames=2)
        client = LDPClient(SCHEMA, EPSILON, protocols=SPEC)
        gen = np.random.default_rng(1)
        for _ in range(6):
            records = np.column_stack(
                [gen.uniform(-1, 1, 10), gen.integers(0, 4, 10)]
            )
            auto.ingest(client.report_batch(records, gen))
        assert auto.checkpoints_written == 3
        restored = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        restored.load_state_dict(store.load())
        assert restored.users == server.users  # last checkpoint at frame 6

    def test_time_trigger_with_fake_clock(self, tmp_path):
        ticks = [0.0]
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        store = JsonFileStore(tmp_path / "a.json")
        auto = AutoCheckpointer(
            server, store, every_seconds=10.0, clock=lambda: ticks[0]
        )
        _ingest_some(server)  # direct ingest: no frame note, no trigger
        auto._note_frame = auto._note_frame  # (explicitness only)
        auto.ingest_encoded(
            LDPClient(SCHEMA, EPSILON, protocols=SPEC).report_encoded(
                np.column_stack([[0.1], [2]]), np.random.default_rng(2)
            )
        )
        assert auto.checkpoints_written == 0  # clock hasn't moved
        ticks[0] = 11.0
        auto.ingest_encoded(
            LDPClient(SCHEMA, EPSILON, protocols=SPEC).report_encoded(
                np.column_stack([[0.2], [3]]), np.random.default_rng(3)
            )
        )
        assert auto.checkpoints_written == 1

    def test_resume_restores_and_reports(self, tmp_path):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        store = JsonFileStore(tmp_path / "a.json")
        auto = AutoCheckpointer(server, store, every_frames=1)
        assert auto.resume() is False  # empty store
        _ingest_some(server)
        auto.checkpoint()
        fresh = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        fresh_auto = AutoCheckpointer(fresh, store, every_frames=1)
        assert fresh_auto.resume() is True
        assert fresh.users == server.users
        assert json.dumps(fresh.state_dict(), sort_keys=True) == json.dumps(
            server.state_dict(), sort_keys=True
        )
