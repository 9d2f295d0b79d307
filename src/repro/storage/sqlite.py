"""Sqlite checkpoint store: a generational table of sealed documents.

Each ``save`` inserts a new generation row ``(generation, crc, document)``
and prunes the oldest rows beyond ``keep`` — the store retains a short
history, so a corrupted newest checkpoint (detected by its CRC-32 seal
or a failed parse) still leaves the previous generation readable through
:meth:`SqliteStore.recover`. Sqlite's own journal makes each insert
atomic; the CRC seal catches damage sqlite cannot (a row rewritten by an
external actor, bit rot under a copy).

All ``sqlite3`` exceptions are wrapped: an unusable database file raises
:class:`~repro.exceptions.CheckpointCorruptError` (the bytes are not a
database — nothing is readable) and operational failures raise
:class:`~repro.exceptions.StorageError`.
"""

from __future__ import annotations

import pathlib
import sqlite3
from typing import Any, Dict, Mapping, Optional, Union

from ..exceptions import CheckpointCorruptError, StorageError
from .base import (
    CheckpointStore,
    decode_document,
    document_crc,
    encode_document,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS checkpoints (
    generation INTEGER PRIMARY KEY AUTOINCREMENT,
    crc        INTEGER NOT NULL,
    document   BLOB    NOT NULL
)
"""


class SqliteStore(CheckpointStore):
    """Checkpoint store over one sqlite database file.

    Parameters
    ----------
    path:
        Database file (created on first save).
    keep:
        Generations retained; older rows are pruned on save. Must be
        >= 1 — keeping at least two is what makes :meth:`recover` able
        to step past a damaged newest row.
    """

    scheme = "sqlite"

    def __init__(self, path: Union[str, pathlib.Path], keep: int = 4) -> None:
        if int(keep) < 1:
            raise StorageError(
                "a sqlite store must keep at least one generation, got %r"
                % (keep,)
            )
        self.path = pathlib.Path(path)
        self.keep = int(keep)
        self._connection: Optional[sqlite3.Connection] = None

    def _path_for_uri(self) -> str:
        return str(self.path)

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            try:
                connection = sqlite3.connect(str(self.path))
                connection.execute(_SCHEMA)
                connection.commit()
            except sqlite3.DatabaseError as exc:
                raise CheckpointCorruptError(
                    "%s is not a usable sqlite checkpoint store: %s"
                    % (self.path, exc)
                ) from None
            except sqlite3.Error as exc:
                raise StorageError(
                    "cannot open sqlite checkpoint store %s: %s"
                    % (self.path, exc)
                ) from None
            self._connection = connection
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # --------------------------------------------------------------- verbs

    def save(self, document: Mapping[str, Any]) -> int:
        blob = encode_document(document)
        crc = document_crc(blob)
        started = self._op_clock()
        try:
            connection = self._connect()
            with connection:  # one transaction: insert + prune
                connection.execute(
                    "INSERT INTO checkpoints (crc, document) VALUES (?, ?)",
                    (crc, blob),
                )
                connection.execute(
                    "DELETE FROM checkpoints WHERE generation NOT IN ("
                    "SELECT generation FROM checkpoints "
                    "ORDER BY generation DESC LIMIT ?)",
                    (self.keep,),
                )
        except sqlite3.Error as exc:
            raise StorageError(
                "sqlite checkpoint save to %s failed: %s" % (self.path, exc)
            ) from None
        self._observe_op("save", self._op_clock() - started)
        self._observe_bytes(len(blob))
        return len(blob)

    def _rows(self):
        if not self.path.exists():
            return []
        try:
            return self._connect().execute(
                "SELECT generation, crc, document FROM checkpoints "
                "ORDER BY generation DESC"
            ).fetchall()
        except CheckpointCorruptError:
            raise
        except sqlite3.Error as exc:
            raise CheckpointCorruptError(
                "cannot read checkpoints from %s: %s" % (self.path, exc)
            ) from None

    def _validate(self, generation: int, crc: int, blob: Any) -> Dict[str, Any]:
        source = "checkpoint generation %d of %s" % (generation, self.path)
        payload = bytes(blob) if not isinstance(blob, bytes) else blob
        if document_crc(payload) != crc:
            raise CheckpointCorruptError(
                "%s fails its CRC-32 seal (stored %d, computed %d)"
                % (source, crc, document_crc(payload))
            )
        return decode_document(payload, source)

    def load(self) -> Optional[Dict[str, Any]]:
        started = self._op_clock()
        rows = self._rows()
        if not rows:
            return None
        generation, crc, blob = rows[0]
        document = self._validate(generation, crc, blob)
        self._observe_op("load", self._op_clock() - started)
        return document

    def recover(self) -> Optional[Dict[str, Any]]:
        started = self._op_clock()
        rows = self._rows()
        if not rows:
            return None
        for generation, crc, blob in rows:
            try:
                document = self._validate(generation, crc, blob)
            except CheckpointCorruptError:
                self._observe_corrupt_skip(generation)
                continue  # step back one generation
            self._observe_op("recover", self._op_clock() - started)
            return document
        raise CheckpointCorruptError(
            "%s holds %d checkpoint generation(s) but none is readable"
            % (self.path, len(rows))
        )

    def generations(self) -> int:
        """Number of retained generations (for tests and observability)."""
        return len(self._rows())
