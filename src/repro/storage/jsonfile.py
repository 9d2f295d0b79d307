"""Atomic single-document JSON file checkpoint store.

The simplest durable backend: one file, holding the latest checkpoint
document as canonical JSON. Writes go through a temp-file-and-rename in
the target's own directory, so a crash mid-save can never destroy the
previous good checkpoint. The scratch file is fsynced before the rename
and the directory after it, so a save that returned survives a power
loss. A failed write removes its scratch file
instead of leaving a stale partial ``.tmp`` beside the target, and an
``OSError`` from the disk arrives as :class:`~repro.exceptions.StorageError`
like every other backend's — this
store is the library-wide home of what used to be ad-hoc logic inside
:meth:`~repro.session.LDPServer.save_state` (which now delegates here,
as does :meth:`~repro.session.ShardedServer.save_state`).

Keeping exactly one document means ``recover()`` cannot fall back past a
damaged file — atomic replacement makes a torn *write* impossible, so a
corrupt file implies external damage and both verbs raise.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from ..exceptions import StorageError
from .base import CheckpointStore, decode_document, encode_document, fsync_path


class JsonFileStore(CheckpointStore):
    """Latest-checkpoint-only store over one atomic JSON file."""

    scheme = "file"

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    def _path_for_uri(self) -> str:
        return str(self.path)

    def save(self, document: Mapping[str, Any]) -> int:
        blob = encode_document(document)  # refuse before touching disk
        started = self._op_clock()
        scratch = self.path.with_name(self.path.name + ".tmp")
        try:
            scratch.write_text(blob.decode("utf-8") + "\n")
            fsync_path(scratch)
            os.replace(scratch, self.path)
            fsync_path(self.path.parent)
        # repro: allow[broad-except] -- cleanup-and-reraise: the atomic
        # save's scratch file must not survive any failure (including
        # CancelledError); a disk OSError is re-raised as StorageError,
        # anything else propagates untouched.
        except BaseException as exc:
            with contextlib.suppress(OSError):
                scratch.unlink()
            if isinstance(exc, OSError):
                raise StorageError(
                    "checkpoint save to %s failed: %s" % (self.path, exc)
                ) from exc
            raise
        self._observe_op("save", self._op_clock() - started)
        self._observe_bytes(len(blob))
        return len(blob)

    def load(self) -> Optional[Dict[str, Any]]:
        started = self._op_clock()
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(
                "cannot read checkpoint file %s: %s" % (self.path, exc)
            ) from exc
        document = decode_document(blob, "checkpoint file %s" % self.path)
        self._observe_op("load", self._op_clock() - started)
        return document

    def recover(self) -> Optional[Dict[str, Any]]:
        # One document, atomically replaced: there is no older record to
        # fall back to, so recovery is exactly the strict load.
        started = self._op_clock()
        document = self.load()
        self._observe_op("recover", self._op_clock() - started)
        return document

    # ------------------------------------------------------------- helpers

    def load_required(self) -> Dict[str, Any]:
        """Like :meth:`load`, but a missing file is an error.

        Used by the session layer's ``load_state``, where resuming from
        a checkpoint that does not exist is a caller mistake, not an
        empty store.
        """
        document = self.load()
        if document is None:
            raise StorageError("no checkpoint at %s" % self.path)
        return document
