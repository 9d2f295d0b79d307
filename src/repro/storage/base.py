"""The checkpoint-store contract and the document codec it builds on.

A :class:`CheckpointStore` durably persists a sequence of checkpoint
*documents* — plain JSON-able mappings, such as
:meth:`~repro.session.LDPServer.state_dict` snapshots or the transport
layer's round checkpoints — and serves the newest one back. The contract
every backend honours:

* ``save(document)`` is durable once it returns, and a crash mid-save can
  never destroy the previously saved checkpoint;
* ``load()`` is strict: it returns the newest saved document, raising
  :class:`~repro.exceptions.CheckpointCorruptError` if that document
  fails integrity validation (garbage bytes, CRC failure, torn tail,
  structural drift) — the caller hears about damage instead of silently
  time-travelling to an older checkpoint;
* ``recover()`` is the crash-restart verb: it returns the newest *intact*
  document, skipping damaged newer records where the backend retains
  history (an append-only log's torn tail is the normal artefact of a
  crash mid-append, not an error). Resuming from an older checkpoint is
  always safe for collection rounds — watermarks are lower, so senders
  replay the difference — whereas resuming from a damaged one never is;
* no raw backend exception (``json``, ``sqlite3``, backend ``OSError``)
  escapes — everything arrives typed as
  :class:`~repro.exceptions.StorageError` or its corruption subclass.

Backends: :class:`~repro.storage.JsonFileStore` (atomic single-document
file), :class:`~repro.storage.SqliteStore` (generational table),
:class:`~repro.storage.SegmentLogStore` (append-only CRC-framed segment
log with compaction). :func:`~repro.storage.open_store` resolves
``file://`` / ``sqlite://`` / ``segments://`` URIs onto them.
"""

from __future__ import annotations

import abc
import json
import logging
import os
import pathlib
import zlib
from typing import Any, Dict, Mapping, Optional

from ..exceptions import CheckpointCorruptError, StorageError
from ..telemetry import MetricsRegistry, emit, event_logger

_LOG = event_logger("storage")


def encode_document(document: Mapping[str, Any]) -> bytes:
    """Serialize one checkpoint document canonically (sorted keys, UTF-8).

    Raises :class:`StorageError` when the document is not JSON-able —
    a store must refuse an unserializable checkpoint *before* touching
    its durable state.
    """
    if not isinstance(document, Mapping):
        raise StorageError(
            "a checkpoint document must be a mapping, got %s"
            % type(document).__name__
        )
    try:
        text = json.dumps(dict(document), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise StorageError(
            "checkpoint document is not JSON-serializable: %s" % exc
        ) from None
    return text.encode("utf-8")


def decode_document(blob: bytes, source: str) -> Dict[str, Any]:
    """Parse one stored checkpoint payload back into a document.

    Anything that is not a JSON object — garbage bytes, truncation,
    a JSON scalar — raises :class:`CheckpointCorruptError` naming the
    offending record.
    """
    try:
        document = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            "%s does not hold a valid checkpoint document: %s" % (source, exc)
        ) from None
    if not isinstance(document, dict):
        raise CheckpointCorruptError(
            "%s holds a JSON %s where a checkpoint document (object) was "
            "expected" % (source, type(document).__name__)
        )
    return document


def fsync_path(path: pathlib.Path) -> None:
    """Flush a file's data, or a directory's entries, to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def document_crc(blob: bytes) -> int:
    """CRC-32 of an encoded document (the stores' integrity seal)."""
    return zlib.crc32(blob) & 0xFFFFFFFF


class CheckpointStore(abc.ABC):
    """Durable storage for a sequence of checkpoint documents.

    Use as a context manager so backend handles (sqlite connections,
    open segment files) cannot leak::

        with open_store("sqlite://round.db") as store:
            store.save(server.state_dict())
    """

    #: URI scheme this backend answers to (``file``/``sqlite``/``segments``).
    scheme: str = ""

    #: Optional :class:`~repro.telemetry.MetricsRegistry`; ``None`` means
    #: uninstrumented (the default — observability is strictly opt-in).
    telemetry: Optional[MetricsRegistry] = None

    def attach_telemetry(self, metrics: MetricsRegistry) -> "CheckpointStore":
        """Instrument this store against ``metrics`` (idempotent).

        Registers ``storage_save_seconds`` / ``storage_load_seconds`` /
        ``storage_recover_seconds`` histograms,
        ``storage_bytes_written_total`` and
        ``storage_corrupt_records_skipped_total`` counters — all
        labelled by ``backend`` (the store's scheme), so one registry
        can carry several stores. Returns ``self`` for chaining.
        """
        self.telemetry = metrics
        self._m_op_seconds = {
            op: metrics.histogram(
                "storage_%s_seconds" % op,
                "Checkpoint store %s() latency" % op,
                labels=("backend",),
            ).labels(backend=self.scheme)
            for op in ("save", "load", "recover")
        }
        self._m_bytes_written = metrics.counter(
            "storage_bytes_written_total",
            "Encoded checkpoint bytes handed to the backend",
            labels=("backend",),
        ).labels(backend=self.scheme)
        self._m_corrupt_skipped = metrics.counter(
            "storage_corrupt_records_skipped_total",
            "Damaged records stepped past during recover()",
            labels=("backend",),
        ).labels(backend=self.scheme)
        return self

    def _observe_op(self, op: str, seconds: float) -> None:
        """Record one timed store operation (no-op when uninstrumented)."""
        if self.telemetry is not None:
            self._m_op_seconds[op].observe(seconds)

    def _observe_bytes(self, nbytes: int) -> None:
        if self.telemetry is not None:
            self._m_bytes_written.inc(nbytes)

    def _observe_corrupt_skip(self, generation: Any) -> None:
        """Count one damaged record skipped during :meth:`recover`."""
        if self.telemetry is not None:
            self._m_corrupt_skipped.inc()
        emit(
            _LOG,
            "corrupt_skipped",
            level=logging.WARNING,
            backend=self.scheme,
            generation=generation,
        )

    def _op_clock(self) -> float:
        """The telemetry clock, or 0.0 when uninstrumented.

        Backends bracket their operations with this so the timing source
        matches the registry's (injectable) clock; with no registry the
        subtraction still works and the result is discarded.
        """
        if self.telemetry is not None:
            return self.telemetry.clock()
        return 0.0

    @abc.abstractmethod
    def save(self, document: Mapping[str, Any]) -> int:
        """Durably persist ``document`` as the newest checkpoint.

        Returns the size of the encoded document in bytes.
        """

    @abc.abstractmethod
    def load(self) -> Optional[Dict[str, Any]]:
        """The newest checkpoint, or ``None`` if nothing was ever saved.

        Strict: a damaged newest checkpoint raises
        :class:`CheckpointCorruptError` instead of silently falling back.
        """

    @abc.abstractmethod
    def recover(self) -> Optional[Dict[str, Any]]:
        """The newest *intact* checkpoint (crash-restart semantics).

        Skips damaged newer records where the backend retains history;
        raises :class:`CheckpointCorruptError` only when the store holds
        data but not one single readable checkpoint.
        """

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    @property
    def location(self) -> str:
        """The store's URI (``scheme://path``)."""
        return "%s://%s" % (self.scheme, self._path_for_uri())

    def _path_for_uri(self) -> str:
        raise NotImplementedError

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "%s(%r)" % (type(self).__name__, self.location)
