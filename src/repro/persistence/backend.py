"""Pluggable persistence backends behind the locked ``EntityStore`` API.

A backend receives every durable op the runtime performs — record
``insert`` / ``rows`` / ``update`` / ``retire``, metadata ``meta``
re-stamps, and ``audit`` events — as plain dictionaries, assigns each a
monotone sequence number, and makes them recoverable:

* :class:`MemoryBackend` — the default: nothing is persisted, writes
  cost nothing, a kill loses everything (the pre-persistence behaviour,
  kept as the benchmark baseline);
* :class:`FileWALBackend` — an append-only, length-prefixed,
  CRC-checksummed write-ahead log (:mod:`repro.persistence.wal`) plus a
  periodically compacted snapshot, framed and checksummed the same way;
* :class:`~repro.persistence.sqlite.SQLiteBackend` — the same contract
  over a stdlib ``sqlite3`` database.

The group-commit contract: ``append`` only buffers; the runtime calls
:meth:`PersistenceBackend.sync` once per acknowledged operation (or once
per batch chunk — that is the "fsync-batched" in the WAL's job
description), so an acknowledged write is always durable while a batch
still pays only one barrier.  ``kill()`` models ``kill -9``: whatever
was appended but not yet synced is gone, exactly like a real crash.

Snapshot compaction is size-coupled: a checkpoint is taken when the WAL
tail has grown past ``max(compact_every, records-in-last-snapshot)``
ops, so checkpoints space out geometrically and total compaction work
stays O(records) over any run.  The snapshot carries ``last_seq``;
recovery replays only WAL ops with a later sequence number, which makes
the crash window between "snapshot renamed" and "WAL truncated"
harmless.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from .wal import (
    WALCorruptionError,
    WriteAheadLog,
    decode_record,
    encode_record,
)


class RecoveryError(RuntimeError):
    """The durable state cannot be turned back into a running store."""


def decode_snapshot(data: bytes, where: str) -> dict:
    """A checkpoint's state back from its bytes, which frame the encoded
    state like one WAL record (length + CRC32 header,
    :func:`~repro.persistence.wal.encode_record`).  Raises
    :class:`RecoveryError` naming ``where`` when the frame is short or
    fails its CRC, or the payload does not decode to an object; an
    unframed snapshot, as written before checkpoints were checksummed,
    reads as a short payload."""
    try:
        snapshot = decode_record(data)
    except WALCorruptionError as exc:
        raise RecoveryError(f"snapshot {where} unreadable: {exc}") from exc
    if not isinstance(snapshot, dict):
        raise RecoveryError(f"snapshot {where} unreadable: not an object")
    return snapshot


@dataclass
class RecoveredState:
    """What a backend could bring back after a crash."""

    snapshot: Optional[dict] = None
    ops: list = field(default_factory=list)
    torn_bytes: int = 0

    @property
    def snapshot_seq(self) -> int:
        return self.snapshot.get("last_seq", 0) if self.snapshot else 0


class PersistenceBackend:
    """The contract every backend implements (see the module docstring).

    ``durable`` tells the stores whether logging is worth the append
    cost — the hot path skips a non-durable backend entirely, so
    :class:`MemoryBackend` keeps the in-memory write path byte-for-byte
    what it was before persistence existed.
    """

    durable = False
    name = "abstract"

    def append(self, op: dict) -> int:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def should_compact(self) -> bool:
        return False

    def checkpoint(self, state: dict) -> None:
        raise NotImplementedError

    def recover(self) -> RecoveredState:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def stats(self) -> dict:
        return {"backend": self.name, "durable": self.durable}


class MemoryBackend(PersistenceBackend):
    """No persistence at all — the default, zero-overhead backend.

    A killed shard restarted from a ``MemoryBackend`` comes back empty;
    the durability chaos suite uses exactly that to prove the guarantee
    verifier notices lost acknowledged writes.
    """

    durable = False
    name = "memory"

    def __init__(self):
        self.ops = 0

    def append(self, op: dict) -> int:
        self.ops += 1
        return self.ops

    def sync(self) -> None:
        pass

    def checkpoint(self, state: dict) -> None:
        pass

    def recover(self) -> RecoveredState:
        return RecoveredState()

    def kill(self) -> None:
        pass

    def close(self) -> None:
        pass

    def stats(self) -> dict:
        return {"backend": self.name, "durable": False, "ops": self.ops}


class FileWALBackend(PersistenceBackend):
    """WAL file + compacted snapshot in one directory.

    Layout: ``wal.log`` (the append-only record log) and
    ``snapshot.json`` (the last checkpoint, framed with a length and
    CRC32 header like a WAL record, written to a temp file and
    atomically renamed into place).  ``real_fsync`` forwards to the WAL
    (and fsyncs the snapshot) for machines where surviving power loss —
    not just process death — matters.
    """

    durable = True
    name = "file"

    def __init__(
        self,
        directory,
        compact_every: int = 4096,
        real_fsync: bool = False,
    ):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.compact_every = compact_every
        self.wal = WriteAheadLog(
            os.path.join(self.directory, "wal.log"), real_fsync=real_fsync
        )
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self._lock = threading.Lock()
        self._seq = 0
        self._ops_since_checkpoint = 0
        self._snapshot_rows = 0
        self.checkpoints = 0

    # -- logging -----------------------------------------------------------

    def append(self, op: dict) -> int:
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._ops_since_checkpoint += 1
        self.wal.append({**op, "seq": seq})
        return seq

    def sync(self) -> None:
        self.wal.sync()

    def should_compact(self) -> bool:
        with self._lock:
            return self._ops_since_checkpoint >= max(
                self.compact_every, self._snapshot_rows
            )

    # -- snapshot compaction ----------------------------------------------

    def checkpoint(self, state: dict) -> None:
        """Atomically persist ``state`` and truncate the WAL.

        The unsynced buffer is flushed first so ``last_seq`` covers
        every op the snapshot includes; a crash after the rename but
        before the truncate only leaves already-snapshotted ops in the
        WAL, and recovery skips those by sequence number.
        """
        self.wal.sync()
        with self._lock:
            state = {**state, "last_seq": self._seq}
            rows = state.get("records_total", 0)
            temp_path = self.snapshot_path + ".tmp"
            with open(temp_path, "wb") as handle:
                handle.write(encode_record(state))
                handle.flush()
                if self.wal.real_fsync:
                    os.fsync(handle.fileno())
            os.replace(temp_path, self.snapshot_path)
            self.wal.truncate()
            self._ops_since_checkpoint = 0
            self._snapshot_rows = rows
            self.checkpoints += 1

    # -- recovery ----------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Snapshot + WAL tail, torn final record truncated away.

        Restores the sequence counter so post-recovery appends continue
        the durable numbering.  Raises :class:`RecoveryError` on CRC
        corruption anywhere but a torn tail.
        """
        snapshot = None
        try:
            with open(self.snapshot_path, "rb") as handle:
                snapshot = decode_snapshot(
                    handle.read(), self.snapshot_path
                )
        except FileNotFoundError:
            pass
        try:
            payloads, torn = self.wal.read_all()
        except WALCorruptionError as exc:
            raise RecoveryError(f"WAL corrupt: {exc}") from exc
        snapshot_seq = snapshot.get("last_seq", 0) if snapshot else 0
        ops = [op for op in payloads if op.get("seq", 0) > snapshot_seq]
        with self._lock:
            self._seq = max(
                snapshot_seq,
                max((op.get("seq", 0) for op in payloads), default=0),
                self._seq,
            )
            self._snapshot_rows = (
                snapshot.get("records_total", 0) if snapshot else 0
            )
            self._ops_since_checkpoint = len(ops)
        return RecoveredState(snapshot=snapshot, ops=ops, torn_bytes=torn)

    # -- lifecycle ---------------------------------------------------------

    def kill(self) -> None:
        """Simulated ``kill -9``: unsynced appends are lost forever."""
        self.wal.kill()

    def close(self) -> None:
        self.wal.close()

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "durable": True,
            "seq": self._seq,
            "appended": self.wal.appended,
            "synced": self.wal.synced,
            "syncs": self.wal.syncs,
            "checkpoints": self.checkpoints,
            "ops_since_checkpoint": self._ops_since_checkpoint,
        }


def persistence_factory(
    base_dir,
    kind: str = "file",
    compact_every: int = 4096,
    real_fsync: bool = False,
):
    """A per-shard backend factory for :meth:`ShardedGateway.from_design`.

    ``factory(shard_index)`` yields shard ``i``'s backend rooted under
    ``base_dir`` — directory ``shard-i/`` for ``kind="file"``, database
    ``shard-i.db`` for ``kind="sqlite"`` — so a restarted shard finds
    exactly its own durable state.
    """
    if kind not in ("file", "sqlite"):
        raise ValueError(f"unknown backend kind {kind!r}")
    base_dir = str(base_dir)

    def factory(shard_index: int) -> PersistenceBackend:
        if kind == "sqlite":
            from .sqlite import SQLiteBackend

            return SQLiteBackend(
                os.path.join(base_dir, f"shard-{shard_index}.db"),
                compact_every=compact_every,
                real_fsync=real_fsync,
            )
        return FileWALBackend(
            os.path.join(base_dir, f"shard-{shard_index}"),
            compact_every=compact_every,
            real_fsync=real_fsync,
        )

    return factory
