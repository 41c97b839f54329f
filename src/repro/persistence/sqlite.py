"""A stdlib-``sqlite3`` persistence backend with the same op contract.

The log lives in a ``wal(seq INTEGER PRIMARY KEY, crc, payload)`` table
and the last checkpoint in a one-row ``snapshot`` table, its payload
framed with a length and CRC32 header like a file WAL record.  Appends buffer
in memory exactly like :class:`~repro.persistence.backend.FileWALBackend`
and :meth:`SQLiteBackend.sync` commits them in one transaction, so the
group-commit acknowledgment semantics are identical.  SQLite's own
journaling makes the commit atomic — a kill can lose the unsynced
buffer but can never leave a torn record, so ``torn_bytes`` is always 0
here.  CRCs are still stored and re-verified on recovery to catch
at-rest damage the same way the file backend does.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import zlib

from .backend import (
    PersistenceBackend,
    RecoveredState,
    RecoveryError,
    decode_snapshot,
)
from .wal import (
    WALCorruptionError,
    decode_payload,
    encode_payload,
    encode_record,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS wal (
    seq     INTEGER PRIMARY KEY,
    crc     INTEGER NOT NULL,
    payload BLOB    NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshot (
    id       INTEGER PRIMARY KEY CHECK (id = 1),
    last_seq INTEGER NOT NULL,
    payload  BLOB    NOT NULL
);
"""


class SQLiteBackend(PersistenceBackend):
    durable = True
    name = "sqlite"

    def __init__(self, path, compact_every: int = 4096, real_fsync: bool = False):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.compact_every = compact_every
        self.real_fsync = real_fsync
        self._lock = threading.Lock()
        self._conn = self._connect()
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        row = self._conn.execute("SELECT MAX(seq) FROM wal").fetchone()
        snap = self._conn.execute(
            "SELECT last_seq FROM snapshot WHERE id = 1"
        ).fetchone()
        self._seq = max(row[0] or 0, snap[0] if snap else 0)
        self._buffer: list[tuple[int, int, bytes]] = []
        self._ops_since_checkpoint = 0
        self._snapshot_rows = 0
        self.appended = 0
        self.synced = 0
        self.syncs = 0
        self.checkpoints = 0

    def _connect(self) -> sqlite3.Connection:
        """A connection tuned to the backend's durability contract.

        ``journal_mode=WAL`` keeps commits append-only (no per-commit
        journal file churn), and ``synchronous`` mirrors the file
        backend's ``real_fsync`` knob: ``OFF`` survives a process kill
        (the chaos failure mode — committed pages are in the OS cache),
        ``FULL`` additionally survives power loss.
        """
        # autocommit mode: transactions are opened/closed explicitly in
        # sync()/checkpoint(), skipping the sqlite3 module's per-execute
        # statement scanning and implicit BEGIN bookkeeping
        conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        # The backend owns its database file exclusively (one shard, one
        # db), so skip the shared-memory wal-index and the per-commit
        # file-lock syscalls entirely.
        conn.execute("PRAGMA locking_mode=EXCLUSIVE")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(
            "PRAGMA synchronous=" + ("FULL" if self.real_fsync else "OFF")
        )
        # No mid-commit auto-checkpoints: SQLite's own WAL is folded back
        # at *our* compaction points (checkpoint()/close()), so commit
        # latency stays flat instead of spiking every 1000 pages.
        conn.execute("PRAGMA wal_autocheckpoint=0")
        return conn

    # -- logging -----------------------------------------------------------

    def append(self, op: dict) -> int:
        with self._lock:
            self._seq += 1
            seq = self._seq
            payload = encode_payload({**op, "seq": seq})
            self._buffer.append((seq, zlib.crc32(payload), payload))
            self.appended += 1
            self._ops_since_checkpoint += 1
        return seq

    def _db(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def sync(self) -> None:
        with self._lock:
            if not self._buffer:
                return
            conn = self._db()
            conn.execute("BEGIN")
            conn.executemany(
                "INSERT INTO wal (seq, crc, payload) VALUES (?, ?, ?)",
                self._buffer,
            )
            conn.execute("COMMIT")
            self.synced += len(self._buffer)
            self.syncs += 1
            self._buffer.clear()

    def should_compact(self) -> bool:
        with self._lock:
            return self._ops_since_checkpoint >= max(
                self.compact_every, self._snapshot_rows
            )

    # -- snapshot compaction ----------------------------------------------

    def checkpoint(self, state: dict) -> None:
        self.sync()
        with self._lock:
            state = {**state, "last_seq": self._seq}
            payload = encode_record(state)
            conn = self._db()
            conn.execute("BEGIN")
            conn.execute(
                "INSERT OR REPLACE INTO snapshot (id, last_seq, payload) "
                "VALUES (1, ?, ?)",
                (self._seq, payload),
            )
            conn.execute("DELETE FROM wal WHERE seq <= ?", (self._seq,))
            conn.execute("COMMIT")
            # fold SQLite's own WAL back into the main file now that the
            # log is compact (auto-checkpointing is disabled)
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            self._ops_since_checkpoint = 0
            self._snapshot_rows = state.get("records_total", 0)
            self.checkpoints += 1

    # -- recovery ----------------------------------------------------------

    def recover(self) -> RecoveredState:
        with self._lock:
            snapshot = None
            conn = self._db()
            row = conn.execute(
                "SELECT payload FROM snapshot WHERE id = 1"
            ).fetchone()
            if row is not None:
                snapshot = decode_snapshot(bytes(row[0]), self.path)
            snapshot_seq = snapshot.get("last_seq", 0) if snapshot else 0
            ops = []
            top = snapshot_seq
            for seq, crc, payload in conn.execute(
                "SELECT seq, crc, payload FROM wal ORDER BY seq"
            ):
                payload = bytes(payload)
                if zlib.crc32(payload) != crc:
                    raise RecoveryError(
                        f"wal row seq={seq}: CRC mismatch "
                        f"(stored {crc:#010x}, "
                        f"computed {zlib.crc32(payload):#010x})"
                    )
                top = max(top, seq)
                if seq > snapshot_seq:
                    try:
                        ops.append(decode_payload(payload))
                    except WALCorruptionError as exc:
                        raise RecoveryError(
                            f"wal row seq={seq}: {exc}"
                        ) from exc
            self._seq = max(self._seq, top)
            self._snapshot_rows = (
                snapshot.get("records_total", 0) if snapshot else 0
            )
            self._ops_since_checkpoint = len(ops)
            return RecoveredState(snapshot=snapshot, ops=ops, torn_bytes=0)

    # -- lifecycle ---------------------------------------------------------

    def kill(self) -> None:
        """Simulated ``kill -9``: the uncommitted buffer is lost.

        The handle is dropped, not reopened — a dead process holds no
        lock, so a successor backend on the same path (recovery, or a
        restarted shard) can take the exclusive lock immediately.  Any
        later use of *this* object reconnects lazily.
        """
        with self._lock:
            self._buffer.clear()
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def close(self) -> None:
        self.sync()
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "durable": True,
            "seq": self._seq,
            "appended": self.appended,
            "synced": self.synced,
            "syncs": self.syncs,
            "checkpoints": self.checkpoints,
            "ops_since_checkpoint": self._ops_since_checkpoint,
        }
