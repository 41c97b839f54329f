"""Contract tests over both durable backends (file WAL and sqlite).

Every test takes the parametrized ``durable_backend`` fixture, so the
assertions pin the *backend contract* — acknowledged ops survive a kill,
unsynced ops never do, checkpoints compact the log, and recovery filters
replayed ops by the snapshot's sequence number.
"""

import os
import sqlite3
from contextlib import closing

import pytest

from repro.dq.metadata import Clock
from repro.persistence import (
    FileWALBackend,
    RecoveryError,
    capture_state,
    encode_payload,
    recover_app,
)
from repro.persistence.wal import HEADER_SIZE, WriteAheadLog, encode_record
from repro.runtime.app import WebApp


def _drain(backend, ops):
    for op in ops:
        backend.append(op)
    backend.sync()


def test_synced_ops_survive_kill(durable_backend):
    _drain(durable_backend, [{"op": "insert", "id": 1, "entity": "e"}])
    durable_backend.kill()
    recovered = durable_backend.reopen()
    state = recovered.recover()
    assert [op["id"] for op in state.ops] == [1]
    recovered.close()


def test_unsynced_ops_are_lost_on_kill(durable_backend):
    _drain(durable_backend, [{"op": "insert", "id": 1, "entity": "e"}])
    durable_backend.append({"op": "insert", "id": 2, "entity": "e"})
    durable_backend.kill()  # the id=2 append was never acknowledged
    recovered = durable_backend.reopen()
    state = recovered.recover()
    assert [op["id"] for op in state.ops] == [1]
    recovered.close()


def test_sequence_numbers_are_monotone(durable_backend):
    seqs = [
        durable_backend.append({"op": "insert", "id": i, "entity": "e"})
        for i in range(5)
    ]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5


def test_checkpoint_compacts_and_seq_filters(durable_backend):
    _drain(
        durable_backend,
        [{"op": "insert", "id": i, "entity": "e"} for i in range(4)],
    )
    durable_backend.checkpoint({"records_total": 4, "entities": {}})
    # ops after the checkpoint are the only ones recovery may replay
    _drain(durable_backend, [{"op": "insert", "id": 99, "entity": "e"}])
    durable_backend.kill()
    recovered = durable_backend.reopen()
    state = recovered.recover()
    assert state.snapshot is not None
    assert state.snapshot["records_total"] == 4
    assert [op["id"] for op in state.ops] == [99]
    recovered.close()


def test_checkpoint_crash_window_is_harmless(durable_backend):
    """Already-snapshotted ops still sitting in the log (a crash between
    'snapshot written' and 'log truncated') are filtered by sequence
    number, not double-applied."""
    _drain(
        durable_backend,
        [{"op": "insert", "id": i, "entity": "e"} for i in range(3)],
    )
    durable_backend.checkpoint({"records_total": 3, "entities": {}})
    durable_backend.kill()
    recovered = durable_backend.reopen()
    state = recovered.recover()
    assert state.ops == []  # everything predates last_seq
    recovered.close()


def test_recovered_seq_continues_numbering(durable_backend):
    last = 0
    for i in range(3):
        last = durable_backend.append(
            {"op": "insert", "id": i, "entity": "e"}
        )
    durable_backend.sync()
    durable_backend.kill()
    recovered = durable_backend.reopen()
    recovered.recover()
    assert recovered.append({"op": "insert", "id": 9, "entity": "e"}) > last
    recovered.close()


def test_stats_shape(durable_backend):
    _drain(durable_backend, [{"op": "insert", "id": 1, "entity": "e"}])
    stats = durable_backend.stats()
    assert stats["durable"] is True
    assert stats["appended"] == 1
    assert stats["synced"] == 1
    assert stats["syncs"] == 1


# -- checkpoints are framed and checksummed like WAL records -----------------


def _checkpoint_bytes(backend) -> bytes:
    """The stored checkpoint of a closed backend, as raw bytes."""
    if isinstance(backend, FileWALBackend):
        with open(backend.snapshot_path, "rb") as handle:
            return handle.read()
    with closing(sqlite3.connect(backend.path)) as conn:
        (payload,) = conn.execute(
            "SELECT payload FROM snapshot WHERE id = 1"
        ).fetchone()
    return bytes(payload)


def _rewrite_checkpoint(backend, data: bytes) -> None:
    if isinstance(backend, FileWALBackend):
        with open(backend.snapshot_path, "wb") as handle:
            handle.write(data)
        return
    with closing(sqlite3.connect(backend.path)) as conn, conn:
        conn.execute("UPDATE snapshot SET payload = ? WHERE id = 1", (data,))


def _restricted_app(backend) -> WebApp:
    app = WebApp("checkpoints", clock=Clock(), persistence=backend)
    app.define_entity("reviews", ("score",))
    return app


def test_a_checkpoint_is_one_framed_record(durable_backend):
    _drain(durable_backend, [{"op": "insert", "id": 1, "entity": "e"}])
    state = {"records_total": 1, "entities": {}}
    durable_backend.checkpoint(state)
    durable_backend.close()
    assert _checkpoint_bytes(durable_backend) == encode_record(
        {**state, "last_seq": 1}
    )


@pytest.mark.parametrize("damage, message", [
    # the level of both records' shared confidentiality state, 1 -> 0
    (lambda data: data.replace(b'"states":[[1,', b'"states":[[0,'),
     "CRC mismatch"),
    (lambda data: data[:-1], "short payload"),
    (lambda data: data + b" ", "overlong payload"),
    (lambda data: data[:HEADER_SIZE - 1], "short payload"),
    # the unframed layout written before checkpoints were checksummed
    (lambda data: data[HEADER_SIZE:], "short payload"),
], ids=["level", "truncated", "trailing", "header", "unframed"])
def test_a_damaged_checkpoint_is_refused(durable_backend, damage, message):
    app = _restricted_app(durable_backend)
    for score in (1, 2):
        app.store.store("reviews", {"score": score}, "chair", 1, ())
    app.commit()
    durable_backend.checkpoint(capture_state(app))
    durable_backend.close()
    stored = _checkpoint_bytes(durable_backend)
    damaged = damage(stored)
    assert damaged != stored
    _rewrite_checkpoint(durable_backend, damaged)
    reopened = durable_backend.reopen()
    recovered = _restricted_app(reopened)
    where = getattr(reopened, "snapshot_path", None) or reopened.path
    with pytest.raises(RecoveryError) as excinfo:
        recover_app(recovered, reopened)
    assert f"snapshot {where} unreadable: {message}" in str(excinfo.value)
    # nothing of the refused checkpoint reached the store
    assert recovered.store.entity("reviews").readable_rows("outsider", 0) == []
    reopened.close()


def test_the_frame_covers_the_whole_encoded_state(durable_backend):
    state = {"records_total": 0, "entities": {}, "note": "~"}
    durable_backend.checkpoint(state)
    durable_backend.close()
    stored = _checkpoint_bytes(durable_backend)
    assert stored[HEADER_SIZE:] == encode_payload({**state, "last_seq": 0})
    reopened = durable_backend.reopen()
    assert reopened.recover().snapshot == {**state, "last_seq": 0}
    reopened.close()


# -- file-backend specifics (torn tails are a file concept) -----------------


def test_file_backend_truncates_torn_tail(tmp_path):
    backend = FileWALBackend(tmp_path / "wal")
    backend.append({"op": "insert", "id": 1, "entity": "e"})
    backend.sync()
    backend.close()
    wal_path = tmp_path / "wal" / "wal.log"
    with open(wal_path, "ab") as handle:
        handle.write(encode_record({"op": "insert", "id": 2})[:-3])
    recovered = FileWALBackend(tmp_path / "wal")
    state = recovered.recover()
    assert [op["id"] for op in state.ops] == [1]
    assert state.torn_bytes > 0
    # the torn bytes were physically truncated away
    reread = FileWALBackend(tmp_path / "wal").recover()
    assert reread.torn_bytes == 0
    recovered.close()


def test_file_backend_refuses_corrupt_body(tmp_path):
    backend = FileWALBackend(tmp_path / "wal")
    backend.append({"op": "insert", "id": 1, "entity": "e"})
    backend.sync()
    backend.close()
    wal_path = tmp_path / "wal" / "wal.log"
    size = os.path.getsize(wal_path)
    with open(wal_path, "r+b") as handle:
        handle.seek(size - 1)
        byte = handle.read(1)
        handle.seek(size - 1)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(Exception) as excinfo:
        FileWALBackend(tmp_path / "wal").recover()
    assert "CRC" in str(excinfo.value)


def test_wal_pending_and_group_commit(tmp_path):
    wal = WriteAheadLog(tmp_path / "group.log")
    for i in range(5):
        wal.append({"op": "x", "i": i})
    assert wal.pending == 5
    assert wal.syncs == 0
    wal.sync()
    assert wal.pending == 0
    assert wal.syncs == 1  # five appends, one barrier
    payloads, torn = wal.read_all()
    assert [p["i"] for p in payloads] == list(range(5))
    assert torn == 0
    wal.close()
