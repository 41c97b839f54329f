"""``repro.persistence`` — durable storage for the DQ runtime.

A write-ahead log plus snapshot compaction, pluggable behind the locked
:class:`~repro.runtime.storage.EntityStore` API.  See
:mod:`repro.persistence.backend` for the backend contract,
:mod:`repro.persistence.wal` for the record format, and
:mod:`repro.persistence.recovery` for the replay sequence.
"""

from .backend import (
    FileWALBackend,
    MemoryBackend,
    PersistenceBackend,
    RecoveredState,
    RecoveryError,
    persistence_factory,
)
from .recovery import (
    RecoveryReport,
    apply_op,
    capture_state,
    op_tick,
    recover_app,
    restore_state,
)
from .sqlite import SQLiteBackend
from .wal import (
    WALCorruptionError,
    WALError,
    WriteAheadLog,
    decode_payload,
    decode_records,
    encode_payload,
    encode_record,
)

__all__ = [
    "FileWALBackend",
    "MemoryBackend",
    "PersistenceBackend",
    "RecoveredState",
    "RecoveryError",
    "RecoveryReport",
    "SQLiteBackend",
    "WALCorruptionError",
    "WALError",
    "WriteAheadLog",
    "apply_op",
    "capture_state",
    "decode_payload",
    "decode_records",
    "encode_payload",
    "encode_record",
    "op_tick",
    "persistence_factory",
    "recover_app",
    "restore_state",
]
