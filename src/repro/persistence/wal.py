"""The write-ahead-log record codec and the append-only log file.

Record layout (little-endian), chosen so a reader can always tell a
*torn* tail from a *corrupt* body:

.. code-block:: text

    +-------------------+-------------------+------------------+
    | payload length    | CRC32(payload)    | payload bytes    |
    | 4 bytes, uint32   | 4 bytes, uint32   | `length` bytes   |
    +-------------------+-------------------+------------------+

* A record whose header or payload is **shorter than declared** can only
  be the last thing a dying process managed to write — a *torn tail*.
  :func:`decode_records` stops there and reports how many bytes to
  truncate; recovery drops them and the log is clean again.
* A **complete** record whose CRC32 does not match was damaged at rest
  (bit rot, a concurrent writer, a bad disk).  That is never safe to
  skip silently: :func:`decode_records` raises
  :class:`WALCorruptionError` and recovery refuses the log.

Payloads are UTF-8 JSON with a small tagged extension (``{"~": kind,
"v": ...}``) so the op dictionaries the stores emit — which may carry
tuples, sets, frozensets or bytes values — round-trip exactly.  The
hypothesis suite (``tests/persistence/test_wal_codec.py``) pins
``decode(encode(x)) == x`` over that whole value space.
"""

from __future__ import annotations

import base64
import json
import struct
import threading
import zlib
from typing import Optional

#: struct format of the fixed record header: payload length + CRC32.
_HEADER = struct.Struct("<II")

HEADER_SIZE = _HEADER.size


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALCorruptionError(WALError):
    """A complete record failed its CRC check — the log is damaged."""


# -- tagged JSON: exact round-trips for non-JSON value types ---------------

_TAG = "~"


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value) -> bool:
    """True when ``value`` is already exact JSON — no tagging needed.

    The hot write path emits op dicts of strings, numbers, lists and
    str-keyed dicts; for those, one read-only walk here replaces the
    allocating :func:`_pack` transform and the C ``json`` encoder does
    the rest.  Exact ``type`` checks (not ``isinstance``) keep the walk
    cheap and force subclasses down the exact slow lane; scalars inside
    containers are tested inline so the walk recurses only on nested
    containers.
    """
    t = type(value)
    if t in _SCALARS:
        return True
    if t is list:
        for item in value:
            if type(item) not in _SCALARS and not _plain(item):
                return False
        return True
    if t is dict:
        if _TAG in value:
            return False  # needs the {"~": "dict"} escape
        for key, item in value.items():
            if type(key) is not str:
                return False
            if type(item) not in _SCALARS and not _plain(item):
                return False
        return True
    return False


def _pack(value):
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            packed = {key: _pack(item) for key, item in value.items()}
            if _TAG in value:
                return {_TAG: "dict", "v": packed}
            return packed
        return {
            _TAG: "map",
            "v": [[_pack(key), _pack(item)] for key, item in value.items()],
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [_pack(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        kind = "set" if isinstance(value, set) else "frozenset"
        items = sorted(value, key=lambda item: (repr(type(item)), repr(item)))
        return {_TAG: kind, "v": [_pack(item) for item in items]}
    if isinstance(value, bytes):
        return {_TAG: "bytes", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, list):
        return [_pack(item) for item in value]
    return value


def _unpack(value):
    if isinstance(value, list):
        return [_unpack(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {key: _unpack(item) for key, item in value.items()}
        body = value["v"]
        if tag == "dict":
            return {key: _unpack(item) for key, item in body.items()}
        if tag == "map":
            return {_unpack(key): _unpack(item) for key, item in body}
        if tag == "tuple":
            return tuple(_unpack(item) for item in body)
        if tag == "set":
            return {_unpack(item) for item in body}
        if tag == "frozenset":
            return frozenset(_unpack(item) for item in body)
        if tag == "bytes":
            return base64.b64decode(body.encode("ascii"))
        raise WALCorruptionError(f"unknown payload tag {tag!r}")
    return value


#: One shared encoder instance — ``json.dumps`` with non-default options
#: re-derives its encoder on every call; the hot path skips that.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
)


def encode_payload(obj) -> bytes:
    """One op as canonical UTF-8 JSON bytes (sorted keys, no whitespace)."""
    return _ENCODER.encode(
        obj if _plain(obj) else _pack(obj)
    ).encode("utf-8")


#: How every tag key appears in encoded bytes (``~`` is never escaped).
_TAG_BYTES = json.dumps(_TAG).encode("utf-8")


def decode_payload(data: bytes):
    """The value :func:`encode_payload` encoded.  Payloads whose bytes
    hold no ``"~"`` carry no tag, so ``json.loads`` already is the
    answer; any other payload (a tag, or just a ``"~"`` string) takes
    the exact :func:`_unpack` rebuild."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WALCorruptionError(f"undecodable payload: {exc}") from None
    return _unpack(value) if _TAG_BYTES in data else value


def encode_record(obj) -> bytes:
    """One length-prefixed, CRC-checksummed record, ready to append."""
    payload = encode_payload(obj)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(buffer: bytes):
    """The value of a buffer holding exactly one :func:`encode_record`
    record.  Raises :class:`WALCorruptionError` when the buffer is
    shorter or longer than its header declares, or fails its CRC."""
    if len(buffer) < HEADER_SIZE:
        raise WALCorruptionError(
            f"short payload: {len(buffer)} byte(s), less than the "
            f"{HEADER_SIZE}-byte header"
        )
    length, crc = _HEADER.unpack_from(buffer)
    payload = buffer[HEADER_SIZE:]
    if len(payload) != length:
        raise WALCorruptionError(
            f"{'short' if len(payload) < length else 'overlong'} payload: "
            f"the header declares {length} byte(s), {len(payload)} follow"
        )
    if zlib.crc32(payload) != crc:
        raise WALCorruptionError(
            f"CRC mismatch (stored {crc:#010x}, "
            f"computed {zlib.crc32(payload):#010x})"
        )
    return decode_payload(payload)


def decode_records(buffer: bytes) -> tuple[list, int]:
    """Decode every complete record in ``buffer``.

    Returns ``(payloads, consumed)`` where ``consumed`` is the byte
    offset of the first torn (structurally incomplete) record — equal to
    ``len(buffer)`` when the log ends cleanly.  Raises
    :class:`WALCorruptionError` on a complete record whose CRC fails.
    """
    payloads: list = []
    offset = 0
    total = len(buffer)
    while offset < total:
        if total - offset < HEADER_SIZE:
            break  # torn header
        length, crc = _HEADER.unpack_from(buffer, offset)
        body_start = offset + HEADER_SIZE
        if total - body_start < length:
            break  # torn payload
        payload = buffer[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            raise WALCorruptionError(
                f"record at byte {offset}: CRC mismatch "
                f"(stored {crc:#010x}, computed {zlib.crc32(payload):#010x})"
            )
        payloads.append(decode_payload(payload))
        offset = body_start + length
    return payloads, offset


class WriteAheadLog:
    """An append-only record log over one file, with batched syncs.

    ``append`` only buffers (encode + CRC happen immediately, so a bad
    payload fails in the caller's stack frame); :meth:`sync` writes the
    whole buffer in one OS call and flushes it — the group-commit
    barrier the stores invoke once per acknowledged operation or batch
    chunk.  ``real_fsync=True`` additionally forces the page cache to
    disk (slower; the default survives a process kill, which is the
    failure mode the chaos harness injects).

    :meth:`kill` simulates ``kill -9``: the unsynced buffer is dropped
    on the floor and the handle abandoned — exactly the data a real
    crash would lose.
    """

    def __init__(self, path, real_fsync: bool = False):
        self.path = path
        self.real_fsync = real_fsync
        self._file: Optional[object] = None
        self._buffer: list[bytes] = []
        self._lock = threading.Lock()
        self.appended = 0
        self.synced = 0
        self.syncs = 0

    def _handle(self):
        if self._file is None:
            self._file = open(self.path, "ab")
        return self._file

    def append(self, payload) -> None:
        record = encode_record(payload)
        with self._lock:
            self._buffer.append(record)
            self.appended += 1

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._buffer)

    def sync(self) -> None:
        with self._lock:
            if not self._buffer:
                return
            handle = self._handle()
            handle.write(b"".join(self._buffer))
            handle.flush()
            if self.real_fsync:
                import os

                os.fsync(handle.fileno())
            self.synced += len(self._buffer)
            self.syncs += 1
            self._buffer.clear()

    def read_all(self) -> tuple[list, int]:
        """Every durable payload plus the torn-tail byte count.

        A torn tail is truncated away on the spot, so the next append
        lands on a clean record boundary.
        """
        with self._lock:
            try:
                with open(self.path, "rb") as handle:
                    buffer = handle.read()
            except FileNotFoundError:
                return [], 0
            payloads, consumed = decode_records(buffer)
            torn = len(buffer) - consumed
            if torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(consumed)
            return payloads, torn

    def truncate(self) -> None:
        """Drop every record (post-checkpoint compaction)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            with open(self.path, "wb"):
                pass

    def kill(self) -> None:
        """Simulated ``kill -9``: unsynced records are lost."""
        with self._lock:
            self._buffer.clear()
            if self._file is not None:
                self._file.close()
                self._file = None

    def close(self) -> None:
        self.sync()
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
