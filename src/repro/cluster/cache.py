"""A read-through, confidentiality-aware response cache for the gateway.

The cache sits in front of the shards' *read* paths only.  Two rules keep
the paper's Confidentiality DQSR intact under caching:

* the cache key includes the requesting **user and their clearance
  level** — a filtered read cached for a cleared PC member can never be
  served to an uncleared outsider, and if an account's clearance changes,
  entries keyed under the old level simply stop matching;
* an entry never outlives the data it was read from, yet a write
  retires only what it changed.  A **list** entry (:class:`FrozenList`)
  keeps the rows each shard contributed, tagged with the shard's data
  version they were read at; it hits only while every live shard is
  still at those versions, and otherwise the gateway re-reads just the
  shards that moved.  A **view** entry holds one record; the accepted
  update of that record drops its views (:meth:`ReadThroughCache.
  invalidate_record`) under the record's shard lock, where view fills
  also run, before the write is acknowledged.

Entries are stored *frozen* and thawed per hit, so a caller mutating a
served body can never poison the cache — the same defensive-copy
discipline the :mod:`repro.runtime.storage` read path follows.  A
:class:`FrozenBody` has two modes, chosen by storage's verdict rather
than by walking the values again: a body whose values are all immutable
(``Rows.shareable`` for a list, ``StoredRecord.shareable`` for a view)
is kept as private shallow copies of its rows and thawed by shallow copy
again — C-speed dict copies; any other body is kept and thawed by
``copy.deepcopy``, so every value keeps its type.  The gateway freezes
each served read once and hands the same frozen body to the read cache
and to :class:`LastGoodStore`; both only ever thaw it, so sharing it is
safe.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from itertools import chain
from operator import itemgetter

#: Key kinds (first element of every cache key).
LIST = "list"
VIEW = "view"


def _thaw_rows(rows: tuple) -> list:
    return list(map(dict, rows))


class FrozenBody:
    """One served read body, stored in a caller-proof representation.

    ``shareable`` is storage's verdict that every value in the body is
    immutable: the body (a list of flat rows, or one flat row) is then
    kept as private shallow copies — the caller may mutate the body it
    handed in, or was served, without reaching them.  Otherwise the
    body is deep-copied on the way in and on every thaw.
    """

    __slots__ = ("_value", "_thaw")

    def __init__(self, body, shareable: bool):
        if not shareable:
            self._value = copy.deepcopy(body)
            self._thaw = copy.deepcopy
        elif isinstance(body, dict):
            self._value = dict(body)
            self._thaw = dict
        else:
            self._value = tuple(map(dict, body))
            self._thaw = _thaw_rows

    def thaw(self):
        """A fresh copy of the body for one caller."""
        return self._thaw(self._value)


class FrozenList(FrozenBody):
    """A gathered list, frozen: the rows each live shard returned, read
    at that shard's data version, and their id-sorted merge.

    ``parts[i]`` is a :class:`~repro.runtime.storage.Rows` read at data
    version ``versions[i]``.  The parts are kept as they are, never
    copied in: a fresh read's rows are dicts no one else holds, and a
    reused part already belongs to an earlier entry.  The merge shares
    their dicts, and only thawed copies ever leave.
    """

    __slots__ = ("versions", "parts")

    def __init__(self, versions: tuple, parts: tuple):
        self.versions = versions
        self.parts = parts
        self._value = sorted(chain.from_iterable(parts), key=itemgetter("id"))
        self._thaw = (
            _thaw_rows if all(part.shareable for part in parts)
            else copy.deepcopy
        )


class CacheStats:
    """Hit/miss/invalidation accounting (thread-safe via the cache lock)."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }


class ReadThroughCache:
    """An LRU read cache keyed by (kind, entity, record id, user, level).

    ``capacity`` of 0 disables caching entirely (every lookup misses) —
    the gateway's uncached baseline configuration.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, FrozenBody] = OrderedDict()
        # (entity, record id) -> the view keys held for that record, so
        # a write drops one record's views without walking the cache
        self._views: dict[tuple, set[tuple]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @staticmethod
    def list_key(entity: str, user: str, level: int) -> tuple:
        return (LIST, entity, None, user, level)

    @staticmethod
    def view_key(entity: str, record_id: int, user: str, level: int) -> tuple:
        return (VIEW, entity, record_id, user, level)

    def lookup(self, key: tuple, versions: tuple | None = None):
        """The thawed cached body, or ``None`` on a miss.  A list entry
        hits only when ``versions`` — the live shards' data versions —
        are the ones its parts were read at."""
        with self._lock:
            frozen = self._entries.get(key)
            if frozen is None or (
                versions is not None and frozen.versions != versions
            ):
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return frozen.thaw()

    def parts(self, key: tuple) -> dict:
        """The row parts of the list held under ``key``, by the data
        version each was read at (empty when none is held)."""
        with self._lock:
            frozen = self._entries.get(key)
        if frozen is None:
            return {}
        return dict(zip(frozen.versions, frozen.parts))

    def fill(self, key: tuple, frozen: FrozenBody) -> None:
        """Store a freshly read, frozen body under ``key`` (read-through
        fill)."""
        if self.capacity == 0:
            return
        with self._lock:
            entries = self._entries
            entries[key] = frozen
            entries.move_to_end(key)
            if key[0] == VIEW:
                self._views.setdefault(key[1:3], set()).add(key)
            while len(entries) > self.capacity:
                evicted, _ = entries.popitem(last=False)
                if evicted[0] == VIEW:
                    self._unindex(evicted)
                self.stats.evictions += 1

    def _unindex(self, key: tuple) -> None:
        record = key[1:3]
        keys = self._views.get(record)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._views[record]

    def invalidate_record(self, entity: str, record_id: int) -> int:
        """Drop every view of one record, for every user and level; the
        count dropped."""
        with self._lock:
            keys = self._views.pop((entity, record_id), ())
            for key in keys:
                del self._entries[key]
            if keys:
                self.stats.invalidations += 1
            return len(keys)

    def invalidate_entity(self, entity: str) -> int:
        """Drop every entry for ``entity``, lists and views; the count
        dropped."""
        with self._lock:
            keys = [key for key in self._entries if key[1] == entity]
            for key in keys:
                del self._entries[key]
                if key[0] == VIEW:
                    self._unindex(key)
            if keys:
                self.stats.invalidations += 1
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._views.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<ReadThroughCache {len(self)}/{self.capacity} entries, "
            f"hit rate {self.stats.hit_rate:.2%}>"
        )


class LastGoodStore:
    """The last successfully served body per read identity, with the
    entity data version it was served at — the degraded-read backstop.

    Unlike :class:`ReadThroughCache` entries, these deliberately survive
    write invalidation: they are *allowed* to be stale, because the
    gateway only ever serves them explicitly tagged (status 203 plus
    ``X-DQ-Degraded`` headers carrying served vs current version), never
    as a fresh read.  Keys are the version-less cache keys, so the
    user-and-clearance isolation that keeps the Confidentiality DQSR
    intact on cache hits holds identically on degraded reads.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple[FrozenBody, int]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def remember(self, key: tuple, frozen: FrozenBody, version: int) -> None:
        """Record a freshly served, frozen body as the new last-known-good."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = (frozen, version)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def lookup(self, key: tuple):
        """``(thawed_body, served_version)`` or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            frozen, version = entry
            return frozen.thaw(), version

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"<LastGoodStore {len(self)}/{self.capacity} entries>"
