"""The content store: entities, records, and their DQ metadata sidecars.

This plays the role of the paper's ``Content`` elements at runtime: each
entity (table) stores plain-dict records; every record carries a
:class:`~repro.dq.metadata.DQMetadataRecord` sidecar where the generated
``Add_DQ_Metadata`` activities put traceability and confidentiality
metadata.

Concurrency contract (used by :mod:`repro.cluster`): every public
operation is guarded by a per-entity re-entrant lock, and the **read path**
(:meth:`EntityStore.get`, :meth:`EntityStore.all`,
:meth:`EntityStore.query`) hands out defensive *snapshots*, and
:meth:`ContentStore.readable_by` defensive response *rows* — mutating
either (or updating the store after taking one) never changes the other
side.  The **write path**
(:meth:`EntityStore.insert`, :meth:`EntityStore.update`,
:meth:`ContentStore.store`, :meth:`ContentStore.modify`) keeps returning
the live record so metadata stamping works as before.

Hot-path design (copy-on-write snapshots): the *store* side of the read
path is copy-on-write — :meth:`EntityStore.update` never mutates a
published data dict in place, it publishes a fresh merged dict — so a
snapshot whose values are all immutable (the common case: form records
are flat dicts of scalars) can be a **shallow** dict copy that shares
every value structurally with the store.  Records holding nested mutable
values fall back to the original ``deepcopy`` path, and
``snapshot(deep=True)`` forces it, so the isolation contract above is
identical in every case — only the allocation cost changes.  The
equivalence is pinned by property tests
(``tests/runtime/test_storage_hotpath.py``).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.dq.metadata import TRACEABILITY_ATTRIBUTES, Clock, DQMetadataRecord
from repro.dq.streaming import EntityAccumulator, census_hint

#: Value types a snapshot may share with the live record: immutable
#: scalars, plus immutable containers of the same.
_FROZEN_SCALARS = (str, int, float, bool, bytes, complex, type(None))

#: Column readers of :meth:`EntityStore.dump_state`.
_VERSION = attrgetter("version")
_TRACEABILITY = tuple(
    (name, attrgetter(name)) for name in TRACEABILITY_ATTRIBUTES
)


def _value_shareable(value) -> bool:
    if isinstance(value, _FROZEN_SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_value_shareable(item) for item in value)
    return False


def _values_shareable(data: dict) -> bool:
    """May a shallow copy of ``data`` share every value with the store?"""
    return all(_value_shareable(value) for value in data.values())


def reject_envelope_fields(owner: str, fields: Iterable[str]) -> None:
    """Every response body is ``{"id", "version", **data}``: raise
    ``ValueError`` naming the first declared field that would shadow
    the record envelope."""
    for name in fields:
        if name in ("id", "version"):
            raise ValueError(
                f"{owner}: field {name!r} is reserved for the record "
                "envelope"
            )


class Rows(list):
    """The ``{"id", "version", **data}`` rows of one confidentiality-
    filtered read, each a fresh dict the caller owns, plus storage's
    verdict on them: ``shareable`` is True when every value in every row
    is immutable (``StoredRecord.shareable`` of every record read), so a
    holder may keep shallow copies of the rows instead of deep ones."""

    __slots__ = ("shareable",)

    def __init__(self, rows=(), shareable: bool = True):
        super().__init__(rows)
        self.shareable = shareable


class IdAllocator:
    """A thread-safe record-id counter.

    Replaces the bare ``itertools.count`` the store used to rely on: two
    threads calling ``next(count)`` concurrently could observe torn
    increments on some interpreters, and a bare counter cannot be kept
    ahead of externally assigned ids (the sharded gateway allocates global
    ids itself and pushes them down via ``insert(..., record_id=...)``).

    Reserved ids are tracked as a contiguous **watermark** plus a sparse
    tail, not an ever-growing set: every id at or below the watermark
    counts as reserved, and whenever the tail exceeds
    ``compact_threshold`` its oldest half is folded into the watermark.
    A soak run that reserves millions of ids therefore holds O(threshold)
    memory while the duplicate-reservation guard still fires.  Folding is
    safe for the intended callers — a sharded store only ever sees the
    ids routed to it, in roughly increasing order, so an id that falls
    into a folded gap is one that can never legitimately arrive late.
    """

    def __init__(self, start: int = 1, compact_threshold: int = 1024):
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be >= 2")
        self._next = start
        self._watermark = 0          # every id <= this counts as reserved
        self._tail: set[int] = set()  # reserved ids above the watermark
        self._compact_threshold = compact_threshold
        self._lock = threading.Lock()

    def allocate(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def reserve(self, record_id: int) -> None:
        """Keep the counter ahead of an externally assigned id.

        Each id may be reserved exactly once: a second reservation means
        the same externally routed write is being applied twice (a
        replayed worker task that slipped past the idempotency layer) and
        must fail loudly rather than silently double-apply.
        """
        with self._lock:
            if record_id <= self._watermark or record_id in self._tail:
                raise ValueError(
                    f"record id {record_id} already reserved "
                    "(duplicate task replay?)"
                )
            self._tail.add(record_id)
            # absorb any contiguous run into the watermark
            while self._watermark + 1 in self._tail:
                self._watermark += 1
                self._tail.discard(self._watermark)
            if len(self._tail) > self._compact_threshold:
                self._fold_tail()
            if record_id >= self._next:
                self._next = record_id + 1

    def reserved_among(self, record_ids: Iterable[int]) -> Optional[int]:
        """The first of ``record_ids`` already reserved, or ``None``."""
        with self._lock:
            for record_id in record_ids:
                if record_id <= self._watermark or record_id in self._tail:
                    return record_id
        return None

    def bump_to(self, record_id: int) -> None:
        """Keep the counter ahead of a **replayed** ``allocate``-style id.

        Crash recovery re-inserts records whose ids originally came from
        :meth:`allocate`; those must not enter the sparse reservation
        tail (they were never externally reserved), but the counter must
        still end up past them so post-recovery allocations never
        collide.
        """
        with self._lock:
            if record_id >= self._next:
                self._next = record_id + 1

    def _fold_tail(self) -> None:
        """Fold the oldest half of the sparse tail into the watermark."""
        ordered = sorted(self._tail)
        cut = ordered[len(ordered) // 2]
        self._watermark = cut
        tail = {rid for rid in ordered if rid > cut}
        # Re-establish the class invariant that the tail never touches
        # the watermark: a fold can leave a contiguous run starting at
        # ``cut + 1``, and a snapshot taken in that state used to
        # round-trip those ids into the *gap* side of the watermark,
        # where the duplicate-reservation guard no longer distinguishes
        # them.  Absorbing the run keeps (watermark, tail) canonical for
        # any given reserved-id set, so ``from_state(to_state())`` is an
        # exact restore.
        while self._watermark + 1 in tail:
            self._watermark += 1
            tail.discard(self._watermark)
        self._tail = tail

    def reserved_footprint(self) -> int:
        """How many sparse entries the reservation guard is holding."""
        with self._lock:
            return len(self._tail)

    def peek(self) -> int:
        with self._lock:
            return self._next

    def high_water(self) -> int:
        """The highest id this allocator knows about — allocated, folded
        into the watermark, or reserved above the counter.  An external
        allocator (the gateway router) must hand out ids strictly beyond
        this or a recovered store will refuse them as duplicates."""
        with self._lock:
            tail_top = max(self._tail) if self._tail else 0
            return max(self._next - 1, self._watermark, tail_top)

    # -- durable state -----------------------------------------------------

    def to_state(self) -> dict:
        """The full allocator state, snapshot-ready.

        Captures the watermark *and* the sparse tail explicitly:
        rebuilding an allocator from surviving records alone would lose
        reserved-but-unused ids (reserved for a record that was later
        retired, or folded into the watermark), silently disarming the
        duplicate-replay guard after a restore.
        """
        with self._lock:
            return {
                "next": self._next,
                "watermark": self._watermark,
                "tail": sorted(self._tail),
                "compact_threshold": self._compact_threshold,
            }

    @classmethod
    def from_state(cls, state: dict) -> "IdAllocator":
        allocator = cls(
            start=state["next"],
            compact_threshold=state.get("compact_threshold", 1024),
        )
        allocator._watermark = state.get("watermark", 0)
        allocator._tail = set(state.get("tail", ()))
        return allocator


@dataclass
class StoredRecord:
    """One record plus its DQ metadata sidecar.

    ``version`` starts at 1 and increments on every update — the handle
    for optimistic-concurrency checks on modification.  ``shareable``
    (internal) records whether every data value is immutable, i.e.
    whether a snapshot may structurally share them.  Every read trusts
    it, so every write keeps it exact: an update judges only its delta
    while the record is shareable, and the whole published dict when
    it is not.
    """

    record_id: int
    data: dict
    metadata: DQMetadataRecord = field(default_factory=DQMetadataRecord)
    version: int = 1
    shareable: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.shareable:
            self.shareable = _values_shareable(self.data)

    def snapshot(self, deep: bool = False) -> "StoredRecord":
        """A defensive copy: mutating it never leaks into the store.

        The default is the copy-on-write fast path — a shallow dict copy
        sharing the (immutable) values — whenever the record qualifies;
        ``deep=True`` is the escape hatch that forces the original
        ``deepcopy`` behaviour, and records holding nested mutable values
        always take it.
        """
        meta = self.metadata
        if deep or not self.shareable:
            return StoredRecord(
                self.record_id,
                copy.deepcopy(self.data),
                replace(
                    meta,
                    available_to=set(meta.available_to),
                    extra=copy.deepcopy(meta.extra),
                ),
                self.version,
                self.shareable,
            )
        extra = meta.extra
        if extra:
            extra = (
                dict(extra) if _values_shareable(extra)
                else copy.deepcopy(extra)
            )
        else:
            extra = {}
        # ``__new__``-based clone: every field is assigned below, so
        # this is the ``StoredRecord(...)`` constructor minus the
        # ``__init__``/``__post_init__`` machinery — the dominant cost
        # when a scan materializes hundreds of matches.
        clone = object.__new__(StoredRecord)
        clone.record_id = self.record_id
        clone.data = dict(self.data)
        clone.metadata = meta.replica(extra)
        clone.version = self.version
        clone.shareable = True
        return clone


_NUMERIC_ZONE_KINDS = frozenset((int, float))

#: Probe types whose ``==`` against an all-numeric column is decided
#: purely numerically — the only ones a zone map may prune (any other
#: type may carry an arbitrary ``__eq__``, e.g. ``Fraction``).
_NUMERIC_PROBE_KINDS = (int, float, bool)


class ColumnStats:
    """**Zone map** of one column (the classic columnar trick: summary
    statistics that let a whole-column predicate be answered without
    scanning a single cell).

    Maintained *incrementally*: the store folds every admitted value
    into the map — chunk admissions via the C-level passes of
    :meth:`observe_chunk`, in-place cell writes via :meth:`observe` —
    so a sweep never rescans a column to refresh its map (the cost that
    used to sink cold sweeps).  The map is a **sticky superset
    envelope**: deletes and overwrites never shrink it, so it bounds
    every *live* cell (plus possibly values that are gone).  That keeps
    every claim exact-or-conservative: a zone map may fail to prove a
    column clean (demoting the check to the real column pass) but can
    never claim clean wrongly.  ``kinds`` is the admitted type census,
    ``missing`` whether a missing value (None / blank string / exotic
    type) was ever admitted, ``zmin``/``zmax`` bound the numeric
    values, ``nan`` whether a NaN was admitted.
    """

    __slots__ = ("kinds", "missing", "nan", "zmin", "zmax")

    def __init__(self):
        self.kinds: set = set()
        self.missing = False
        self.nan = False
        self.zmin = None
        self.zmax = None

    def observe(self, value) -> None:
        """Fold one value into the envelope (idempotent)."""
        kind = type(value)
        self.kinds.add(kind)
        if kind is int or kind is float:
            if value != value:
                self.nan = True
            else:
                if self.zmin is None or value < self.zmin:
                    self.zmin = value
                if self.zmax is None or value > self.zmax:
                    self.zmax = value
        elif kind is str:
            if value == "" or value.isspace():
                self.missing = True
        else:
            # None / bool / exotic: claim nothing (missing=True keeps
            # completeness checks on the real column pass — sound)
            self.missing = True

    def observe_chunk(self, values, census: set) -> None:
        """Fold a chunk into the envelope with C-level passes.

        ``census`` is the chunk's exact type census.  Bit-identical to
        folding the chunk value by value through :meth:`observe`, for
        any chunking of the same value sequence — the admission tests
        pin this.
        """
        self.kinds |= census
        if census <= _NUMERIC_ZONE_KINDS:
            total = sum(values)
            if total != total:
                # ``sum`` met a NaN — or an inf/-inf cancellation, which
                # has no NaN at all; census the cells to tell them apart
                finite = [value for value in values if value == value]
                if len(finite) != len(values):
                    self.nan = True
                values = finite
            if values:
                lowest = min(values)
                highest = max(values)
                if self.zmin is None or lowest < self.zmin:
                    self.zmin = lowest
                if self.zmax is None or highest > self.zmax:
                    self.zmax = highest
        elif census == {str}:
            if not self.missing:
                self.missing = "" in values or any(
                    map(str.isspace, values)
                )
        else:
            for value in values:
                self.observe(value)

    @classmethod
    def of_column(cls, column) -> "ColumnStats":
        """A fresh envelope of exactly ``column`` (compaction rebuilds
        and the equivalence tests)."""
        stats = cls()
        if column:
            stats.observe_chunk(column, set(map(type, column)))
        return stats

    def as_dict(self) -> dict:
        return {
            "kinds": sorted(kind.__name__ for kind in self.kinds),
            "missing": self.missing,
            "nan": self.nan,
            "zmin": self.zmin,
            "zmax": self.zmax,
        }


class _ConfidentialityIndex:
    """Who may read what, as hash lookups instead of per-record predicates.

    Mirrors :meth:`DQMetadataRecord.accessible_by` exactly: a record is
    readable by ``(user, level)`` when ``level >= security_level`` *or*
    the user holds an explicit grant.  Maintained under the entity lock by
    the write path; ``readable_ids`` unions a handful of sets instead of
    calling a Python predicate per record.  Records with the same
    ``(level, grants)`` share one interned state tuple, so a record costs
    the collector nothing here.
    """

    #: readable-id cache entries kept before a wholesale clear — reads
    #: come from a handful of distinct principals, so this is generous.
    _CACHE_LIMIT = 128
    #: interned ``(level, grants)`` states kept before a wholesale clear
    #: (records keep theirs; later records intern afresh).
    _STATE_LIMIT = 1024

    def __init__(self):
        self._by_level: dict[int, set[int]] = {}
        self._by_grant: dict[str, set[int]] = {}
        self._state: dict[int, tuple[int, frozenset]] = {}
        self._shared: dict[tuple[int, frozenset], tuple[int, frozenset]] = {}
        # Readable-id sets are memoized per ``(user, level)`` and
        # invalidated wholesale by bumping the generation on any index
        # change: stores mutate in bursts and are then read repeatedly
        # by the same principals, so the union rebuild amortizes to
        # zero on the read-heavy mixes.
        self._generation = 0
        self._readable_cache: dict[tuple[str, int], tuple[int, frozenset]] = {}

    def index(self, record_id: int, metadata: DQMetadataRecord) -> None:
        key = (metadata.security_level, frozenset(metadata.available_to))
        state = self._shared.get(key)
        if state is None:
            if len(self._shared) >= self._STATE_LIMIT:
                self._shared.clear()
            state = self._shared[key] = key
        elif self._state.get(record_id) is state:
            return
        self.unindex(record_id)
        level, grants = state
        self._by_level.setdefault(level, set()).add(record_id)
        for user in grants:
            self._by_grant.setdefault(user, set()).add(record_id)
        self._state[record_id] = state
        self._generation += 1

    def unindex(self, record_id: int) -> None:
        state = self._state.pop(record_id, None)
        if state is None:
            return
        self._generation += 1
        level, grants = state
        bucket = self._by_level.get(level)
        if bucket is not None:
            bucket.discard(record_id)
            if not bucket:
                del self._by_level[level]
        for user in grants:
            granted = self._by_grant.get(user)
            if granted is not None:
                granted.discard(record_id)
                if not granted:
                    del self._by_grant[user]

    def readable_ids(self, user: str, user_level: int) -> frozenset:
        """The ids ``(user, user_level)`` may read, as a **shared**
        frozenset — callers must treat it as immutable (it is reused
        across calls until the next index change)."""
        key = (user, user_level)
        generation = self._generation
        cached = self._readable_cache.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        readable: set[int] = set()
        for level, ids in self._by_level.items():
            if level <= user_level:
                readable |= ids
        granted = self._by_grant.get(user)
        if granted:
            readable |= granted
        result = frozenset(readable)
        cache = self._readable_cache
        if len(cache) >= self._CACHE_LIMIT:
            cache.clear()
        cache[key] = (generation, result)
        return result


class EntityStore:
    """All records of one entity (one ``Content`` element).

    ``deep_snapshots`` forces every snapshot through the ``deepcopy``
    escape hatch — the pre-COW behaviour, kept so benchmarks can measure
    both paths in one run and tests can diff them.
    """

    def __init__(self, name: str, fields: Sequence[str] = (), backend=None):
        self.name = name
        self.fields = tuple(fields)
        self.deep_snapshots = False
        self._records: dict[int, StoredRecord] = {}
        self._ids = IdAllocator()
        self._lock = threading.RLock()
        # Durable write-ahead logging: ``None`` (the default, and any
        # non-durable backend) keeps the write path exactly as it was;
        # a durable backend gets one op appended per mutation, under the
        # entity lock so WAL order == apply order.  Syncing is the
        # application's job (group commit via ``WebApp.commit``).
        self._backend = (
            backend if backend is not None and backend.durable else None
        )
        self._confidentiality = _ConfidentialityIndex()
        # Columnar spine: one append-only value array per layout field,
        # a parallel row-id array (``None`` marks a tombstone) and a
        # record-id → slot map, all maintained under the entity lock.
        # The layout is the declared field tuple (or adopted from the
        # first insert when none was declared); a record whose key tuple
        # deviates from it is tracked in ``_irregular`` and every
        # column-answered read falls back to the dict scan while any
        # such record exists.  Row dicts stay authoritative — the spine
        # only mirrors them so the hot paths (column validation,
        # telemetry absorption, equality scans) can run down columns.
        self._layout: Optional[tuple[str, ...]] = self.fields or None
        self._cols: dict[str, list] = {name: [] for name in self.fields}
        self._col_list: list[list] = list(self._cols.values())
        # Admission compares ``data.keys()`` against this frozenset — a
        # single C set comparison, no tuple allocation per insert.  The
        # spine extracts values by name, so key *order* never matters
        # (``None`` — e.g. a duplicated declared field — admits nothing).
        self._layout_keys: Optional[frozenset] = (
            frozenset(self._layout)
            if self._layout is not None
            and len(self._layout) == len(self._cols)
            else None
        )
        self._col_pairs: list[tuple[str, list]] = list(self._cols.items())
        self._col_ids: list[Optional[int]] = []
        self._slots: dict[int, int] = {}
        self._irregular: set[int] = set()
        self._tombstones = 0
        self._col_epoch = 0
        # Zone maps: sticky per-column ColumnStats envelopes, maintained
        # *incrementally*: ``_zone_upto`` counts the leading spine
        # slots already folded in; chunk admission folds its tail
        # eagerly, single inserts defer to the next columnar read
        # (``_sync_zone_maps``), and in-place cell writes below the
        # watermark are folded at write time.
        self._col_stats: dict[str, ColumnStats] = {
            name: ColumnStats() for name in self._cols
        }
        self._zone_upto = 0
        # Streaming DQ telemetry: maintained under the entity lock next
        # to the confidentiality index, default-on.  ``None`` while
        # disabled (or pending a rebuild after re-enabling).  Writes only
        # enqueue compact op tuples on ``_telemetry_pending``; the
        # accumulator absorbs the queue on the next telemetry read, so
        # the write path never pays the per-value accounting.
        self._telemetry_enabled = True
        self._telemetry: Optional[EntityAccumulator] = EntityAccumulator(name)
        self._telemetry_pending: list[tuple] = []
        self.telemetry_rebuilds = 0

    def attach_backend(self, backend) -> None:
        """Swap the durable backend in place (replication failover).

        Same durability gate as construction: a non-durable backend
        detaches logging entirely, keeping the hot path untouched.
        """
        with self._lock:
            self._backend = (
                backend if backend is not None and backend.durable else None
            )

    # -- streaming DQ telemetry -------------------------------------------

    def set_telemetry(self, enabled: bool) -> None:
        """Enable or disable streaming DQ telemetry for this entity.

        Disabling drops the accumulator (writes stop paying for it);
        re-enabling rebuilds it lazily from the stored records on the
        next telemetry read.
        """
        with self._lock:
            self._telemetry_enabled = enabled
            if not enabled:
                self._telemetry = None
                self._telemetry_pending.clear()

    @property
    def telemetry(self) -> Optional[EntityAccumulator]:
        """The **live**, fully-drained accumulator (entity-lock
        discipline applies) — ``None`` while telemetry is disabled.
        Prefer :meth:`telemetry_snapshot` / :meth:`measure_telemetry`
        outside the store."""
        with self._lock:
            accumulator = self._telemetry
            if accumulator is None:
                if not self._telemetry_enabled:
                    return None
                # Rebuild from the stored records; nothing can be
                # pending (hooks only enqueue while an accumulator
                # exists, and disabling cleared the queue).
                accumulator = EntityAccumulator(self.name)
                for stored in self._records.values():
                    accumulator.observe_insert(stored)
                self._telemetry = accumulator
                self.telemetry_rebuilds += 1
                return accumulator
            pending = self._telemetry_pending
            if pending:
                self._telemetry_pending = []
                accumulator.absorb(pending)
            return accumulator

    def telemetry_snapshot(self) -> Optional[EntityAccumulator]:
        """A mergeable point-in-time copy of the accumulator (``None``
        while telemetry is disabled)."""
        with self._lock:
            accumulator = self.telemetry
            return accumulator.snapshot() if accumulator is not None else None

    def measure_telemetry(self, fn):
        """Run a read ``fn(accumulator)`` under the entity lock, without
        paying for a snapshot copy; ``None`` while disabled."""
        with self._lock:
            accumulator = self.telemetry
            if accumulator is None:
                return None
            return fn(accumulator)

    # -- confidentiality index ---------------------------------------------

    def reindex_metadata(self, record_id: int) -> None:
        """Refresh the confidentiality index after a stored record's
        metadata changed (:meth:`ContentStore.modify` and
        :meth:`ContentStore.restrict`), and log the re-stamp."""
        with self._lock:
            stored = self._live(record_id)
            self._confidentiality.index(record_id, stored.metadata)
            self._log_metadata(stored)

    def _log_metadata(self, stored: StoredRecord) -> None:
        """Queue the telemetry and WAL ops of a metadata stamp (entity
        lock held)."""
        if self._telemetry is not None:
            self._telemetry_pending.append(
                ("meta", stored.record_id, stored.metadata)
            )
        if self._backend is not None:
            self._backend.append({
                "op": "meta",
                "entity": self.name,
                "id": stored.record_id,
                "meta": stored.metadata.to_state(),
            })

    # -- columnar spine (entity lock held by every caller) -----------------

    def _col_add(self, stored: StoredRecord) -> None:
        """Mirror a just-inserted record into the column arrays."""
        data = stored.data
        if self._layout is None:
            if not data:
                self._irregular.add(stored.record_id)
                return
            layout = tuple(data)
            self._layout = layout
            self._cols = {name: [] for name in layout}
            self._col_list = list(self._cols.values())
            self._col_pairs = list(self._cols.items())
            self._layout_keys = frozenset(layout)
            self._col_stats = {name: ColumnStats() for name in layout}
        if tuple(data) == self._layout:
            self._slots[stored.record_id] = len(self._col_ids)
            self._col_ids.append(stored.record_id)
            self._col_epoch += 1
            # ``any`` drains the C-level map (append returns None)
            any(map(list.append, self._col_list, data.values()))
        elif data.keys() == self._layout_keys:
            # same fields, different key order: still regular — the
            # spine extracts by name, so only the probes cost more
            self._slots[stored.record_id] = len(self._col_ids)
            self._col_ids.append(stored.record_id)
            self._col_epoch += 1
            for name, column in self._col_pairs:
                column.append(data[name])
        else:
            self._irregular.add(stored.record_id)

    def _col_add_chunk(self, stored_list: Sequence[StoredRecord]) -> None:
        """Mirror a whole ``insert_many`` chunk into the columns.

        The uniform case (every row carries exactly the layout keys —
        the batched form path always does) admits the chunk with one
        slot/epoch update and a single per-field extend, so the spine
        tax per record is a set comparison and F dict probes instead of
        the per-record bookkeeping of :meth:`_col_add`."""
        if self._layout is None:
            # adopt the layout from the first row, then retry the rest
            self._col_add(stored_list[0])
            stored_list = stored_list[1:]
            if not stored_list:
                return
            if self._layout is None:
                for stored in stored_list:
                    self._col_add(stored)
                return
        keys = self._layout_keys
        datas = [stored.data for stored in stored_list]
        if all(d.keys() == keys for d in datas):
            col_ids = self._col_ids
            base = len(col_ids)
            self._col_epoch += 1
            rids = [stored.record_id for stored in stored_list]
            col_ids.extend(rids)
            self._slots.update(zip(rids, range(base, base + len(rids))))
            for name, column in self._col_pairs:
                column.extend(map(itemgetter(name), datas))
            # Chunk admissions fold into the zone maps eagerly: the
            # chunk is in hand and homogeneous, so the update is one
            # C-level pass per column — and sweeps right after a bulk
            # load (the cold-sweep case) find the zone maps already warm.
            self._sync_zone_maps()
        else:
            for stored in stored_list:
                self._col_add(stored)

    def _col_update(self, record_id: int, stored: StoredRecord, delta: dict) -> None:
        """Mirror an update.  A merge can only add keys, so an unchanged
        dict length means the key tuple still equals the layout and the
        changed cells are written in place; a widened record is demoted
        to the irregular set (its slot becomes a tombstone)."""
        slot = self._slots.get(record_id)
        if slot is None:
            return  # irregular records stay dict-served
        if len(stored.data) == len(self._layout):
            cols = self._cols
            stats = self._col_stats
            self._col_epoch += 1
            synced = slot < self._zone_upto
            for name, value in delta.items():
                column = cols[name]
                if synced:
                    # the cell is inside the zone maps: widen the
                    # sticky envelope with the new value
                    stats[name].observe(value)
                else:
                    # the old cell would be lost before the next sync —
                    # fold it into the envelope now, exactly as if the
                    # sync had run before this write (idempotent, so
                    # eager and lazy admission styles stay identical)
                    stats[name].observe(column[slot])
                column[slot] = value
            return
        del self._slots[record_id]
        self._irregular.add(record_id)
        self._col_tombstone(slot)

    def _col_remove(self, record_id: int) -> None:
        """Mirror a delete: tombstone the slot (or drop the irregular)."""
        slot = self._slots.pop(record_id, None)
        if slot is None:
            self._irregular.discard(record_id)
            return
        self._col_tombstone(slot)

    def _col_tombstone(self, slot: int) -> None:
        self._col_epoch += 1
        self._col_ids[slot] = None
        if slot >= self._zone_upto:
            # the dying cells never reached the zone maps — fold them into
            # the envelopes first (as the sync would have), so eager and
            # lazy admission styles keep bit-identical zone maps
            for name, column in self._col_pairs:
                self._col_stats[name].observe(column[slot])
        for column in self._col_list:
            column[slot] = None
        self._tombstones += 1
        if self._tombstones > 64 and self._tombstones * 2 > len(self._col_ids):
            self._compact_columns()

    def _compact_columns(self) -> None:
        """Drop tombstoned slots, preserving live-slot (insertion) order."""
        keep = [
            slot for slot, rid in enumerate(self._col_ids) if rid is not None
        ]
        self._col_ids = [self._col_ids[slot] for slot in keep]
        for name, column in self._cols.items():
            self._cols[name] = [column[slot] for slot in keep]
        self._col_list = list(self._cols.values())
        self._col_pairs = list(self._cols.items())
        self._slots = {rid: slot for slot, rid in enumerate(self._col_ids)}
        self._tombstones = 0
        # Compaction is the one event that sheds dead weight from the
        # zone maps: reset them so the next sync rebuilds them from
        # exactly the surviving cells.
        self._col_stats = {name: ColumnStats() for name in self._cols}
        self._zone_upto = 0

    def _sync_zone_maps(self) -> None:
        """Fold the unsynced spine tail into the zone maps (entity lock
        held).

        ``_zone_upto`` counts the leading slots already folded in;
        everything past it is absorbed here in one census and chunked
        zone-map fold per column.  Tombstoned tail slots are skipped
        (their cells are dead ``None``s).
        """
        ids = self._col_ids
        upto = self._zone_upto
        total = len(ids)
        if upto == total:
            return
        live = None
        if self._tombstones:
            live = [
                slot for slot in range(upto, total)
                if ids[slot] is not None
            ]
            if len(live) == total - upto:
                live = None
        stats = self._col_stats
        for name, column in self._col_pairs:
            if live is None:
                tail = column[upto:]
            else:
                tail = [column[slot] for slot in live]
            if tail:
                stats[name].observe_chunk(tail, set(map(type, tail)))
        self._zone_upto = total

    def columnar_stats(self) -> dict:
        """Introspection for tests and the columnar bench."""
        with self._lock:
            self._sync_zone_maps()
            return {
                "layout": list(self._layout) if self._layout else None,
                "slots": len(self._slots),
                "tombstones": self._tombstones,
                "irregular": len(self._irregular),
                "epoch": self._col_epoch,
                "zone_maps": {
                    name: stats.as_dict()
                    for name, stats in self._col_stats.items()
                },
            }

    def revalidate(self, plan) -> dict[int, list]:
        """Re-run a compiled plan over every live record, answering from
        the columnar spine: findings keyed by record id.

        This is the full-entity DQ sweep (scorecard-style re-audit of
        already-admitted data).  When the plan carries a column-sliced
        body and every record sits in the spine, each scan term runs
        down whole columns — and the zone maps (folded in on admission)
        usually answer a column in O(1) without touching a single
        cell.  Any irregular record, plan without a
        columnar body, or field mismatch falls back to the fused row
        scan over the authoritative dicts, so the result is identical
        either way (the row path is the oracle).
        """
        with self._lock:
            check_columns = getattr(plan, "check_columns", None)
            layout = self._layout
            if (
                check_columns is not None
                and layout is not None
                and not self._irregular
                and set(plan.bound_fields) <= set(self._cols)
            ):
                self._sync_zone_maps()
                bound = plan.bound_fields
                columns = [self._cols[name] for name in bound]
                stats = [self._col_stats[name] for name in bound]
                results = check_columns(columns, len(self._col_ids), stats)
                ids = self._col_ids
                if self._tombstones:
                    # dead slots ride along in the column pass (their
                    # cells are ``None``) and are dropped here — only
                    # live records answer the sweep
                    return {
                        rid: findings
                        for rid, findings in zip(ids, results)
                        if rid is not None
                    }
                return dict(zip(ids, results))
            rows = [stored.data for stored in self._records.values()]
            ids = list(self._records.keys())
            return dict(zip(ids, plan.check_batch(rows, False)))

    # -- writes ------------------------------------------------------------

    def insert(
        self,
        data: dict,
        record_id: Optional[int] = None,
        stamp: Optional[Callable[[DQMetadataRecord], object]] = None,
    ) -> StoredRecord:
        """Insert a record; returns the **live** stored record.

        ``record_id`` lets a caller that allocates ids globally (the
        sharded gateway) pin the id; the local allocator is kept ahead so
        unpinned inserts never collide with pinned ones.  ``stamp``
        fills the new record's metadata sidecar once its id is taken and
        before the record is indexed, so the clearance index files each
        record once, under its final confidentiality state.
        """
        with self._lock:
            pinned = record_id is not None
            if record_id is None:
                record_id = self._ids.allocate()
            else:
                if record_id in self._records:
                    raise ValueError(
                        f"{self.name}: record id {record_id} already in use"
                    )
                self._ids.reserve(record_id)
            stored = StoredRecord(record_id, dict(data))
            if stamp is not None:
                stamp(stored.metadata)
            self._records[record_id] = stored
            self._confidentiality.index(record_id, stored.metadata)
            self._col_add(stored)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("row", record_id, stored.data, stored.metadata)
                )
            if self._backend is not None:
                # ``pinned`` tells replay which allocation style to
                # reproduce: reserve() for externally assigned ids,
                # bump_to() for locally allocated ones — so the
                # recovered allocator matches the original exactly.
                self._backend.append({
                    "op": "insert",
                    "entity": self.name,
                    "id": record_id,
                    "data": dict(stored.data),
                    "pinned": pinned,
                })
            return stored

    def insert_many(
        self,
        rows: Sequence[dict],
        record_ids: Optional[Sequence[Optional[int]]] = None,
        log: bool = True,
        stamp: Optional[Callable[[DQMetadataRecord], object]] = None,
    ) -> list[StoredRecord]:
        """Insert a whole chunk under one lock trip, **telemetry
        deferred**: ``stamp`` fills each record's metadata as in
        :meth:`insert`, and the caller then hands the chunk to
        :meth:`observe_inserted` so the accumulators absorb it in a
        single batched update (the ≤10% write-overhead contract of
        ``submit_many``).  ``log=False`` defers WAL logging to the
        caller's :meth:`log_rows`, which folds the stamped metadata into
        the same combined op.  The chunk is stored whole or not at all:
        a pinned id that repeats within it, is held, or was reserved
        before raises ``ValueError`` before anything is touched.
        """
        with self._lock:
            if record_ids is None:
                record_ids = (None,) * len(rows)
            else:
                self._check_free(
                    [record_id for record_id in record_ids
                     if record_id is not None]
                )
            stored_list: list[StoredRecord] = []
            pins: list[bool] = []
            for data, record_id in zip(rows, record_ids):
                pinned = record_id is not None
                if record_id is None:
                    record_id = self._ids.allocate()
                else:
                    self._ids.reserve(record_id)
                stored = StoredRecord(record_id, dict(data))
                if stamp is not None:
                    stamp(stored.metadata)
                self._records[record_id] = stored
                self._confidentiality.index(record_id, stored.metadata)
                stored_list.append(stored)
                pins.append(pinned)
            if stored_list:
                self._col_add_chunk(stored_list)
            if log and self._backend is not None and stored_list:
                self._backend.append({
                    "op": "rows",
                    "entity": self.name,
                    "rows": [
                        [stored.record_id, dict(stored.data), pinned]
                        for stored, pinned in zip(stored_list, pins)
                    ],
                })
            return stored_list

    def _check_free(self, record_ids: list[int]) -> None:
        seen: set[int] = set()
        for record_id in record_ids:
            if record_id in seen or record_id in self._records:
                raise ValueError(
                    f"{self.name}: record id {record_id} already in use"
                )
            seen.add(record_id)
        reserved = self._ids.reserved_among(record_ids)
        if reserved is not None:
            raise ValueError(
                f"{self.name}: record id {reserved} already reserved "
                "(duplicate task replay?)"
            )

    def log_rows(
        self,
        stored_list: Sequence[StoredRecord],
        record_ids: Optional[Sequence[Optional[int]]] = None,
        user: Optional[str] = None,
        security_level: int = 0,
        available_to: Iterable[str] = (),
    ) -> None:
        """One combined WAL op for a stamped ``insert_many`` chunk.

        Data and metadata land in a single record, so replay never needs
        the per-row ``meta`` ops.  The chunk's provenance is regular —
        every row was just stamped ``record_store(user)`` +
        ``restrict(security_level, available_to)`` under this entity's
        lock (that is the caller's contract) — so the op carries the
        shared fields once and only each row's tick, which is what keeps
        the durable batch write path within its overhead floor.  Row
        data is stored *columnar*: the field names appear once in the op
        header and each row carries just its value list (a row whose
        keys deviate from the chunk's layout falls back to its full
        dict).  Ops are encoded by ``append`` before the lock is
        released, so row values are passed by reference, not copied.
        """
        if self._backend is None or not stored_list:
            return
        if record_ids is None:
            record_ids = (None,) * len(stored_list)
        fields = tuple(stored_list[0].data)
        entries = []
        for stored, record_id in zip(stored_list, record_ids):
            data = stored.data
            entries.append([
                stored.record_id,
                list(data.values()) if tuple(data) == fields else data,
                record_id is not None,
                stored.metadata.stored_date,
            ])
        self._backend.append({
            "op": "rows",
            "entity": self.name,
            "by": user,
            "level": security_level,
            "grants": sorted(available_to),
            "fields": list(fields),
            "rows": entries,
        })

    def observe_inserted(self, stored_list: Sequence[StoredRecord]) -> None:
        """Feed an :meth:`insert_many` chunk (metadata already stamped)
        to the telemetry accumulator as one batched update.

        The write path only captures references — the published dicts
        are copy-on-write, so they are frozen the moment they are
        captured.  A chunk that landed contiguously in the columnar
        spine (the batched form path always does) is captured as a
        ``cols`` op — per-column slices of the spine arrays, value
        references only — so absorb never pays the row→column
        transpose; ragged or scattered chunks keep the ``rows`` op and
        absorb-side detection (:meth:`EntityAccumulator.absorb`).
        """
        with self._lock:
            if self._telemetry is None:
                return
            layout = self._layout
            if layout is not None and len(stored_list) >= 8:
                slots = self._slots
                base = slots.get(stored_list[0].record_id)
                if base is not None:
                    expected = base
                    for stored in stored_list:
                        if slots.get(stored.record_id) != expected:
                            expected = None
                            break
                        expected += 1
                    if expected is not None:
                        end = base + len(stored_list)
                        # Census hints: the contiguity walk above proved
                        # every slot in [base, end) belongs to a live
                        # record (deleted ids leave ``_slots``), and once
                        # the watermark covers them the zone map's
                        # admitted-type census is a superset of these
                        # cells — so ``kinds == {str}`` (or ``{int}``)
                        # proves the slice all that type and absorb
                        # skips its type walk.
                        hints = None
                        if self._zone_upto >= end:
                            stats = self._col_stats
                            hints = tuple(
                                census_hint(stats[name].kinds)
                                for name in layout
                            )
                        self._telemetry_pending.append((
                            "cols",
                            layout,
                            [column[base:end] for column in self._col_list],
                            [
                                (stored.record_id, stored.metadata)
                                for stored in stored_list
                            ],
                            hints,
                        ))
                        return
            self._telemetry_pending.append(("rows", [
                (stored.record_id, stored.data, stored.metadata)
                for stored in stored_list
            ]))

    def pending_telemetry_ops(self) -> list[tuple]:
        """Snapshot-and-clear the deferred telemetry queue — bench and
        test introspection for the op shapes the write path captured
        (the accumulator normally drains this via :attr:`telemetry`)."""
        with self._lock:
            ops = self._telemetry_pending
            self._telemetry_pending = []
            return ops

    def update(self, record_id: int, data: dict) -> StoredRecord:
        """Merge ``data`` into a record — by *publishing a fresh dict*.

        The previously published dict is never mutated, so snapshots that
        structurally share its values stay frozen in time (the store-side
        half of the copy-on-write contract).
        """
        with self._lock:
            stored = self._live(record_id)
            old_data = stored.data
            stored.data = {**old_data, **data}
            stored.shareable = _values_shareable(
                data if stored.shareable else stored.data
            )
            stored.version += 1
            self._col_update(record_id, stored, data)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("update", old_data, stored.data)
                )
            if self._backend is not None:
                self._backend.append({
                    "op": "update",
                    "entity": self.name,
                    "id": record_id,
                    "data": dict(data),
                    "version": stored.version,
                })
            return stored

    def delete(self, record_id: int) -> None:
        with self._lock:
            stored = self._live(record_id)
            del self._records[record_id]
            self._confidentiality.unindex(record_id)
            self._col_remove(record_id)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("delete", record_id, stored.data)
                )
            if self._backend is not None:
                self._backend.append({
                    "op": "retire",
                    "entity": self.name,
                    "id": record_id,
                })

    def _live(self, record_id: int) -> StoredRecord:
        """The live record (write path / internal use only)."""
        try:
            return self._records[record_id]
        except KeyError:
            raise KeyError(
                f"{self.name}: no record with id {record_id}"
            ) from None

    # -- crash recovery (no backend logging, full index rebuild) -----------

    def restore_record(
        self,
        record_id: int,
        data: dict,
        metadata_state: Optional[dict] = None,
        version: int = 1,
        reserve: Optional[bool] = None,
    ) -> StoredRecord:
        """Re-materialize a record from durable state.

        The confidentiality index, the columnar spine and the telemetry
        queue are all fed exactly as a live insert would — only the
        backend logging is skipped (the op is already durable).

        ``reserve`` selects the allocator effect: ``True`` replays a
        pinned (externally assigned) id via :meth:`IdAllocator.reserve`,
        ``False`` replays a locally allocated id via
        :meth:`IdAllocator.bump_to`, and ``None`` (the snapshot path)
        leaves the allocator alone — its full state is restored
        separately via :meth:`restore_allocator`.
        """
        with self._lock:
            if record_id in self._records:
                raise ValueError(
                    f"{self.name}: record id {record_id} already in use"
                )
            if reserve is True:
                try:
                    self._ids.reserve(record_id)
                except ValueError:
                    # a migrated record came back to a shard that held
                    # it before and reserved its id then; the held check
                    # above is what refuses a replay here
                    pass
            elif reserve is False:
                self._ids.bump_to(record_id)
            stored = StoredRecord(record_id, dict(data), version=version)
            if metadata_state is not None:
                stored.metadata = DQMetadataRecord.from_state(metadata_state)
            self._records[record_id] = stored
            self._confidentiality.index(record_id, stored.metadata)
            self._col_add(stored)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("row", record_id, stored.data, stored.metadata)
                )
            return stored

    def restore_update(
        self, record_id: int, data: dict, version: Optional[int] = None
    ) -> StoredRecord:
        """Replay a durable update op (same publish-fresh-dict path)."""
        with self._lock:
            stored = self._live(record_id)
            old_data = stored.data
            stored.data = {**old_data, **data}
            stored.shareable = _values_shareable(
                data if stored.shareable else stored.data
            )
            stored.version = (
                version if version is not None else stored.version + 1
            )
            self._col_update(record_id, stored, data)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("update", old_data, stored.data)
                )
            return stored

    def restore_metadata(
        self, record_id: int, metadata_state: dict
    ) -> StoredRecord:
        """Replay a durable metadata re-stamp, index included."""
        with self._lock:
            stored = self._live(record_id)
            stored.metadata = DQMetadataRecord.from_state(metadata_state)
            self._confidentiality.index(record_id, stored.metadata)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("meta", record_id, stored.metadata)
                )
            return stored

    def restore_delete(self, record_id: int) -> None:
        """Replay a durable retire op."""
        with self._lock:
            stored = self._live(record_id)
            del self._records[record_id]
            self._confidentiality.unindex(record_id)
            self._col_remove(record_id)
            if self._telemetry is not None:
                self._telemetry_pending.append(
                    ("delete", record_id, stored.data)
                )

    def restore_allocator(self, state: dict) -> None:
        with self._lock:
            self._ids = IdAllocator.from_state(state)

    def allocator_state(self) -> dict:
        with self._lock:
            return self._ids.to_state()

    def high_water_id(self) -> int:
        """The highest record id this store would refuse as a duplicate."""
        with self._lock:
            return self._ids.high_water()

    def dump_state(self) -> dict:
        """This entity's full durable state, one list per column.

        Built from the authoritative records (never the spine), in
        insertion order: ``fields`` (the first record's keys, sorted by
        ``repr`` so keys of any type order: the WAL keeps no key order
        either, so none is state) with one value list per field in
        ``columns``; ``ids`` and ``versions``;
        the four traceability columns; the distinct ``[security_level,
        grants]`` pairs in ``states``, with one index per record in
        ``state_of``; and sparse ``[position, value]`` pairs for the
        records whose keys differ from ``fields`` (``rows``, their
        column cells ``None``) and for non-empty ``extra``.  Every map
        is str-keyed, so a snapshot of plain values stays on the codec's
        fast lane.  :func:`repro.persistence.restore_state` is the
        inverse.
        """
        with self._lock:
            records = list(self._records.values())
            datas = [stored.data for stored in records]
            metas = [stored.metadata for stored in records]
            keys = datas[0].keys() if datas else {}.keys()
            fields = sorted(keys, key=repr)
            ragged = [
                [position, dict(data)]
                for position, data in enumerate(datas)
                if data.keys() != keys
            ]
            if ragged:
                blank = dict.fromkeys(fields)
                for position, _data in ragged:
                    datas[position] = blank
            states: dict[tuple, int] = {}
            state_of = []
            for meta in metas:
                key = (meta.security_level, frozenset(meta.available_to))
                index = states.get(key)
                if index is None:
                    index = states[key] = len(states)
                state_of.append(index)
            return {
                "fields": fields,
                "columns": [
                    list(map(itemgetter(name), datas)) for name in fields
                ],
                "rows": ragged,
                "ids": list(self._records),
                "versions": list(map(_VERSION, records)),
                **{
                    name: list(map(getter, metas))
                    for name, getter in _TRACEABILITY
                },
                "states": [
                    [level, sorted(grants)] for level, grants in states
                ],
                "state_of": state_of,
                "extra": [
                    [position, dict(meta.extra)]
                    for position, meta in enumerate(metas)
                    if meta.extra
                ],
                "allocator": self._ids.to_state(),
            }

    # -- reads -------------------------------------------------------------

    def get(self, record_id: int, deep: bool = False) -> StoredRecord:
        """A defensive snapshot of one record."""
        with self._lock:
            return self._live(record_id).snapshot(
                deep or self.deep_snapshots
            )

    def all(self, deep: bool = False) -> list[StoredRecord]:
        deep = deep or self.deep_snapshots
        with self._lock:
            return [s.snapshot(deep) for s in self._records.values()]

    def query(
        self, predicate: Callable[[dict], bool], deep: bool = False
    ) -> list[StoredRecord]:
        deep = deep or self.deep_snapshots
        with self._lock:
            return [
                s.snapshot(deep)
                for s in self._records.values()
                if predicate(s.data)
            ]

    def find_by(
        self, field_name: str, value, deep: bool = False
    ) -> list[StoredRecord]:
        """Records whose ``field_name`` equals ``value``, in insertion
        order, exactly like :meth:`query` with an equality predicate.

        Answered down the field's column while every record is
        on-layout, by a row scan otherwise.  ``list.index`` compares
        identity before equality (so NaN finds itself), making the
        column's candidate set a superset of the row scan's ``==``
        matches — each hit is re-checked with a real ``==`` so both
        paths stay exactly equivalent.  Only the matching rows are
        materialized as snapshots.
        """
        deep = deep or self.deep_snapshots
        with self._lock:
            records = self._records
            column = self._cols.get(field_name)
            if column is not None and not self._irregular:
                self._sync_zone_maps()
                ids = self._col_ids
                stat = self._col_stats.get(field_name)
                if (
                    stat is not None
                    and type(value) in _NUMERIC_PROBE_KINDS
                    and stat.kinds <= _NUMERIC_ZONE_KINDS
                    and not (
                        stat.zmin is not None
                        and stat.zmin <= value <= stat.zmax
                    )
                ):
                    # Zone-map prune: every value ever admitted was
                    # numeric and the probe falls outside the envelope
                    # (or is NaN), so no live cell can ``==`` it —
                    # answer without touching a single cell.
                    return []
                matched: list[int] = []
                search = column.index
                position = 0
                try:
                    while True:
                        position = search(value, position)
                        rid = ids[position]
                        if rid is not None and column[position] == value:
                            matched.append(rid)
                        position += 1
                except ValueError:
                    pass
                return [records[rid].snapshot(deep) for rid in matched]
            return [
                s.snapshot(deep)
                for s in records.values()
                if s.data.get(field_name) == value
            ]

    def select_snapshots(
        self, predicate: Callable[[StoredRecord], bool], deep: bool = False
    ) -> list[StoredRecord]:
        """Snapshots of the records matching a whole-record predicate.

        Unlike :meth:`query` the predicate sees the full record (metadata
        included), and only the matching records pay the copy cost — this
        is the index-free *oracle* for the confidentiality-filtered read
        path (:meth:`readable_rows` is the indexed equivalent).
        """
        deep = deep or self.deep_snapshots
        with self._lock:
            return [
                s.snapshot(deep) for s in self._records.values()
                if predicate(s)
            ]

    def readable_rows(self, user: str, user_level: int) -> Rows:
        """The records ``(user, user_level)`` may read, as response rows.

        Semantically identical to building ``{"id", "version", **data}``
        from ``select_snapshots(lambda s: s.metadata.accessible_by(user,
        user_level))`` — the property tests hold the two equal, in
        order — but the per-record predicate is replaced by the cached
        readable-id set of the clearance index, and each row is built
        straight from the live record under the entity lock: no
        :class:`StoredRecord` or metadata clone.  A shareable record's
        values are shared (the store never mutates a published dict);
        any other record's data, and every record's under
        ``deep_snapshots``, is deep-copied.  Insertion order is
        preserved.
        """
        with self._lock:
            readable = self._confidentiality.readable_ids(user, user_level)
            records = self._records
            if not readable:
                return Rows()
            if len(readable) == len(records):
                chosen = records.values()
            elif not self._irregular and len(readable) * 4 <= len(records):
                chosen = [
                    records[rid]
                    for rid in sorted(readable, key=self._slots.__getitem__)
                ]
            else:
                chosen = [
                    s for record_id, s in records.items()
                    if record_id in readable
                ]
            deep = self.deep_snapshots
            return Rows([
                {
                    "id": s.record_id,
                    "version": s.version,
                    **(copy.deepcopy(s.data) if deep or not s.shareable
                       else s.data),
                }
                for s in chosen
            ], all(s.shareable for s in chosen))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, record_id: int) -> bool:
        with self._lock:
            return record_id in self._records

    def __repr__(self) -> str:
        return f"<EntityStore {self.name!r} ({len(self)} records)>"


class ContentStore:
    """All entities of one application."""

    def __init__(self, clock: Optional[Clock] = None, backend=None):
        self.clock = clock or Clock()
        self._entities: dict[str, EntityStore] = {}
        self._lock = threading.RLock()
        self._backend = backend

    def define(self, name: str, fields: Sequence[str] = ()) -> EntityStore:
        reject_envelope_fields(f"entity {name!r}", fields)
        with self._lock:
            if name in self._entities:
                raise ValueError(f"entity {name!r} already defined")
            store = EntityStore(name, fields, backend=self._backend)
            self._entities[name] = store
            return store

    def entity(self, name: str) -> EntityStore:
        with self._lock:
            try:
                return self._entities[name]
            except KeyError:
                raise KeyError(f"no entity named {name!r}") from None

    def attach_backend(self, backend) -> None:
        """Swap the durable backend on every entity (failover re-wire)."""
        with self._lock:
            self._backend = backend
            for store in self._entities.values():
                store.attach_backend(backend)

    def has_entity(self, name: str) -> bool:
        with self._lock:
            return name in self._entities

    @property
    def entity_names(self) -> list[str]:
        with self._lock:
            return list(self._entities)

    def set_deep_snapshots(self, enabled: bool) -> None:
        """Force (or release) the deepcopy snapshot path on every entity —
        the benchmark baseline switch."""
        with self._lock:
            for store in self._entities.values():
                store.deep_snapshots = enabled

    def set_telemetry(self, enabled: bool) -> None:
        """Enable or disable streaming DQ telemetry on every entity —
        the write-overhead benchmark baseline switch."""
        with self._lock:
            for store in self._entities.values():
                store.set_telemetry(enabled)

    # -- DQ-aware operations ----------------------------------------------

    def store(
        self,
        entity_name: str,
        data: dict,
        user: str,
        security_level: int = 0,
        available_to: Iterable[str] = (),
        record_id: Optional[int] = None,
    ) -> StoredRecord:
        """Insert with traceability + confidentiality metadata captured."""
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity.insert(
                data,
                record_id=record_id,
                stamp=self._stamp(user, security_level, available_to),
            )
            entity._log_metadata(stored)
            return stored

    def store_many(
        self,
        entity_name: str,
        rows: Sequence[dict],
        user: str,
        security_level: int = 0,
        available_to: Iterable[str] = (),
        record_ids: Optional[Sequence[Optional[int]]] = None,
    ) -> list[StoredRecord]:
        """Insert a validated chunk with metadata captured — the batched
        equivalent of calling :meth:`store` per row (same per-row clock
        ticks and stamps) with one lock trip and **one** telemetry update
        for the whole chunk.
        """
        entity = self.entity(entity_name)
        with entity._lock:
            stored_list = entity.insert_many(
                rows,
                record_ids=record_ids,
                log=False,
                stamp=self._stamp(user, security_level, available_to),
            )
            # one WAL op carries the whole stamped chunk (data + metadata)
            entity.log_rows(
                stored_list, record_ids,
                user=user,
                security_level=security_level,
                available_to=available_to,
            )
            entity.observe_inserted(stored_list)
            return stored_list

    def _stamp(
        self, user: str, security_level: int, available_to: Iterable[str]
    ) -> Callable[[DQMetadataRecord], None]:
        """A new record's metadata stamp: creation provenance on this
        store's clock, then confidentiality."""
        clock = self.clock

        def stamp(metadata: DQMetadataRecord) -> None:
            metadata.record_store(user, clock)
            metadata.restrict(security_level, available_to)

        return stamp

    def modify(
        self, entity_name: str, record_id: int, data: dict, user: str
    ) -> StoredRecord:
        """Update with traceability metadata captured."""
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity.update(record_id, data)
            stored.metadata.record_modification(user, self.clock)
            entity.reindex_metadata(record_id)
            return stored

    def restrict(
        self,
        entity_name: str,
        record_id: int,
        security_level: int = 0,
        available_to: Iterable[str] = (),
    ) -> StoredRecord:
        """Re-stamp a record's confidentiality metadata, index included.

        Confidentiality metadata must change through here (or
        :meth:`store`) so the clearance index never drifts from the
        sidecar.
        """
        entity = self.entity(entity_name)
        with entity._lock:
            stored = entity._live(record_id)
            stored.metadata.restrict(security_level, available_to)
            entity.reindex_metadata(record_id)
            return stored

    def readable_by(
        self, entity_name: str, user: str, user_level: int
    ) -> Rows:
        """Confidentiality-filtered read (the paper's Confidentiality DQR).

        Answers :meth:`EntityStore.readable_rows`: one fresh
        ``{"id", "version", **data}`` row per readable record, built from
        the live records off the per-entity clearance index, carrying
        storage's ``shareable`` verdict.  The full-scan predicate path
        (:meth:`EntityStore.select_snapshots`) remains as the oracle the
        property tests compare against.
        """
        return self.entity(entity_name).readable_rows(user, user_level)

    def total_records(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._entities.values())
