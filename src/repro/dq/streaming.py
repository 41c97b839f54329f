"""Streaming DQ telemetry: mergeable per-field accumulators, O(fields) reads.

The scorecard and profiler rescan every stored record on each evaluation —
O(records) per read, which collapses under the ROADMAP's millions-of-users
target now that writes are batched and validation is compiled.  The DQ
assessment literature the paper builds on (Batini et al. 2009) treats DQ
indicators as *continuously monitored* artifacts, which requires
incremental computation: this module maintains, per entity, a set of
**mergeable streaming accumulators** updated on every store mutation
(create / update / delete / metadata re-stamp) instead of recomputed by
full scan.

What is tracked, per field:

* present / total counts (the Completeness inputs);
* distinct values — exact (hashed counters) until the cardinality passes
  ``spill_threshold``, then an approximate KMV sketch (:class:`KMVSketch`);
* numeric min / max / mean / M2 plus a value→count table that answers
  bounds queries (the Precision inputs) exactly while unspilled;
* pattern-match tallies against the profiler's ``KNOWN_PATTERNS`` (exact
  even after a spill: tallies are running counters, not re-derived);
* and per entity: security-level and provenance counts (Confidentiality,
  Traceability) and a last-modified-timestamp table with running sum/min
  (Currentness in O(1) on the fresh path).

Equivalence contract (pinned by tests and ``cluster-bench
--dqtelemetry``): every live reading matches the full-rescan oracle —
exactly for the integer-ratio lines (Precision, Traceability,
Confidentiality) and all profiler suggestions, and to float tolerance
(``math.isclose``, the two sides sum in different orders) for
Completeness and Currentness.  Two documented degradations: a *spilled*
field answers ``distinct`` approximately and loses its bounds table (the
live Precision path falls back to the rescan oracle), and live
suggestion field *order* assumes records share a consistent key order
(the form-bound case; arbitrary dict-key interleavings may order the
Completeness suggestion differently after deletes).

Lock discipline: accumulators are owned by
:class:`~repro.runtime.storage.EntityStore` and mutated only under the
existing per-entity re-entrant lock, like the confidentiality index.
Reads either copy under the lock (``telemetry_snapshot``) or compute
under it (``measure_telemetry``); cross-shard merges combine per-shard
snapshots, so a merged view is per-shard consistent (the same contract
scatter-gather listings offer).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from hashlib import blake2b
from operator import attrgetter, itemgetter, mul
from typing import Iterable, Mapping, Optional, Sequence

from .metrics import compiled_pattern
from .profiling import (
    ENUM_MAX_CARDINALITY,
    ENUM_MIN_SUPPORT,
    KNOWN_PATTERNS,
    Suggestion,
    suggest_from_profiles,
)

#: Exact distinct tracking hands over to the KMV sketch past this many
#: distinct values per field (bounds the accumulator's memory at
#: O(spill_threshold) per field no matter how many records stream in).
#: 4096 keeps typical free-text fields (comments, review bodies) on the
#: exact branch — which also skips per-value hashing entirely — at a
#: worst case of a few hundred KB per field; the memo keys are
#: references to strings the store already holds, not copies.
DEFAULT_SPILL_THRESHOLD = 4096

#: KMV sketch size: relative error ~1/sqrt(k) ≈ 6% at 256.
DEFAULT_SKETCH_SIZE = 256

#: After a spill the value→count tables are gone, so every repeat
#: string would pay ``repr`` + blake2b + regex again; a capped
#: value→(hash, pattern-mask) cache keeps the frequent repeats off
#: that path while staying O(1)-bounded like the spill itself.  Pure
#: cache: hashes are deterministic, so hits and misses produce
#: identical accumulator state.
_HASH_MEMO_LIMIT = 4096

_HASH_SPACE = float(2 ** 64)

#: Chunks shorter than this take the scalar fold: on them the sort and
#: per-pair sums of :func:`int_column_summary` cost more than they save.
_MIN_SUMMARY_CHUNK = 16

#: Every float partial sum over integers stays exactly representable
#: while its magnitude is bounded by this (see
#: ``FieldAccumulator._add_int_summary``).
_EXACT_FLOAT_INT = 2 ** 53

_PATTERN_COUNT = len(KNOWN_PATTERNS)
_COMPILED_PATTERNS = tuple(
    compiled_pattern(pattern) for _, pattern in KNOWN_PATTERNS
)


def _hash64(key: str, _blake2b=blake2b, _from_bytes=int.from_bytes) -> int:
    """A deterministic (unsalted) 64-bit hash, stable across processes.

    The strict default encoder is the fast path (identical bytes for
    every valid string); only a lone surrogate pays the permissive
    re-encode, so both spellings hash equal keys equally.
    """
    try:
        raw = key.encode()
    except UnicodeEncodeError:
        raw = key.encode("utf-8", "surrogatepass")
    return _from_bytes(_blake2b(raw, digest_size=8).digest(), "big")


def census_hint(kinds) -> Optional[str]:
    """The :meth:`FieldAccumulator.add_column` hint a type census
    proves: ``"str"`` or ``"int"`` when every cell is exactly that
    type, ``None`` otherwise."""
    if kinds == {str}:
        return "str"
    if kinds == {int}:
        return "int"
    return None


def int_column_summary(tally: Counter, count: int) -> Optional[tuple]:
    """The census of an all-``int`` chunk of ``count`` cells from its
    distinct table: ``(lowest, highest, magnitude, total, sumsq,
    pairs)``, with exact Python-int ``total``/``sumsq`` and the
    ``(value, count)`` pairs in sorted-value order (dict equality is
    order-free, and the one order-sensitive event — a mid-chunk spill —
    replays the per-value oracle anyway).

    ``None`` for a short chunk, or unless the support is narrow
    (scores, flags, enums — at most ``count / 8`` distinct values): on
    a wide support the per-pair Python math would cost more than the
    C-level sums over the cells.
    """
    if count < _MIN_SUMMARY_CHUNK or len(tally) * 8 > count:
        return None
    pairs = sorted(tally.items())
    lowest = pairs[0][0]
    highest = pairs[-1][0]
    return (
        lowest,
        highest,
        max(-lowest, highest, 1),
        sum(value * times for value, times in pairs),
        sum(value * value * times for value, times in pairs),
        pairs,
    )


class KMVSketch:
    """K-minimum-values distinct-count estimator.

    Keeps the ``k`` smallest 64-bit hashes seen; with ``m > k`` distinct
    inputs the k-th smallest hash sits near ``k / m`` of the hash space,
    so ``(k - 1) / kth_smallest`` estimates ``m``.  Merging is the union
    of the kept hashes re-trimmed to ``k`` — order-insensitive and
    idempotent, the property the cluster merge relies on.  Deletions are
    not reflected: after a spill ``distinct`` is an upper-bound estimate.
    """

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int = DEFAULT_SKETCH_SIZE):
        if k < 16:
            raise ValueError("sketch size must be >= 16")
        self.k = k
        self._heap: list[int] = []      # max-heap via negation
        self._members: set[int] = set()

    def add(self, key: str) -> None:
        self.add_hash(_hash64(key))

    def add_keys(self, keys) -> None:
        """Bulk :meth:`add`: hash and fold a whole batch with the loop
        overheads hoisted.  State-identical to adding the keys one by
        one (the saturated reject stays the first test, so a hot
        saturated sketch pays one hash and one compare per key)."""
        heap = self._heap
        members = self._members
        k = self.k
        h64 = _hash64
        push = heapq.heappush
        replace = heapq.heapreplace
        saturated = len(heap) >= k
        largest = -heap[0] if saturated else None
        for key in keys:
            value = h64(key)
            if saturated:
                if value >= largest or value in members:
                    continue
                members.add(value)
                members.discard(largest)
                replace(heap, -value)
                largest = -heap[0]
            elif value not in members:
                members.add(value)
                push(heap, -value)
                if len(heap) >= k:
                    saturated = True
                    largest = -heap[0]

    def add_hashes(self, values) -> None:
        """Bulk :meth:`add_hash`: fold pre-computed hashes with the
        loop overheads hoisted, state-identical to one-by-one adds."""
        heap = self._heap
        members = self._members
        k = self.k
        push = heapq.heappush
        replace = heapq.heapreplace
        saturated = len(heap) >= k
        largest = -heap[0] if saturated else None
        for value in values:
            if saturated:
                if value >= largest or value in members:
                    continue
                members.add(value)
                members.discard(largest)
                replace(heap, -value)
                largest = -heap[0]
            elif value not in members:
                members.add(value)
                push(heap, -value)
                if len(heap) >= k:
                    saturated = True
                    largest = -heap[0]

    def add_hash(self, value: int) -> None:
        heap = self._heap
        if len(heap) >= self.k:
            # saturated: a hash at or above the kept maximum can neither
            # enter nor change state (kept hashes are all <= largest, so
            # a duplicate lands here too) — reject on one compare
            largest = -heap[0]
            if value >= largest:
                return
            members = self._members
            if value in members:
                return
            members.add(value)
            members.discard(largest)
            heapq.heapreplace(heap, -value)
            return
        members = self._members
        if value in members:
            return
        members.add(value)
        heapq.heappush(heap, -value)

    def estimate(self) -> int:
        if len(self._heap) < self.k:
            return len(self._heap)
        kth = -self._heap[0]  # the k-th smallest hash kept
        if kth == 0:
            return len(self._heap)
        return int(round((self.k - 1) * _HASH_SPACE / kth))

    def merge(self, other: "KMVSketch") -> None:
        for value in other._members:
            self.add_hash(value)

    def copy(self) -> "KMVSketch":
        clone = KMVSketch(self.k)
        clone._heap = list(self._heap)
        clone._members = set(self._members)
        return clone


_PATTERN_ENUMERATED = tuple(enumerate(_COMPILED_PATTERNS))
#: Every pattern-index tuple a mask can be, by bitset, built once: the
#: string table's ``(count, mask)`` entries then hold only untracked
#: objects, so the collector untracks each entry on its first pass.
_MASKS = tuple(
    tuple(index for index in range(_PATTERN_COUNT) if bits >> index & 1)
    for bits in range(1 << _PATTERN_COUNT)
)


def _pattern_mask(value: str) -> tuple[int, ...]:
    """Indexes of the known patterns ``value`` fully matches.

    No known pattern admits a space (email forbids ``\\s``, the other
    two are strict character classes), so free-text values skip the
    regex engine entirely.
    """
    if " " in value:
        return ()
    bits = 0
    for index, compiled in _PATTERN_ENUMERATED:
        if compiled.fullmatch(value):
            bits |= 1 << index
    return _MASKS[bits]


class FieldAccumulator:
    """Streaming statistics of one field — the live :class:`FieldProfile`.

    Exposes the same read protocol (``completeness``, ``distinct``,
    ``is_numeric``, ``numeric_range()``, ``matched_pattern()``,
    ``looks_like_enum()``, ``value_domain()``, …) so the suggestion
    heuristics run unchanged over either representation.  ``add`` /
    ``remove`` mirror one record gaining / losing the field; callers
    (the entity store) serialize them under the entity lock.
    """

    __slots__ = (
        "name", "total", "missing", "spilled", "spill_threshold",
        "_other_counts", "_sketch",
        "_numeric_counts", "_num_n", "_num_sum", "_num_sumsq",
        "_num_min", "_num_max",
        "_string_count", "_strings", "_pattern_counts",
        "_hash_memo",
    )

    def __init__(
        self, name: str, spill_threshold: int = DEFAULT_SPILL_THRESHOLD
    ):
        self.name = name
        self.total = 0
        self.missing = 0
        self.spilled = False
        self.spill_threshold = spill_threshold
        # distinct tracking: strings live in the ``_strings`` memo keyed
        # raw (their repr is injective and never collides with another
        # type's repr); exact ``int``s are keyed by themselves (repr is
        # injective on ints and an int key never equals a string key);
        # everything else is keyed by repr — together exactly the
        # oracle's |{repr(v)}|.
        self._other_counts: dict = {}
        self._sketch: Optional[KMVSketch] = None
        # numeric: value→count answers bounds queries exactly; the
        # running sums answer mean/M2 and survive the spill.
        self._numeric_counts: dict = {}
        self._num_n = 0
        self._num_sum = 0.0
        self._num_sumsq = 0.0
        self._num_min: Optional[float] = None
        self._num_max: Optional[float] = None
        # strings: value→(count, pattern-index-tuple) memo doubles as
        # the distinct-string table and keeps repeat strings off the
        # regex path; the tallies are running counters.  Entries are
        # immutable, so the collector stops tracking them.
        self._string_count = 0
        self._strings: Optional[dict[str, tuple]] = {}
        self._pattern_counts = [0] * _PATTERN_COUNT
        # post-spill str → (hash64-of-repr, pattern mask) cache; only
        # exact-``str`` paths consult it (a str subclass may repr
        # differently than the equal base string it would collide with)
        self._hash_memo: dict[str, tuple] = {}

    # -- writes (entity lock held) ---------------------------------------

    def add(self, value) -> None:
        # Hot path: exact ``str`` and ``int`` are dispatched on concrete
        # type (no repr, no isinstance chain, spill check only when a
        # new key appears); everything else takes ``_add_other``.
        self.total += 1
        kind = type(value)
        if kind is str:
            if not value or value.isspace():  # == not value.strip()
                self.missing += 1
                return
            self._string_count += 1
            strings = self._strings
            if strings is not None:
                entry = strings.get(value)
                if entry is not None:
                    mask = entry[1]
                    strings[value] = (entry[0] + 1, mask)
                else:
                    mask = _pattern_mask(value)
                    strings[value] = (1, mask)
                    if (
                        len(strings) + len(self._other_counts)
                        > self.spill_threshold
                    ):
                        self._spill()
            else:
                memo = self._hash_memo
                entry = memo.get(value)
                if entry is None:
                    mask = _pattern_mask(value)
                    digest = _hash64(repr(value))
                    if len(memo) < _HASH_MEMO_LIMIT:
                        memo[value] = (digest, mask)
                else:
                    digest, mask = entry
                self._sketch.add_hash(digest)
            if mask:
                tallies = self._pattern_counts
                for index in mask:
                    tallies[index] += 1
            return
        if kind is int:
            self._num_n += 1
            self._num_sum += value
            self._num_sumsq += value * value
            if self._num_min is None or value < self._num_min:
                self._num_min = value
            if self._num_max is None or value > self._num_max:
                self._num_max = value
            if self.spilled:
                self._sketch.add(repr(value))
                return
            counts = self._other_counts
            seen = counts.get(value)
            if seen is None:
                counts[value] = 1
                if len(counts) + len(self._strings) > self.spill_threshold:
                    self._spill()  # bounds table dropped with the rest
                    return
            else:
                counts[value] = seen + 1
            numeric = self._numeric_counts
            numeric[value] = numeric.get(value, 0) + 1
            return
        self._add_other(value)

    def _add_other(self, value) -> None:
        """``add`` for everything off the str/int fast path (``total``
        already counted): None, bools, floats, str subclasses, objects."""
        if value is None:
            self.missing += 1
            return
        if isinstance(value, str):  # str subclass: the string path
            if not value.strip():
                self.missing += 1
                return
            self._string_count += 1
            strings = self._strings
            if strings is None:
                mask = _pattern_mask(value)
                self._sketch.add(repr(value))
            else:
                entry = strings.get(value)
                if entry is None:
                    mask = _pattern_mask(value)
                    strings[value] = (1, mask)
                    if (
                        len(strings) + len(self._other_counts)
                        > self.spill_threshold
                    ):
                        self._spill()
                else:
                    mask = entry[1]
                    strings[value] = (entry[0] + 1, mask)
            if mask:
                tallies = self._pattern_counts
                for index in mask:
                    tallies[index] += 1
            return
        key = repr(value)
        if self.spilled:
            self._sketch.add(key)
        else:
            counts = self._other_counts
            counts[key] = counts.get(key, 0) + 1
            if len(counts) + len(self._strings) > self.spill_threshold:
                self._spill()
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._num_n += 1
            self._num_sum += value
            self._num_sumsq += value * value
            if self._num_min is None or value < self._num_min:
                self._num_min = value
            if self._num_max is None or value > self._num_max:
                self._num_max = value
            if not self.spilled:
                numeric = self._numeric_counts
                numeric[value] = numeric.get(value, 0) + 1

    def add_column(self, values: Sequence, hint=None) -> None:
        """Absorb one column chunk — semantically ``for v in values:
        self.add(v)``, with the per-value dispatch hoisted to the chunk.

        Type-homogeneous chunks (the form path's common case: a bound
        column is all-``str`` or all-``int``) take specialized loops —
        attribute loads hoisted into locals, the running numeric sums
        folded with C-level ``sum``/``min``/``max`` in the exact same
        left-to-right addition order ``add`` would use, spill handled
        mid-column.  Mixed chunks fall back to per-value :meth:`add`.
        The per-value path stays the equivalence oracle (the property
        suite pins both to identical accumulator state).  ``hint`` is
        capture-side census evidence (:func:`census_hint` of the spine's
        zone map, which saw every cell it ever admitted) that skips the
        type walk.
        """
        if not values:
            return
        if hint is None:
            hint = census_hint(set(map(type, values)))
        if hint == "str":
            self.total += len(values)
            self._add_str_column(values)
        elif hint == "int":
            self.total += len(values)
            self._add_int_column(values)
        else:
            add = self.add
            for value in values:
                add(value)

    def _add_str_column(self, values: Sequence) -> None:
        # Pre-aggregate the chunk with ``Counter`` (one C pass) and walk
        # *distinct* values: the missing test, pattern mask and memo
        # lookup run once per distinct string instead of once per cell.
        # Exactness: ``Counter`` preserves first-encounter order (dict
        # semantics), so new memo keys are inserted in the same order
        # the per-value loop would insert them; pattern tallies and the
        # missing counter receive the same totals; and the KMV sketch is
        # idempotent per key, so collapsing duplicates cannot change it.
        # The one order-sensitive event is a spill *mid-column* — its
        # trigger point and sketch hand-off depend on arrival order —
        # so a chunk that would cross the threshold replays the exact
        # per-value oracle instead.
        tally = Counter(values)
        missing = 0
        string_count = 0
        tallies = self._pattern_counts
        strings = self._strings
        if strings is not None:
            additions = 0
            for value in tally:
                if value not in strings and value and not value.isspace():
                    additions += 1
            if (
                len(strings) + additions + len(self._other_counts)
                > self.spill_threshold
            ):
                self._add_str_column_slow(values)
                return
            for value, count in tally.items():
                if not value or value.isspace():
                    missing += count
                    continue
                entry = strings.get(value)
                if entry is not None:
                    mask = entry[1]
                    strings[value] = (entry[0] + count, mask)
                else:
                    mask = _pattern_mask(value)
                    strings[value] = (count, mask)
                if mask:
                    for index in mask:
                        tallies[index] += count
            string_count = len(values) - missing
        else:
            # spilled: one hash per *distinct* string, memo hits paying
            # neither repr, blake2b nor the regex.  The inlined
            # ``_pattern_mask`` space pre-test keeps free-text misses
            # off the regex (no known pattern admits a space).
            memo = self._hash_memo
            digests: list[int] = []
            keep = digests.append
            for value, count in tally.items():
                if not value or value.isspace():
                    missing += count
                    continue
                entry = memo.get(value)
                if entry is None:
                    mask = (
                        _pattern_mask(value) if " " not in value else ()
                    )
                    digest = _hash64(repr(value))
                    if len(memo) < _HASH_MEMO_LIMIT:
                        memo[value] = (digest, mask)
                else:
                    digest, mask = entry
                keep(digest)
                if mask:
                    for index in mask:
                        tallies[index] += count
            if digests:
                self._sketch.add_hashes(digests)
            # tally counts partition the chunk: present = all - missing
            string_count = len(values) - missing
        self.missing += missing
        self._string_count += string_count

    def _add_str_column_slow(self, values: Sequence) -> None:
        """The exact per-value walk, kept for chunks that spill
        mid-column (the spill point is arrival-order-sensitive)."""
        missing = 0
        string_count = 0
        tallies = self._pattern_counts
        threshold = self.spill_threshold
        strings = self._strings
        other_len = len(self._other_counts)
        sketch = self._sketch
        for value in values:
            if not value or value.isspace():
                missing += 1
                continue
            string_count += 1
            if strings is not None:
                entry = strings.get(value)
                if entry is not None:
                    mask = entry[1]
                    strings[value] = (entry[0] + 1, mask)
                else:
                    mask = _pattern_mask(value)
                    strings[value] = (1, mask)
                    if len(strings) + other_len > threshold:
                        self._spill()
                        strings = None
                        sketch = self._sketch
            else:
                memo = self._hash_memo
                entry = memo.get(value)
                if entry is None:
                    mask = _pattern_mask(value)
                    digest = _hash64(repr(value))
                    if len(memo) < _HASH_MEMO_LIMIT:
                        memo[value] = (digest, mask)
                else:
                    digest, mask = entry
                sketch.add_hash(digest)
            if mask:
                for index in mask:
                    tallies[index] += 1
        self.missing += missing
        self._string_count += string_count

    def _add_int_column(self, values: Sequence) -> None:
        # ``sum(values, start)`` performs the same left-to-right float
        # additions the per-value loop would, so the running sum stays
        # bit-identical to the oracle's — and ``sum(map(mul, v, v))``
        # adds the same squares in the same order for the sumsq.  The
        # bounds come off the tally's key set (the minimum over the
        # support IS the minimum over the multiset, exactly) so the
        # chunk pays two tiny passes instead of two full ones.
        tally = Counter(values)
        summary = int_column_summary(tally, len(values))
        if summary is not None and self._add_int_summary(values, summary):
            return
        self._num_n += len(values)
        self._num_sum = sum(values, self._num_sum)
        lowest = min(tally)
        highest = max(tally)
        if self._num_min is None or lowest < self._num_min:
            self._num_min = lowest
        if self._num_max is None or highest > self._num_max:
            self._num_max = highest
        self._num_sumsq = sum(map(mul, values, values), self._num_sumsq)
        if self.spilled:
            # sketch adds are idempotent per key: hash each distinct once
            self._sketch.add_hashes(
                [_hash64(repr(value)) for value in tally]
            )
            return
        counts = self._other_counts
        additions = 0
        for value in tally:
            if value not in counts:
                additions += 1
        if (
            len(counts) + additions + len(self._strings)
            > self.spill_threshold
        ):
            self._int_table_slow(values)
            return
        numeric = self._numeric_counts
        for value, count in tally.items():
            seen = counts.get(value)
            counts[value] = count if seen is None else seen + count
            numeric[value] = numeric.get(value, 0) + count

    def _add_int_summary(self, values: Sequence, summary: tuple) -> bool:
        """Fold an all-int census (:func:`int_column_summary`) into the
        numeric state, **iff** the result is provably bit-identical to
        the sequential fold; ``False`` sends the caller down the exact
        scalar path.

        Exactness argument: when the running sum is an ``int``, integer
        addition is associative, so ``current + total`` equals the
        left-to-right fold for any order.  When it is a ``float``, the
        fold is exact (hence order-free) as long as every partial sum
        is an integer-valued float within ±2**53 — guaranteed when the
        running value is integer-valued and ``abs(current) + n *
        magnitude`` stays under that bound.  Anything else falls back.
        """
        lowest, highest, magnitude, total, sumsq, pairs = summary
        count = len(values)
        current = self._num_sum
        if type(current) is not int and (
            type(current) is not float
            or not current.is_integer()
            or abs(current) + count * magnitude > _EXACT_FLOAT_INT
        ):
            return False
        current_sq = self._num_sumsq
        if type(current_sq) is not int and (
            type(current_sq) is not float
            or not current_sq.is_integer()
            or abs(current_sq) + count * magnitude * magnitude
            > _EXACT_FLOAT_INT
        ):
            return False
        self._num_n += count
        self._num_sum = current + total
        self._num_sumsq = current_sq + sumsq
        if self._num_min is None or lowest < self._num_min:
            self._num_min = lowest
        if self._num_max is None or highest > self._num_max:
            self._num_max = highest
        if self.spilled:
            # distinct values straight into the sketch — final KMV
            # state is order-insensitive (min-k of the same hash set)
            add_hash = self._sketch.add_hash
            h64 = _hash64
            for value, _ in pairs:
                add_hash(h64(repr(value)))
            return True
        counts = self._other_counts
        additions = 0
        for value, _ in pairs:
            if value not in counts:
                additions += 1
        if (
            len(counts) + additions + len(self._strings)
            > self.spill_threshold
        ):
            # numeric sums/min/max are already folded — exactly like
            # the scalar path — and the order-sensitive mid-chunk spill
            # replays the per-value oracle over the original sequence
            self._int_table_slow(values)
            return True
        numeric = self._numeric_counts
        for value, count in pairs:
            seen = counts.get(value)
            counts[value] = count if seen is None else seen + count
            numeric[value] = numeric.get(value, 0) + count
        return True

    def _int_table_slow(self, values: Sequence) -> None:
        """Exact per-value distinct-table walk for a chunk that spills
        mid-column (numeric sums/min/max were already folded): the
        triggering value enters the sketch via ``_spill`` and — like
        ``add`` — skips the bounds table; the remainder is sketch-only.
        """
        counts = self._other_counts
        numeric = self._numeric_counts
        strings_len = len(self._strings)
        threshold = self.spill_threshold
        for position, value in enumerate(values):
            seen = counts.get(value)
            if seen is None:
                counts[value] = 1
                if len(counts) + strings_len > threshold:
                    self._spill()
                    sketch_add = self._sketch.add
                    for rest in values[position + 1:]:
                        sketch_add(repr(rest))
                    return
            else:
                counts[value] = seen + 1
            numeric[value] = numeric.get(value, 0) + 1

    def remove(self, value) -> None:
        self.total -= 1
        kind = type(value)
        if kind is str:
            if not value or value.isspace():
                self.missing -= 1
                return
            self._remove_text(value)
            return
        if kind is int:
            if not self.spilled:
                counts = self._other_counts
                remaining = counts.get(value, 0) - 1
                if remaining > 0:
                    counts[value] = remaining
                else:
                    counts.pop(value, None)
            self._remove_numeric(value)
            return
        if value is None:
            self.missing -= 1
            return
        if isinstance(value, str):  # str subclass
            if not value.strip():
                self.missing -= 1
            else:
                self._remove_text(value)
            return
        if not self.spilled:
            counts = self._other_counts
            key = repr(value)
            remaining = counts.get(key, 0) - 1
            if remaining > 0:
                counts[key] = remaining
            else:
                counts.pop(key, None)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._remove_numeric(value)

    def _remove_text(self, value: str) -> None:
        """Drop one non-missing string occurrence (``total``/``missing``
        already adjusted by :meth:`remove`)."""
        self._string_count -= 1
        strings = self._strings
        if strings is None:
            mask = _pattern_mask(value)
        else:
            entry = strings.get(value)
            if entry is None:  # pragma: no cover - unseen removal
                mask = _pattern_mask(value)
            else:
                count, mask = entry
                if count > 1:
                    strings[value] = (count - 1, mask)
                else:
                    del strings[value]
        if mask:
            tallies = self._pattern_counts
            for index in mask:
                tallies[index] -= 1

    def _remove_numeric(self, value) -> None:
        self._num_n -= 1
        self._num_sum -= value
        self._num_sumsq -= value * value
        if self._num_n == 0:
            self._num_sum = 0.0
            self._num_sumsq = 0.0
        if not self.spilled:
            numeric = self._numeric_counts
            remaining = numeric.get(value, 0) - 1
            if remaining > 0:
                numeric[value] = remaining
            else:
                numeric.pop(value, None)
                if value == self._num_min or value == self._num_max:
                    self._refresh_extremes()
        # spilled: min/max stay monotone (deletes not reflected)

    def _refresh_extremes(self) -> None:
        if self._numeric_counts:
            self._num_min = min(self._numeric_counts)
            self._num_max = max(self._numeric_counts)
        else:
            self._num_min = None
            self._num_max = None

    def _spill(self) -> None:
        """Hand exact distinct tracking over to the sketch.

        The value→count tables are dropped (that is the point: memory
        stays O(threshold)); the running numeric sums, min/max and
        pattern tallies survive, so only ``distinct`` turns approximate
        and the bounds table / value domain become unavailable.
        """
        sketch = KMVSketch()
        # hashing the memoized strings anyway: seed the post-spill
        # hash/mask cache with them (they are the hot repeats by
        # construction — they arrived before the spill)
        memo = self._hash_memo
        add_hash = sketch.add_hash
        for value, (count, mask) in self._strings.items():
            digest = _hash64(repr(value))
            if len(memo) < _HASH_MEMO_LIMIT:
                memo[value] = (digest, mask)
            add_hash(digest)
        sketch.add_keys([
            key if type(key) is str else repr(key)
            for key in self._other_counts
        ])
        self._sketch = sketch
        self.spilled = True
        self._other_counts = {}
        self._numeric_counts = {}
        self._strings = None

    # -- the FieldProfile read protocol ----------------------------------

    @property
    def present(self) -> int:
        return self.total - self.missing

    @property
    def completeness(self) -> float:
        if self.total == 0:
            return 1.0
        return self.present / self.total

    @property
    def distinct(self) -> int:
        if self.spilled:
            return self._sketch.estimate()
        return len(self._strings) + len(self._other_counts)

    @property
    def is_numeric(self) -> bool:
        return self.present > 0 and self._num_n == self.present

    def numeric_range(self) -> Optional[tuple[float, float]]:
        if self._num_n == 0:
            return None
        return (self._num_min, self._num_max)

    @property
    def is_textual(self) -> bool:
        return self.present > 0 and self._string_count == self.present

    def matched_pattern(self) -> Optional[tuple[str, str]]:
        """The first known pattern every present value matches — running
        tallies make this exact even after a spill."""
        if self._string_count == 0 or self._string_count != self.present:
            return None
        tallies = self._pattern_counts
        for index, (label, pattern) in enumerate(KNOWN_PATTERNS):
            if tallies[index] == self._string_count:
                return (label, pattern)
        return None

    def looks_like_enum(self) -> bool:
        if self.spilled:  # >= threshold distinct values: never enum-like
            return False
        if not self.is_textual or self.present == 0:
            return False
        distinct = self.distinct
        if distinct > ENUM_MAX_CARDINALITY or distinct < 2:
            return False
        return self.present / distinct >= ENUM_MIN_SUPPORT

    def value_domain(self) -> list[str]:
        if self._strings is None:
            return []  # spilled: the domain table was dropped
        return sorted(self._strings)

    def has_duplicates(self) -> bool:
        return self.distinct < self.present

    # -- beyond the profile protocol -------------------------------------

    @property
    def mean(self) -> Optional[float]:
        if self._num_n == 0:
            return None
        return self._num_sum / self._num_n

    @property
    def m2(self) -> float:
        """Sum of squared deviations from the mean (Welford's M2)."""
        if self._num_n == 0:
            return 0.0
        m2 = self._num_sumsq - (self._num_sum * self._num_sum) / self._num_n
        return max(0.0, m2)

    @property
    def variance(self) -> float:
        return self.m2 / self._num_n if self._num_n else 0.0

    def count_in_bounds(self, lower, upper) -> Optional[int]:
        """How many present values satisfy ``lower <= v <= upper`` —
        exact while unspilled, ``None`` after (caller must fall back)."""
        if self.spilled:
            return None
        return sum(
            count for value, count in self._numeric_counts.items()
            if lower <= value <= upper
        )

    # -- lifecycle --------------------------------------------------------

    def merge(self, other: "FieldAccumulator") -> None:
        self.total += other.total
        self.missing += other.missing
        self._num_n += other._num_n
        self._num_sum += other._num_sum
        self._num_sumsq += other._num_sumsq
        if other._num_min is not None and (
            self._num_min is None or other._num_min < self._num_min
        ):
            self._num_min = other._num_min
        if other._num_max is not None and (
            self._num_max is None or other._num_max > self._num_max
        ):
            self._num_max = other._num_max
        self._string_count += other._string_count
        for index in range(_PATTERN_COUNT):
            self._pattern_counts[index] += other._pattern_counts[index]
        if self.spilled or other.spilled:
            if not self.spilled:
                self._spill()
            if other.spilled:
                self._sketch.merge(other._sketch)
            else:
                sketch = self._sketch
                for value in other._strings:
                    sketch.add(repr(value))
                for key in other._other_counts:
                    sketch.add(key if type(key) is str else repr(key))
            return
        for key, count in other._other_counts.items():
            self._other_counts[key] = self._other_counts.get(key, 0) + count
        for value, count in other._numeric_counts.items():
            self._numeric_counts[value] = (
                self._numeric_counts.get(value, 0) + count
            )
        for value, (count, mask) in other._strings.items():
            entry = self._strings.get(value)
            self._strings[value] = (
                (count, mask) if entry is None else (entry[0] + count, mask)
            )
        if (
            len(self._strings) + len(self._other_counts)
            > self.spill_threshold
        ):
            self._spill()

    def copy(self) -> "FieldAccumulator":
        clone = FieldAccumulator(self.name, self.spill_threshold)
        clone.total = self.total
        clone.missing = self.missing
        clone.spilled = self.spilled
        clone._other_counts = dict(self._other_counts)
        clone._sketch = self._sketch.copy() if self._sketch else None
        clone._numeric_counts = dict(self._numeric_counts)
        clone._num_n = self._num_n
        clone._num_sum = self._num_sum
        clone._num_sumsq = self._num_sumsq
        clone._num_min = self._num_min
        clone._num_max = self._num_max
        clone._string_count = self._string_count
        clone._strings = (
            dict(self._strings) if self._strings is not None else None
        )
        clone._pattern_counts = list(self._pattern_counts)
        clone._hash_memo = dict(self._hash_memo)
        return clone

    def __repr__(self) -> str:
        return (
            f"<FieldAccumulator {self.name!r} {self.present}/{self.total} "
            f"present, {self.distinct} distinct"
            f"{' (spilled)' if self.spilled else ''}>"
        )


class EntityAccumulator:
    """All streaming telemetry of one entity, updated per mutation.

    Field accumulators mirror :class:`~repro.dq.profiling.DataProfiler`
    semantics (a field's ``total`` counts the records carrying the key);
    the metadata side tracks the scorecard inputs — provenance count,
    security-level counts, and the last-modified-timestamp table with a
    running sum and minimum so the common all-fresh Currentness read is
    O(1).  ``_meta_state`` remembers each record's last observed metadata
    so re-stamps apply as deltas (and is the one O(records) structure —
    small constants, the same trade the confidentiality index makes).
    """

    def __init__(
        self,
        entity: str,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
    ):
        self.entity = entity
        self.spill_threshold = spill_threshold
        self.records = 0
        self.updates = 0  # observe calls absorbed (telemetry_stats)
        self._fields: dict[str, FieldAccumulator] = {}
        # Counters (not plain dicts) so the batched metadata register
        # folds a whole chunk with one C-level ``update`` per table
        self._levels: Counter = Counter()
        self._traced = 0
        self._timestamps: Counter = Counter()
        self._ts_sum = 0
        self._ts_count = 0
        self._ts_min: Optional[int] = None
        self._meta_state: dict[int, tuple] = {}

    # -- mutation observers (entity lock held) ---------------------------

    def _field(self, name: str) -> FieldAccumulator:
        accumulator = self._fields.get(name)
        if accumulator is None:
            accumulator = FieldAccumulator(name, self.spill_threshold)
            self._fields[name] = accumulator
        return accumulator

    def observe_row(self, record_id: int, data: Mapping, metadata) -> None:
        """One record entered the store (``data`` is the published dict
        captured at mutation time; ``metadata`` may still be stamped
        later — :meth:`observe_metadata` applies the delta)."""
        self.updates += 1
        self.records += 1
        fields = self._fields
        for name, value in data.items():
            accumulator = fields.get(name)
            if accumulator is None:
                accumulator = self._field(name)
            accumulator.add(value)
        self._register_metadata(record_id, metadata)

    def observe_insert(self, stored) -> None:
        self.observe_row(stored.record_id, stored.data, stored.metadata)

    def observe_rows(self, rows: Iterable[tuple]) -> None:
        """A whole already-stamped chunk of ``(record_id, data,
        metadata)`` triples in one call — the batched write path's single
        telemetry update per chunk (loop overheads hoisted, one
        ``updates`` tick per chunk)."""
        self.updates += 1
        fields = self._fields
        new_field = self._field
        register = self._register_metadata
        count = 0
        for record_id, data, metadata in rows:
            count += 1
            for name, value in data.items():
                accumulator = fields.get(name)
                if accumulator is None:
                    accumulator = new_field(name)
                accumulator.add(value)
            register(record_id, metadata)
        self.records += count

    def observe_columns(
        self,
        fields: Sequence[str],
        columns: Sequence[Sequence],
        rows_meta: Sequence[tuple],
        hints: Optional[Sequence] = None,
    ) -> None:
        """A whole already-stamped chunk, transposed: ``columns[i]``
        holds every record's value for ``fields[i]`` and ``rows_meta``
        the ``(record_id, metadata)`` pairs.  One ``updates`` tick and
        one bulk :meth:`FieldAccumulator.add_column` per field —
        equivalent to :meth:`observe_rows` over the same chunk (field
        accumulators are independent, so absorbing a field's values
        contiguously instead of row-interleaved reaches the same state).
        ``hints``, when given, is layout-aligned census evidence from
        the capture side (:func:`census_hint`).
        """
        self.updates += 1
        accumulators = self._fields
        new_field = self._field
        if hints is None:
            hints = (None,) * len(fields)
        for name, column, hint in zip(fields, columns, hints):
            accumulator = accumulators.get(name)
            if accumulator is None:
                accumulator = new_field(name)
            accumulator.add_column(column, hint)
        self._register_metadata_many(rows_meta)
        self.records += len(rows_meta)

    def observe_insert_many(self, stored_list: Sequence) -> None:
        self.observe_rows(
            (stored.record_id, stored.data, stored.metadata)
            for stored in stored_list
        )

    def observe_update(self, old_data: Mapping, new_data: Mapping) -> None:
        """A record's published dict was replaced (copy-on-write: the new
        dict's keys are a superset of the old one's)."""
        self.updates += 1
        fields = self._fields
        for name, new_value in new_data.items():
            if name in old_data:
                old_value = old_data[name]
                if old_value is new_value:
                    continue
                accumulator = fields[name]
                accumulator.remove(old_value)
                accumulator.add(new_value)
            else:
                accumulator = fields.get(name)
                if accumulator is None:
                    accumulator = self._field(name)
                accumulator.add(new_value)

    def observe_delete_row(self, record_id: int, data: Mapping) -> None:
        self.updates += 1
        self.records -= 1
        fields = self._fields
        for name, value in data.items():
            fields[name].remove(value)
        state = self._meta_state.pop(record_id, None)
        if state is not None:
            self._retire_metadata(state)

    def observe_delete(self, stored) -> None:
        self.observe_delete_row(stored.record_id, stored.data)

    def absorb(self, ops: Sequence[tuple]) -> None:
        """Replay a store's deferred mutation queue, in order.

        The write path enqueues compact op tuples (captured dict refs —
        published dicts are copy-on-write, so they are frozen the moment
        they are captured) and pays nothing else; the accumulator
        absorbs the queue on the next telemetry read.  Each mutation is
        absorbed exactly once, and ``updates`` ticks exactly as the
        synchronous observers would have.  Metadata objects are read at
        absorb time: every re-stamp also enqueued a ``meta`` op, so the
        replay converges on the sidecar's final state.
        """
        for op in ops:
            kind = op[0]
            if kind == "cols":
                self.observe_columns(
                    op[1], op[2], op[3], op[4] if len(op) > 4 else None
                )
            elif kind == "rows":
                rows = op[1]
                # A layout-uniform chunk (the batched form path always
                # is) transposes here — on the read side of the queue —
                # and absorbs column-at-a-time.  Small or ragged chunks
                # keep the row walk; both reach identical state (field
                # accumulators are independent, so per-field contiguous
                # absorption commutes with row interleaving).
                # Uniformity proof: equal widths plus every layout key
                # present (``itemgetter`` raises otherwise) pins each
                # row's key *set* to the layout's; extraction is by
                # name, so reordered rows transpose correctly too.
                if len(rows) >= 8:
                    first = rows[0][1]
                    width = len(first)
                    if width > 1 and all(
                        len(row[1]) == width for row in rows
                    ):
                        layout = tuple(first)
                        getter = itemgetter(*layout)
                        try:
                            columns = tuple(
                                zip(*[getter(row[1]) for row in rows])
                            )
                        except KeyError:
                            columns = None
                        if columns is not None:
                            self.observe_columns(
                                layout,
                                columns,
                                [(row[0], row[2]) for row in rows],
                            )
                            continue
                self.observe_rows(rows)
            elif kind == "meta":
                self.observe_metadata(op[1], op[2])
            elif kind == "update":
                self.observe_update(op[1], op[2])
            elif kind == "row":
                self.observe_row(op[1], op[2], op[3])
            else:  # "delete"
                self.observe_delete_row(op[1], op[2])

    def observe_metadata(self, record_id: int, metadata) -> None:
        """A record's sidecar was re-stamped; apply the delta.

        Unregistered ids are skipped silently — mid-batch records are
        registered once, already stamped, by :meth:`observe_insert_many`.
        """
        old = self._meta_state.get(record_id)
        if old is None:
            return
        self.updates += 1
        new = (
            bool(metadata.stored_by) and metadata.stored_date is not None,
            metadata.security_level,
            metadata.last_modified_date,
        )
        if new == old:
            return
        self._retire_metadata(old)
        self._meta_state[record_id] = new
        self._admit_metadata(new)

    def _register_metadata(self, record_id: int, metadata) -> None:
        state = (
            bool(metadata.stored_by) and metadata.stored_date is not None,
            metadata.security_level,
            metadata.last_modified_date,
        )
        self._meta_state[record_id] = state
        self._admit_metadata(state)

    def _register_metadata_many(self, rows_meta: Sequence[tuple]) -> None:
        """Batched :meth:`_register_metadata` over ``(record_id,
        metadata)`` pairs — identical final state, with the counters
        folded into locals and committed once.  Exactness: clock ticks
        are integers, so the timestamp sums are order-free, and a
        ``None`` running minimum (invalidated, recomputed lazily) stays
        ``None`` exactly as the per-record admit would leave it.
        """
        levels = self._levels
        table = self._timestamps
        metas = list(map(itemgetter(1), rows_meta))
        traced_list = [
            bool(meta.stored_by) and meta.stored_date is not None
            for meta in metas
        ]
        level_list = list(map(attrgetter("security_level"), metas))
        ts_list = list(map(attrgetter("last_modified_date"), metas))
        self._meta_state.update(zip(
            map(itemgetter(0), rows_meta),
            zip(traced_list, level_list, ts_list),
        ))
        self._traced += sum(traced_list)
        levels.update(level_list)
        stamps = (
            ts_list if None not in ts_list
            else [ts for ts in ts_list if ts is not None]
        )
        if stamps:
            table.update(stamps)
            self._ts_sum += sum(stamps)
            self._ts_count += len(stamps)
            minimum = self._ts_min
            if minimum is not None:
                lowest = min(stamps)
                if lowest < minimum:
                    self._ts_min = lowest

    def _admit_metadata(self, state: tuple) -> None:
        traced, level, timestamp = state
        if traced:
            self._traced += 1
        self._levels[level] = self._levels.get(level, 0) + 1
        if timestamp is not None:
            table = self._timestamps
            table[timestamp] = table.get(timestamp, 0) + 1
            self._ts_sum += timestamp
            self._ts_count += 1
            # ``None`` means "invalidated, recompute lazily" — admitting
            # over it must NOT claim this timestamp is the minimum (the
            # table may still hold older entries).
            minimum = self._ts_min
            if minimum is not None and timestamp < minimum:
                self._ts_min = timestamp

    def _retire_metadata(self, state: tuple) -> None:
        traced, level, timestamp = state
        if traced:
            self._traced -= 1
        remaining = self._levels.get(level, 0) - 1
        if remaining > 0:
            self._levels[level] = remaining
        else:
            self._levels.pop(level, None)
        if timestamp is not None:
            table = self._timestamps
            remaining = table.get(timestamp, 0) - 1
            if remaining > 0:
                table[timestamp] = remaining
            else:
                table.pop(timestamp, None)
                if timestamp == self._ts_min:
                    self._ts_min = None  # recomputed lazily on next read
            self._ts_sum -= timestamp
            self._ts_count -= 1

    # -- reads ------------------------------------------------------------

    @property
    def fields(self) -> list[FieldAccumulator]:
        return list(self._fields.values())

    def field(self, name: str) -> FieldAccumulator:
        return self._fields[name]

    def field_or_none(self, name: str) -> Optional[FieldAccumulator]:
        return self._fields.get(name)

    @property
    def traced(self) -> int:
        return self._traced

    def present_of(self, name: str) -> int:
        accumulator = self._fields.get(name)
        return accumulator.present if accumulator is not None else 0

    def protected_count(self, minimum_level: int) -> int:
        """Records whose security level reaches ``minimum_level``."""
        return sum(
            count for level, count in self._levels.items()
            if level >= minimum_level
        )

    def currentness_total(self, now: int, max_age: int) -> float:
        """Sum of per-record linear-decay scores at tick ``now``.

        O(1) while no record is older than ``max_age`` (the running
        sum/min answer it algebraically); O(distinct timestamps) once any
        record clamps to zero.  Records never stamped score 0.0, exactly
        like the oracle's ``currentness_score(None, …)``.
        """
        if max_age <= 0:
            raise ValueError("max_age must be positive")
        count = self._ts_count
        if count == 0:
            return 0.0
        minimum = self._ts_min
        if minimum is None:
            minimum = min(self._timestamps)
            self._ts_min = minimum
        if now - minimum <= max_age:
            return count - (now * count - self._ts_sum) / max_age
        return sum(
            bucket * (1.0 - (now - timestamp) / max_age)
            for timestamp, bucket in self._timestamps.items()
            if now - timestamp < max_age
        )

    @property
    def spilled_fields(self) -> int:
        return sum(
            1 for accumulator in self._fields.values() if accumulator.spilled
        )

    def stats(self) -> dict:
        """Deterministic counters for metrics / the chaos report."""
        return {
            "records": self.records,
            "updates": self.updates,
            "tracked_fields": len(self._fields),
            "spilled_fields": self.spilled_fields,
        }

    # -- lifecycle --------------------------------------------------------

    def merge(self, other: "EntityAccumulator") -> None:
        """Fold another shard's accumulator in (count-based stats only
        meaningfully compare when both sides share a clock for the
        timestamp table — the cluster scorecard composes Currentness
        per shard instead of reading the merged table)."""
        self.records += other.records
        self.updates += other.updates
        for name, accumulator in other._fields.items():
            mine = self._fields.get(name)
            if mine is None:
                self._fields[name] = accumulator.copy()
            else:
                mine.merge(accumulator)
        self._levels.update(other._levels)  # Counter: adds counts
        self._traced += other._traced
        self._timestamps.update(other._timestamps)
        self._ts_sum += other._ts_sum
        self._ts_count += other._ts_count
        # A ``None`` minimum on either side means "invalidated" — the
        # merged minimum is then unknown too (recomputed lazily on the
        # next Currentness read); only two known minima combine eagerly.
        if self._ts_min is None or other._ts_min is None:
            self._ts_min = None
        elif other._ts_min < self._ts_min:
            self._ts_min = other._ts_min

    def snapshot(self) -> "EntityAccumulator":
        """A mergeable copy, minus the per-record ``_meta_state`` map
        (a snapshot serves reads and merges, never deltas)."""
        clone = EntityAccumulator(self.entity, self.spill_threshold)
        clone.records = self.records
        clone.updates = self.updates
        clone._fields = {
            name: accumulator.copy()
            for name, accumulator in self._fields.items()
        }
        clone._levels = Counter(self._levels)
        clone._traced = self._traced
        clone._timestamps = Counter(self._timestamps)
        clone._ts_sum = self._ts_sum
        clone._ts_count = self._ts_count
        clone._ts_min = self._ts_min
        return clone

    def __repr__(self) -> str:
        return (
            f"<EntityAccumulator {self.entity!r} {self.records} record(s), "
            f"{len(self._fields)} field(s)>"
        )


class LiveProfile:
    """A :class:`~repro.dq.profiling.DataProfiler`-compatible view over an
    entity accumulator: same ``records_seen`` / ``field`` / ``fields`` /
    ``suggest`` / ``report`` surface, O(fields) instead of O(records)."""

    def __init__(self, accumulator: EntityAccumulator):
        self._accumulator = accumulator

    @property
    def records_seen(self) -> int:
        return self._accumulator.records

    def field(self, name: str) -> FieldAccumulator:
        return self._accumulator.field(name)

    @property
    def fields(self) -> list[FieldAccumulator]:
        return self._accumulator.fields

    def suggest(self, min_sample: int = 5) -> list[Suggestion]:
        return suggest_from_profiles(
            self._accumulator.fields,
            self._accumulator.records,
            min_sample,
        )

    def report(self) -> str:
        lines = [f"profiled {self.records_seen} record(s)"]
        for profile in sorted(self.fields, key=lambda p: p.name):
            extras = []
            if profile.is_numeric and profile.numeric_range():
                lo, hi = profile.numeric_range()
                extras.append(f"range [{lo}, {hi}]")
            matched = profile.matched_pattern()
            if matched:
                extras.append(f"pattern {matched[0]}")
            if profile.looks_like_enum():
                extras.append(f"domain {profile.value_domain()}")
            suffix = f" — {', '.join(extras)}" if extras else ""
            lines.append(
                f"  {profile.name}: {profile.completeness:.0%} complete, "
                f"{profile.distinct} distinct{suffix}"
            )
        for suggestion in self.suggest():
            lines.append(f"  -> suggest {suggestion.describe()}")
        return "\n".join(lines)


def merge_accumulators(
    accumulators: Iterable[Optional[EntityAccumulator]],
) -> Optional[EntityAccumulator]:
    """Fold per-shard snapshots, first shard's field order winning (the
    order the concatenated-records oracle would discover fields in).
    ``None`` if any side has telemetry disabled — a partial merge would
    silently under-count, violating Completeness."""
    merged: Optional[EntityAccumulator] = None
    for accumulator in accumulators:
        if accumulator is None:
            return None
        if merged is None:
            merged = accumulator.snapshot()
        else:
            merged.merge(accumulator)
    return merged


def scores_close(left: float, right: float) -> bool:
    """The equivalence tolerance for the float-summation lines
    (Completeness, Currentness); integer-ratio lines compare exactly."""
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
