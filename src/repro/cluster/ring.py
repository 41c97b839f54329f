"""Consistent-hash routing: every record's home shard.

Placement and lookup must agree without any shared mapping table, so
both derive from one pure function of *(entity, record id)*.  The
gateway allocates global record ids itself (a locked per-entity
counter), computes the home shard before the write ever touches a
store, and every later keyed operation (view, update) re-derives the
same shard from the same two values.  Listing reads have no key — they
scatter to every live shard and the gateway gathers the results.

That function is a consistent-hash ring rather than ``hash mod N``:
changing N under ``mod N`` remaps roughly ``(N-1)/N`` of all keys, so
growing the fleet would mean re-streaming almost every record.  The
ring is fully determined by its node names and the vnode count (no
shared table, no randomness) and shrinks the movement cost of a
topology change to roughly the joining/leaving node's share, ``1/N``.

Layout: each node projects ``vnodes`` points onto the 64-bit hash
space at ``spread(fnv1a("node#vnode#i"))``; a key hashed the same way
(``spread(fnv1a("entity#id"))``) is owned by the first node point
clockwise from it (binary search over the sorted points, wrapping at
the top).  The :func:`spread` finalizer matters: raw FNV-1a of
common-prefix strings clumps, which would pile all of a node's vnodes
into one arc.  More vnodes → smoother load at the cost of a bigger
(still tiny) point table; 128 per node keeps every shard's share
within ~25% of uniform for the fleet sizes the gateway runs (tested
bound: 0.7x–1.35x ideal).

FNV-1a is a streaming hash, so the shared ``"entity#"`` and
``"node#vnode#"`` prefixes are hashed once and each key continues from
that state — the same bits as hashing the whole string, for a fraction
of the per-byte loop.

:class:`RingRouter` is what the gateway routes with: ``allocate_id`` /
``observe_id`` / ``shard_for`` / ``placement``, plus ``add_shard`` /
``remove_shard`` for live topology changes and a per-record override
table the migration engine uses to keep serving records that have not
streamed to their new owner yet.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Sequence

#: Default virtual-node count per ring node.
DEFAULT_VNODES = 128

#: FNV-1a 64-bit parameters (stable across processes, unlike ``hash()``,
#: which Python salts per interpreter run).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_MASK = (1 << 64) - 1


def fnv1a(text: str, state: int = _FNV_OFFSET) -> int:
    """The 64-bit FNV-1a hash of ``text`` — deterministic across runs.

    ``state`` continues a hash already under way: the hash is streaming,
    so ``fnv1a(a + b) == fnv1a(b, fnv1a(a))``.
    """
    for byte in text.encode("utf-8"):
        state = ((state ^ byte) * _FNV_PRIME) & _MASK
    return state


def spread(value: int) -> int:
    """Avalanche a 64-bit hash (the splitmix64 finalizer).

    FNV-1a of short strings with a shared prefix differs mostly in the
    low bits — ``shard-1#vnode#0..127`` hash to one tight clump, and
    sequential ``Entity#id`` keys clump the same way — which would
    collapse every node's vnodes into a single arc and starve the
    uniformity the vnode math assumes.  The finalizer spreads every
    input bit across the word, so points and keys land uniformly.
    """
    value &= _MASK
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK
    value ^= value >> 31
    return value


class HashRing:
    """A deterministic consistent-hash ring over named nodes.

    The ring is a pure function of ``(sorted node names, vnodes)``: two
    rings built from the same members agree on every key's owner, in
    any process, in any insertion order.  Collisions on a point (astro-
    nomically rare with 64-bit FNV-1a) tie-break by node name, so even
    those are deterministic.
    """

    def __init__(self, nodes: Sequence[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _node_points(self, node: str) -> list[tuple[int, str]]:
        prefix = fnv1a(f"{node}#vnode#")
        return [
            (spread(fnv1a(str(index), prefix)), node)
            for index in range(self.vnodes)
        ]

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        self._points.extend(self._node_points(node))
        self._points.sort()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def owner(self, key_hash: int) -> str:
        """The node owning ``key_hash``: first point clockwise, wrapping."""
        if not self._points:
            raise RuntimeError("the ring has no nodes")
        index = bisect_left(self._points, (key_hash, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def owner_of(self, key: str) -> str:
        return self.owner(spread(fnv1a(key)))

    def __repr__(self) -> str:
        return (
            f"<HashRing {len(self._nodes)} node(s) x {self.vnodes} vnode(s)>"
        )


class RingRouter:
    """Maps (entity, record id) pairs to shard indices on a hash ring.

    Shard indices stay stable identities for the gateway's parallel
    lists (shards, locks, breakers, replica sets): ``add_shard`` always
    returns a brand-new index and ``remove_shard`` retires an index
    without renumbering the survivors — only the ring membership
    changes.  ``all_shards`` therefore returns the *live* indices.

    ``route_override`` / ``clear_override`` maintain the migration
    table: while a record is still streaming to its new owner, lookups
    keep resolving to the shard that actually holds it, so the gateway
    never stops serving mid-move.
    """

    def __init__(self, shard_count: int, vnodes: int = DEFAULT_VNODES):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._ring = HashRing(vnodes=vnodes)
        self._node_index: dict[str, int] = {}
        self._next_index = 0
        self._overrides: dict[tuple[str, int], int] = {}
        # FNV state after each entity's "entity#" key prefix
        self._key_prefixes: dict[str, int] = {}
        for _ in range(shard_count):
            self._admit()

    # -- record ids -------------------------------------------------------

    def allocate_id(self, entity: str) -> int:
        """The next global record id for ``entity`` (thread-safe)."""
        with self._lock:
            next_id = self._counters.get(entity, 0) + 1
            self._counters[entity] = next_id
            return next_id

    def observe_id(self, entity: str, record_id: int) -> None:
        """Keep the allocator ahead of ids assigned elsewhere."""
        with self._lock:
            if record_id > self._counters.get(entity, 0):
                self._counters[entity] = record_id

    def placement(self, entity: str) -> tuple[int, int]:
        """Allocate a fresh id and return ``(record_id, shard_index)``."""
        record_id = self.allocate_id(entity)
        return record_id, self.shard_for(entity, record_id)

    # -- topology ---------------------------------------------------------

    @staticmethod
    def node_name(index: int) -> str:
        return f"shard-{index}"

    def _admit(self) -> int:
        index = self._next_index
        self._next_index += 1
        name = self.node_name(index)
        self._ring.add_node(name)
        self._node_index[name] = index
        return index

    def add_shard(self) -> int:
        """Join a new node; returns its (fresh, never-reused) index."""
        with self._lock:
            return self._admit()

    def remove_shard(self, index: int) -> None:
        """Retire one node from the ring (its index is never reused)."""
        name = self.node_name(index)
        with self._lock:
            self._ring.remove_node(name)
            del self._node_index[name]

    @property
    def vnodes(self) -> int:
        return self._ring.vnodes

    # -- lookup -----------------------------------------------------------

    def _key_hash(self, entity: str, record_id: int) -> int:
        prefix = self._key_prefixes.get(entity)
        if prefix is None:
            prefix = self._key_prefixes[entity] = fnv1a(f"{entity}#")
        return spread(fnv1a(str(record_id), prefix))

    def shard_for(self, entity: str, record_id: int) -> int:
        """The home shard of a record: its migration override, else its
        ring owner."""
        key_hash = self._key_hash(entity, record_id)
        with self._lock:
            if self._overrides:
                override = self._overrides.get((entity, record_id))
                if override is not None:
                    return override
            return self._node_index[self._ring.owner(key_hash)]

    def ring_owner(self, entity: str, record_id: int) -> int:
        """The ring's answer, ignoring migration overrides."""
        key_hash = self._key_hash(entity, record_id)
        with self._lock:
            return self._node_index[self._ring.owner(key_hash)]

    def all_shards(self) -> tuple[int, ...]:
        """Every live shard index — the scatter-gather (broadcast) path."""
        with self._lock:
            return tuple(sorted(self._node_index.values()))

    # -- migration overrides ---------------------------------------------

    def route_override(
        self, entity: str, record_id: int, shard_index: int
    ) -> None:
        with self._lock:
            self._overrides[(entity, record_id)] = shard_index

    def clear_override(self, entity: str, record_id: int) -> None:
        with self._lock:
            self._overrides.pop((entity, record_id), None)

    def overrides_active(self) -> int:
        with self._lock:
            return len(self._overrides)

    def __repr__(self) -> str:
        with self._lock:
            live = len(self._node_index)
        return (
            f"<RingRouter {live} live shard(s), "
            f"{self._ring.vnodes} vnode(s)/shard>"
        )


def moved_fraction(
    before: RingRouter,
    after: RingRouter,
    entity: str,
    count: int,
    start: int = 1,
) -> float:
    """The fraction of ``count`` sequential record ids whose home shard
    differs between two routers — the resharding-cost measure the ring's
    minimal-movement property is stated in."""
    if count < 1:
        raise ValueError("count must be >= 1")
    moved = sum(
        1
        for record_id in range(start, start + count)
        if before.shard_for(entity, record_id)
        != after.shard_for(entity, record_id)
    )
    return moved / count
