"""Unit tests for the confidentiality-aware read-through cache."""

import pytest

from repro.cluster.cache import (
    FrozenBody,
    FrozenList,
    LastGoodStore,
    ReadThroughCache,
)
from repro.runtime.storage import Rows, _values_shareable


def make_cache(capacity=8):
    return ReadThroughCache(capacity)


def frozen(body):
    """``body`` frozen under the verdict storage would give it: shareable
    when it is one flat row, or a list of them, with immutable values."""
    rows = body if isinstance(body, list) else [body]
    return FrozenBody(body, all(
        isinstance(row, dict) and _values_shareable(row) for row in rows
    ))


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        key = cache.list_key("reviews", "ada", 1)
        assert cache.lookup(key) is None
        cache.fill(key, frozen([{"id": 1}]))
        assert cache.lookup(key) == [{"id": 1}]
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_keys_isolate_users_and_levels(self):
        cache = make_cache()
        cleared = cache.list_key("reviews", "ada", 2)
        uncleared = cache.list_key("reviews", "eve", 0)
        cache.fill(cleared, frozen([{"id": 1, "secret": "x"}]))
        # the uncleared user's key can never see the cleared body
        assert cache.lookup(uncleared) is None
        # even the same user under a different clearance misses
        assert cache.lookup(cache.list_key("reviews", "ada", 0)) is None

    def test_view_and_list_keys_distinct(self):
        cache = make_cache()
        cache.fill(cache.list_key("reviews", "ada", 1), frozen([]))
        assert cache.lookup(cache.view_key("reviews", 1, "ada", 1)) is None

    def test_served_body_is_caller_proof(self):
        cache = make_cache()
        key = cache.view_key("reviews", 1, "ada", 1)
        body = {"id": 1, "score": 3}
        cache.fill(key, frozen(body))
        body["score"] = 99  # mutating the filled value
        served = cache.lookup(key)
        assert served["score"] == 3
        served["score"] = -1  # mutating a served value
        assert cache.lookup(key)["score"] == 3

    def test_non_json_bodies_fall_back_to_deepcopy(self):
        cache = make_cache()
        key = cache.view_key("reviews", 1, "ada", 1)
        body = {"id": 1, "tags": {"a", "b"}}  # sets are not JSON
        cache.fill(key, frozen(body))
        served = cache.lookup(key)
        assert served["tags"] == {"a", "b"}
        served["tags"].add("c")
        assert cache.lookup(key)["tags"] == {"a", "b"}


def same_typed(left, right) -> bool:
    """Equal in value and in type at every level (``==`` alone takes
    ``1.0`` for ``1`` and ``True`` for ``1``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return (
            [(type(k), k) for k in left] == [(type(k), k) for k in right]
            and all(same_typed(left[k], right[k]) for k in left)
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            same_typed(a, b) for a, b in zip(left, right)
        )
    return left == right


class TestFreezeKeepsValueTypes:
    BODY = {"id": 1, "tags": ["a", ("b", 1)], "n": {1: "x"}, "w": 1.0}

    @pytest.mark.parametrize("as_list", [False, True])
    def test_both_stores_serve_the_body_they_were_given(self, as_list):
        body = [dict(self.BODY)] if as_list else dict(self.BODY)
        filled = frozen(body)
        cache = make_cache()
        last_good = LastGoodStore()
        key = cache.view_key("reviews", 1, "ada", 1)
        cache.fill(key, filled)
        last_good.remember(key, filled, 4)
        served = cache.lookup(key)
        remembered, version = last_good.lookup(key)
        assert version == 4
        for copy_ in (served, remembered):
            assert copy_ == body and same_typed(copy_, body)
        # every thaw is a private deep copy
        (served[0] if as_list else served)["tags"][1] = "poison"
        assert same_typed(cache.lookup(key), body)
        assert same_typed(last_good.lookup(key)[0], body)

    def test_shareable_rows_thaw_to_fresh_dicts(self):
        rows = [{"id": 1, "t": ("a", 1)}, {"id": 2, "t": None}]
        filled = FrozenBody(rows, True)
        first, second = filled.thaw(), filled.thaw()
        assert first == second == rows
        assert same_typed(first, rows)
        assert all(a is not b for a, b in zip(first, rows))
        assert all(a is not b for a, b in zip(first, second))


class TestInvalidationAndEviction:
    def test_write_path_invalidation_drops_entity_entries(self):
        cache = make_cache()
        cache.fill(cache.list_key("reviews", "ada", 1), frozen([1]))
        cache.fill(cache.list_key("reviews", "bob", 1), frozen([2]))
        cache.fill(cache.list_key("papers", "ada", 1), frozen([3]))
        dropped = cache.invalidate_entity("reviews")
        assert dropped == 2
        assert cache.lookup(cache.list_key("reviews", "ada", 1)) is None
        assert cache.lookup(cache.list_key("papers", "ada", 1)) == [3]
        assert cache.stats.invalidations == 1

    def test_lru_eviction(self):
        cache = make_cache(capacity=2)
        k1 = cache.view_key("e", 1, "u", 0)
        k2 = cache.view_key("e", 2, "u", 0)
        k3 = cache.view_key("e", 3, "u", 0)
        cache.fill(k1, frozen({"id": 1}))
        cache.fill(k2, frozen({"id": 2}))
        cache.lookup(k1)  # refresh k1; k2 becomes LRU
        cache.fill(k3, frozen({"id": 3}))
        assert cache.lookup(k2) is None
        assert cache.lookup(k1) == {"id": 1}
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = make_cache(capacity=0)
        key = cache.list_key("e", "u", 0)
        cache.fill(key, frozen([1]))
        assert cache.lookup(key) is None
        assert len(cache) == 0

    def test_clear(self):
        cache = make_cache()
        cache.fill(cache.list_key("e", "u", 0), frozen([1]))
        cache.clear()
        assert len(cache) == 0


class TestListParts:
    """A list entry keeps one row part per shard, read at a data
    version; it hits only at exactly those versions."""

    def parts(self):
        return (
            Rows([{"id": 3, "t": "c"}, {"id": 1, "t": "a"}]),
            Rows([{"id": 2, "t": "b"}]),
        )

    def test_the_merge_is_id_sorted_and_shares_the_parts_rows(self):
        first, second = self.parts()
        frozen = FrozenList((7, 9), (first, second))
        assert frozen.thaw() == [
            {"id": 1, "t": "a"}, {"id": 2, "t": "b"}, {"id": 3, "t": "c"},
        ]
        # the parts are kept as they are, never copied in ...
        assert frozen.parts[0] is first
        assert {id(row) for row in frozen._value} == {
            id(row) for part in (first, second) for row in part
        }
        # ... and only copies leave
        served = frozen.thaw()
        served[0]["t"] = "poison"
        assert first[1]["t"] == "a"

    def test_a_part_with_mutable_values_thaws_deep(self):
        shared = Rows([{"id": 1, "tags": ["a"]}], shareable=False)
        frozen = FrozenList((1, 2), (shared, Rows([{"id": 2}])))
        served = frozen.thaw()
        served[0]["tags"].append("poison")
        assert frozen.thaw() == [{"id": 1, "tags": ["a"]}, {"id": 2}]
        assert isinstance(served, list)

    def test_a_list_hits_only_at_the_versions_it_was_read_at(self):
        cache = make_cache()
        key = cache.list_key("reviews", "ada", 1)
        cache.fill(key, FrozenList((7, 9), self.parts()))
        assert cache.lookup(key, (7, 9)) == [
            {"id": 1, "t": "a"}, {"id": 2, "t": "b"}, {"id": 3, "t": "c"},
        ]
        assert cache.lookup(key, (7, 10)) is None  # one shard moved
        assert cache.lookup(key, (7,)) is None  # a shard left the ring
        assert cache.lookup(key, (7, 9, 11)) is None  # a shard joined
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)

    def test_a_missed_list_still_lends_its_parts_by_version(self):
        cache = make_cache()
        key = cache.list_key("reviews", "ada", 1)
        assert cache.parts(key) == {}
        first, second = self.parts()
        cache.fill(key, FrozenList((7, 9), (first, second)))
        held = cache.parts(key)
        assert held.keys() == {7, 9}
        assert held[7] is first and held[9] is second
        # lending moves neither the counters nor the LRU order
        assert cache.stats.lookups == 0


class TestRecordViews:
    def test_an_update_drops_every_view_of_its_record_and_no_other(self):
        cache = make_cache()
        for record in (1, 2):
            for user, level in (("ada", 2), ("eve", 0)):
                cache.fill(
                    cache.view_key("reviews", record, user, level),
                    frozen({"id": record}),
                )
        cache.fill(cache.view_key("papers", 1, "ada", 2), frozen({"id": 1}))
        listed = cache.list_key("reviews", "ada", 2)
        cache.fill(listed, FrozenList((1,), (Rows([{"id": 1}]),)))
        assert cache.invalidate_record("reviews", 1) == 2
        assert cache.stats.invalidations == 1
        assert cache.lookup(cache.view_key("reviews", 1, "ada", 2)) is None
        for entity, record in (("reviews", 2), ("papers", 1)):
            key = cache.view_key(entity, record, "ada", 2)
            assert cache.lookup(key) == {"id": record}
        assert cache.lookup(listed, (1,)) == [{"id": 1}]
        assert cache.invalidate_record("reviews", 1) == 0
        assert cache.stats.invalidations == 1

    def test_evicted_and_entity_dropped_views_leave_no_index(self):
        cache = make_cache(capacity=2)
        for record in (1, 2, 3):
            cache.fill(cache.view_key("e", record, "u", 0), frozen({}))
        assert set(cache._views) == {("e", 2), ("e", 3)}
        cache.invalidate_entity("e")
        assert cache._views == {} and len(cache) == 0
        cache.fill(cache.view_key("e", 4, "u", 0), frozen({}))
        cache.clear()
        assert cache._views == {}


class TestWriteRacingFillInvariants:
    """Directed interleavings of the gateway's versioned-key protocol.

    The gateway appends the per-entity data version to every cache key
    and bumps the version (invalidating the entity) on each accepted
    write.  Whichever way a read-through fill interleaves with a racing
    write, a reader at the *current* version must never see the stale
    body.
    """

    def test_fill_landing_after_the_invalidation_stays_unreachable(self):
        # reader computes its key at version 0, the write completes
        # (bump + invalidate) BEFORE the slow fill lands: the stale body
        # sits under the v0 key, which no current reader computes
        cache = make_cache()
        stale_key = cache.list_key("reviews", "ada", 1) + (0,)
        # ... the write acknowledges: version -> 1, entity invalidated
        cache.invalidate_entity("reviews")
        # the late fill
        cache.fill(stale_key, frozen([{"id": 1, "score": "old"}]))
        fresh_key = cache.list_key("reviews", "ada", 1) + (1,)
        assert cache.lookup(fresh_key) is None  # forced re-read
        # the stale entry is only reachable through the retired version
        assert cache.lookup(stale_key) == [{"id": 1, "score": "old"}]

    def test_fill_landing_before_the_invalidation_is_dropped(self):
        # the other order: the fill lands first, then the write
        # invalidates — the entry must be gone for every version
        cache = make_cache()
        stale_key = cache.list_key("reviews", "ada", 1) + (0,)
        cache.fill(stale_key, frozen([{"id": 1, "score": "old"}]))
        cache.invalidate_entity("reviews")
        assert cache.lookup(stale_key) is None
        assert cache.lookup(
            cache.list_key("reviews", "ada", 1) + (1,)
        ) is None

    def test_interleaved_writes_to_other_entities_do_not_shield_stale(self):
        cache = make_cache()
        key = cache.view_key("reviews", 1, "ada", 1) + (0,)
        cache.fill(key, frozen({"id": 1, "score": "old"}))
        cache.invalidate_entity("papers")  # unrelated write
        assert cache.lookup(key) == {"id": 1, "score": "old"}
        cache.invalidate_entity("reviews")  # the related write
        assert cache.lookup(key) is None

    def test_hit_never_crosses_clearance_levels_mid_interleaving(self):
        # a cleared fill racing an uncleared read: whatever the order,
        # the uncleared key can never hit the cleared body
        cache = make_cache()
        cleared = cache.view_key("reviews", 1, "chair", 2) + (0,)
        uncleared = cache.view_key("reviews", 1, "outsider", 0) + (0,)
        assert cache.lookup(uncleared) is None     # read arrives first
        cache.fill(cleared, frozen({"id": 1, "secret": "scores"}))
        assert cache.lookup(uncleared) is None     # and after the fill
        cache.fill(uncleared, frozen({"id": 1}))   # the filtered body
        assert cache.lookup(uncleared) == {"id": 1}
        assert cache.lookup(cleared) == {"id": 1, "secret": "scores"}

    def test_clearance_change_retires_the_old_levels_entries(self):
        # demotion changes the key's level component: old entries simply
        # stop matching, with no explicit invalidation needed
        cache = make_cache()
        cache.fill(
            cache.view_key("reviews", 1, "ada", 2) + (0,),
            frozen({"id": 1, "secret": "x"}),
        )
        assert cache.lookup(
            cache.view_key("reviews", 1, "ada", 0) + (0,)
        ) is None


class TestLastGoodStore:
    def test_remember_and_lookup_with_version(self):
        store = LastGoodStore()
        store.remember(
            ("view", "reviews", 1, "ada", 1), frozen({"id": 1}), 3
        )
        assert store.lookup(("view", "reviews", 1, "ada", 1)) == (
            {"id": 1}, 3
        )
        assert store.lookup(("view", "reviews", 2, "ada", 1)) is None

    def test_entries_survive_what_invalidation_would_drop(self):
        # deliberately: the last-good body is the degraded-read backstop,
        # so a newer remember overwrites but nothing else removes it
        store = LastGoodStore()
        key = ("list", "reviews", None, "ada", 1)
        store.remember(key, frozen([{"id": 1}]), 1)
        store.remember(key, frozen([{"id": 1}, {"id": 2}]), 2)
        assert store.lookup(key) == ([{"id": 1}, {"id": 2}], 2)

    def test_bodies_are_caller_proof(self):
        store = LastGoodStore()
        key = ("view", "e", 1, "u", 0)
        body = {"id": 1, "score": 3}
        store.remember(key, frozen(body), 1)
        body["score"] = 99
        served, _ = store.lookup(key)
        assert served["score"] == 3
        served["score"] = -1
        assert store.lookup(key)[0]["score"] == 3

    def test_lru_eviction_beyond_capacity(self):
        store = LastGoodStore(capacity=2)
        store.remember(("k", 1), frozen({"id": 1}), 1)
        store.remember(("k", 2), frozen({"id": 2}), 1)
        store.lookup(("k", 1))  # refresh: ("k", 2) becomes LRU
        store.remember(("k", 3), frozen({"id": 3}), 1)
        assert store.lookup(("k", 2)) is None
        assert store.lookup(("k", 1)) is not None
        assert len(store) == 2

    def test_zero_capacity_disables_the_backstop(self):
        store = LastGoodStore(capacity=0)
        store.remember(("k",), frozen({"id": 1}), 1)
        assert store.lookup(("k",)) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LastGoodStore(capacity=-1)
