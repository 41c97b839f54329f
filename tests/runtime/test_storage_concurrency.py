"""Thread-safety and read-path isolation of the content store."""

import threading

import pytest

from repro.dq.metadata import Clock
from repro.runtime.storage import ContentStore, EntityStore, IdAllocator


class TestIdAllocator:
    def test_sequential(self):
        allocator = IdAllocator()
        assert [allocator.allocate() for _ in range(3)] == [1, 2, 3]

    def test_reserve_keeps_counter_ahead(self):
        allocator = IdAllocator()
        allocator.reserve(10)
        assert allocator.allocate() == 11
        allocator.reserve(3)  # never rolls back
        assert allocator.allocate() == 12

    def test_reserving_the_same_id_twice_raises(self):
        # a second reservation of one id means the same routed write is
        # being applied twice (a replayed task that slipped past the
        # dedupe layer) — it must fail loudly, not silently double-apply
        allocator = IdAllocator()
        allocator.reserve(7)
        with pytest.raises(ValueError, match="already reserved"):
            allocator.reserve(7)
        # other ids are unaffected by the rejected replay
        allocator.reserve(8)
        assert allocator.allocate() == 9

    def test_duplicate_reservation_under_contention_raises_exactly_once(self):
        allocator = IdAllocator()
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def reserve():
            barrier.wait()
            try:
                allocator.reserve(42)
                result = "ok"
            except ValueError:
                result = "dup"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=reserve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("dup") == 7

    def test_concurrent_allocation_no_duplicates(self):
        allocator = IdAllocator()
        seen = []
        lock = threading.Lock()

        def grab():
            for _ in range(500):
                value = allocator.allocate()
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == len(set(seen)) == 4000


class TestConcurrentEntityStore:
    def test_parallel_inserts_unique_ids(self):
        store = EntityStore("e")
        ids = []
        lock = threading.Lock()

        def insert_many():
            for _ in range(200):
                stored = store.insert({"x": 1})
                with lock:
                    ids.append(stored.record_id)

        threads = [threading.Thread(target=insert_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == len(set(ids)) == 1600
        assert len(store) == 1600

    def test_parallel_updates_never_lose_increments(self):
        store = EntityStore("e")
        record_id = store.insert({"n": 0}).record_id

        def bump():
            for _ in range(100):
                store.update(record_id, {})

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get(record_id).version == 1 + 400


class TestExplicitRecordIds:
    def test_insert_with_pinned_id(self):
        store = EntityStore("e")
        stored = store.insert({"x": 1}, record_id=7)
        assert stored.record_id == 7
        assert store.get(7).data == {"x": 1}

    def test_pinned_id_collision_rejected(self):
        store = EntityStore("e")
        store.insert({}, record_id=7)
        with pytest.raises(ValueError):
            store.insert({}, record_id=7)

    def test_local_allocation_skips_pinned_ids(self):
        store = EntityStore("e")
        store.insert({}, record_id=3)
        assert store.insert({}).record_id == 4

    def test_content_store_passes_record_id_through(self):
        content = ContentStore(Clock())
        content.define("reviews")
        stored = content.store("reviews", {"x": 1}, "ada", record_id=42)
        assert stored.record_id == 42
        assert stored.metadata.stored_by == "ada"


class TestReadPathIsolation:
    """Reads hand out snapshots: no aliasing between store and caller."""

    def test_get_returns_defensive_copy(self):
        store = EntityStore("e")
        record_id = store.insert({"score": 1}).record_id
        snapshot = store.get(record_id)
        snapshot.data["score"] = 99  # caller mutates their copy
        assert store.get(record_id).data["score"] == 1

    def test_update_does_not_mutate_prior_snapshots(self):
        store = EntityStore("e")
        record_id = store.insert({"score": 1}).record_id
        before = store.get(record_id)
        store.update(record_id, {"score": 2})
        assert before.data["score"] == 1
        assert before.version == 1
        assert store.get(record_id).data["score"] == 2

    def test_all_and_query_return_copies(self):
        store = EntityStore("e")
        store.insert({"x": 1})
        store.all()[0].data["x"] = 99
        assert store.get(1).data["x"] == 1
        store.query(lambda d: True)[0].data["x"] = 99
        assert store.get(1).data["x"] == 1

    def test_metadata_snapshot_isolated(self):
        content = ContentStore(Clock())
        content.define("reviews")
        stored = content.store(
            "reviews", {"x": 1}, "ada", security_level=1,
            available_to=["ada"],
        )
        snapshot = content.entity("reviews").get(stored.record_id)
        snapshot.metadata.available_to.add("eve")
        snapshot.metadata.security_level = 0
        live = content.readable_by("reviews", "eve", 0)
        assert not live  # the live confidentiality policy is untouched

    def test_readable_by_returns_copies(self):
        content = ContentStore(Clock())
        content.define("reviews")
        content.store("reviews", {"x": 1, "tags": [1]}, "ada")
        content.store("reviews", {"x": 2}, "ada")
        rows = content.readable_by("reviews", "ada", 0)
        assert rows == [
            {"id": 1, "version": 1, "x": 1, "tags": [1]},
            {"id": 2, "version": 1, "x": 2},
        ]
        for row in rows:
            row["x"] = 99
        rows[0]["tags"].append(2)
        assert content.entity("reviews").get(1).data == {"x": 1, "tags": [1]}
        assert content.entity("reviews").get(2).data == {"x": 2}

    def test_write_path_still_returns_live_records(self):
        # metadata stamping relies on the write path handing out the live
        # record — pin that contract
        content = ContentStore(Clock())
        content.define("reviews")
        stored = content.store("reviews", {"x": 1}, "ada")
        content.modify("reviews", stored.record_id, {"x": 2}, "bob")
        assert stored.metadata.last_modified_by == "bob"
        assert stored.data["x"] == 2
