"""What one stored record costs the garbage collector.

A web-shop order admitted through ``submit_many`` should leave its
``StoredRecord``, its metadata sidecar and its audit event behind, and
little else: no set per distinct field value, no confidentiality tuple
per record, no mutable telemetry cell per distinct string and no
replay-cache entry per write.  Every object the collector tracks is one
it walks on every full collection, so this count is what the gen2
pauses on the write-heavy workloads scale with.
"""

import gc
import random
from collections import Counter

import pytest

from repro.casestudy import webshop
from repro.cluster import ShardedGateway
from repro.cluster.resilience import ResilienceConfig

FORM = "Manage order data form"
ENTITY = "Manage order data"
WRITER = "integration_bot"
ORDERS = 2400
BATCH_ROWS = 24
#: Tracked objects one stored order may leave behind.  The record, its
#: sidecar and the sidecar's grant set, its audit event and the queued
#: telemetry op (absorbed by the next telemetry read) come to about 6.
MAX_TRACKED_PER_ORDER = 8


def orders(count: int) -> list:
    """Clean, seeded orders over a 240-SKU catalogue."""
    rng = random.Random(7)
    catalogue = [
        (f"SKU-{index:04d}", rng.randint(99, 99_999)) for index in range(240)
    ]
    rows = []
    for serial in range(count):
        sku, price = rng.choice(catalogue)
        quantity = rng.randint(1, 12)
        rows.append({
            "order_id": f"O-{serial:07d}",
            "customer_id": f"C-{rng.randint(1, 5000):05d}",
            "sku": sku,
            "quantity": quantity,
            "unit_price_cents": price,
            "total_cents": quantity * price,
            "channel": rng.choice(webshop.TRUSTED_CHANNELS),
        })
    return rows


@pytest.fixture(scope="module")
def loaded():
    """A 4-shard fleet with resilience on and no fault plan, loaded with
    every order; yields ``(gateway, acknowledged ids, tracked objects
    by type name, tracked objects per order)``."""
    gateway = ShardedGateway.from_design(
        webshop.build_design(), shard_count=4, users=webshop.USERS,
        resilience=ResilienceConfig(),
    )
    rows = orders(ORDERS)
    acked = []
    gc.collect()
    before = Counter(type(o).__name__ for o in gc.get_objects())
    for start in range(0, ORDERS, BATCH_ROWS):
        for response in gateway.submit_many(
            FORM, rows[start:start + BATCH_ROWS], WRITER
        ):
            assert response.status == 201, response.body
            acked.append(response.body["id"])
    gc.collect()
    after = Counter(type(o).__name__ for o in gc.get_objects())
    after.subtract(before)
    per_order = sum(after.values()) / ORDERS
    try:
        yield gateway, acked, after, per_order
    finally:
        gateway.close()


def order_stores(gateway):
    return [shard.store.entity(ENTITY) for shard in gateway.shards]


def test_a_stored_order_leaves_few_tracked_objects(loaded):
    _gateway, _acked, _by_type, per_order = loaded
    assert per_order <= MAX_TRACKED_PER_ORDER, per_order


def test_no_store_keeps_a_set_per_field_value(loaded):
    # one set per order is its sidecar's grant set; a hash index per
    # field would add one per distinct value of every field
    _gateway, _acked, by_type, _per_order = loaded
    assert by_type["set"] <= ORDERS * 1.05, by_type["set"]


def test_records_with_one_provenance_share_one_confidentiality_state(
    loaded,
):
    gateway, _acked, _by_type, _per_order = loaded
    for store in order_stores(gateway):
        states = store._confidentiality._state.values()
        assert len(states) == len(store)
        assert len({id(state) for state in states}) == 1


def test_no_telemetry_string_entry_is_tracked(loaded):
    gateway, _acked, _by_type, _per_order = loaded
    for store in order_stores(gateway):
        assert store.telemetry is not None  # absorbs the queued ops
    gc.collect()
    entries = [
        entry
        for store in order_stores(gateway)
        for entry in store.measure_telemetry(lambda accumulator: [
            entry
            for field in accumulator._fields.values()
            if field._strings
            for entry in field._strings.values()
        ])
    ]
    assert len(entries) >= ORDERS  # order ids are distinct strings
    assert not any(gc.is_tracked(entry) for entry in entries)


def test_a_fleet_without_faults_keeps_no_registry_and_writes_once(loaded):
    gateway, acked, _by_type, _per_order = loaded
    assert gateway.fault_injector is None
    assert gateway._idempotency is None
    assert sorted(acked) == list(range(1, ORDERS + 1))
    assert gateway.total_records() == ORDERS
    stored = sorted(
        event.record_id
        for shard in gateway.shards
        for event in shard.audit.by_kind("store")
    )
    assert stored == sorted(acked)


def test_each_stored_order_is_indexed_once(monkeypatch):
    """Stores stamp a new record's sidecar before the clearance index
    files it, so no record is indexed under the default state first and
    then moved."""
    from repro.runtime.storage import _ConfidentialityIndex

    calls = Counter()
    index, unindex = _ConfidentialityIndex.index, _ConfidentialityIndex.unindex

    def counted_index(self, record_id, metadata):
        calls["index"] += 1
        return index(self, record_id, metadata)

    def counted_unindex(self, record_id):
        if record_id in self._state:
            calls["live unindex"] += 1
        return unindex(self, record_id)

    monkeypatch.setattr(_ConfidentialityIndex, "index", counted_index)
    monkeypatch.setattr(_ConfidentialityIndex, "unindex", counted_unindex)
    gateway = ShardedGateway.from_design(
        webshop.build_design(), shard_count=4, users=webshop.USERS,
        resilience=ResilienceConfig(),
    )
    try:
        rows = orders(241)
        for start in range(0, 240, BATCH_ROWS):
            for response in gateway.submit_many(
                FORM, rows[start:start + BATCH_ROWS], WRITER
            ):
                assert response.status == 201, response.body
        assert calls == {"index": 240}
        calls.clear()
        assert gateway.submit(FORM, rows[240], WRITER).status == 201
        assert calls == {"index": 1}
        for store in order_stores(gateway):
            assert len(store._confidentiality._state) == len(store)
    finally:
        gateway.close()
