"""Property tests pinning the hot-path overhaul's storage contracts.

Three equivalences must hold bit-for-bit, or the copy-on-write fast path
is a correctness change instead of a performance change:

* a default (COW) snapshot equals a ``deep=True`` snapshot after any
  sequence of inserts and updates;
* ``find_by``, down a column or across the rows, equals the full-scan
  equality query, and the rows ``readable_rows`` builds through the
  clearance index equal rows built from the per-record ``accessible_by``
  predicate scan;
* snapshot isolation survives concurrent writers — a reader never sees a
  torn record, and mutating a snapshot never reaches the store.

And ``StoredRecord.shareable`` — the verdict every read trusts instead
of walking values — always equals a fresh walk of the published data.

Plus the :class:`IdAllocator` compaction contract: bounded memory with
the duplicate-reservation guard still firing everywhere.
"""

import copy
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dq.metadata import Clock
from repro.runtime.storage import (
    ContentStore,
    EntityStore,
    IdAllocator,
    StoredRecord,
    _values_shareable,
)

# NaN breaks value equality, so it would fail any oracle comparison for
# reasons unrelated to snapshot sharing.
scalars = st.one_of(
    st.text(max_size=8),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
field_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
payloads = st.dictionaries(field_names, scalars, min_size=1, max_size=4)
# occasionally nested-mutable, to exercise the deepcopy fallback
mixed_payloads = st.dictionaries(
    field_names,
    st.one_of(scalars, st.lists(st.integers(0, 9), max_size=3)),
    min_size=1,
    max_size=4,
)


def snapshots_equal(left: StoredRecord, right: StoredRecord) -> bool:
    return (
        left.record_id == right.record_id
        and left.version == right.version
        and left.data == right.data
        and left.metadata == right.metadata
    )


@st.composite
def op_sequences(draw):
    """insert/update/delete sequences, updates/deletes on live records."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 12))):
        choices = ["insert"]
        if live:
            choices += ["update", "update", "delete"]
        kind = draw(st.sampled_from(choices))
        if kind == "insert":
            ops.append(("insert", draw(mixed_payloads)))
            live += 1
        elif kind == "update":
            ops.append(("update", draw(st.integers(0, live - 1)),
                        draw(mixed_payloads)))
        else:
            ops.append(("delete", draw(st.integers(0, live - 1))))
            live -= 1
    return ops


@settings(max_examples=60, deadline=None)
@given(ops=op_sequences())
def test_cow_snapshots_equal_deepcopy_snapshots(ops):
    """The tentpole equivalence: COW ≡ deepcopy after any write history."""
    store = EntityStore("records")
    applied_ids = []
    for op in ops:
        if op[0] == "insert":
            applied_ids.append(store.insert(op[1]).record_id)
        elif op[0] == "update" and applied_ids:
            target = applied_ids[op[1] % len(applied_ids)]
            if target in store:
                store.update(target, op[2])
        elif op[0] == "delete" and applied_ids:
            target = applied_ids.pop(op[1] % len(applied_ids))
            if target in store:
                store.delete(target)
    for snapshot in store.all():
        deep = store.get(snapshot.record_id, deep=True)
        assert snapshots_equal(snapshot, deep)
    # and the all()/query() surfaces agree wholesale
    cow_all = store.all()
    deep_all = store.all(deep=True)
    assert len(cow_all) == len(deep_all)
    for cow, deep in zip(cow_all, deep_all):
        assert snapshots_equal(cow, deep)


@settings(max_examples=60, deadline=None)
@given(data=mixed_payloads, change=mixed_payloads)
def test_snapshot_is_frozen_against_later_updates(data, change):
    """A snapshot taken before an update never observes the update."""
    store = EntityStore("records")
    record_id = store.insert(data).record_id
    before = store.get(record_id)
    expected = copy.deepcopy(before.data)
    store.update(record_id, change)
    assert before.data == expected
    assert before.version == 1
    after = store.get(record_id)
    assert after.version == 2
    assert after.data == {**expected, **change}


def test_mutating_a_snapshot_never_reaches_the_store():
    store = EntityStore("records")
    record_id = store.insert({"alpha": 1, "tags": [1, 2]}).record_id
    snapshot = store.get(record_id)
    snapshot.data["alpha"] = 99
    snapshot.data["tags"].append(3)
    snapshot.metadata.available_to.add("eve")
    snapshot.metadata.extra["injected"] = True
    live = store.get(record_id, deep=True)
    assert live.data == {"alpha": 1, "tags": [1, 2]}
    assert live.metadata.available_to == set()
    assert live.metadata.extra == {}


def test_nested_mutable_records_take_the_deepcopy_path():
    store = EntityStore("records")
    flat = store.insert({"alpha": 1})
    nested = store.insert({"alpha": [1]})
    assert flat.shareable
    assert not nested.shareable
    # shareability degrades when an update introduces a mutable value
    store.update(flat.record_id, {"beta": {"k": 1}})
    assert not store._live(flat.record_id).shareable


def test_deep_escape_hatch_forces_private_values():
    store = EntityStore("records")
    record_id = store.insert({"alpha": "x"}).record_id
    live = store._live(record_id)
    cow = store.get(record_id)
    deep = store.get(record_id, deep=True)
    assert cow.data is not live.data and deep.data is not live.data
    assert snapshots_equal(cow, deep)
    store.deep_snapshots = True
    assert snapshots_equal(store.get(record_id), deep)


FIELDS = ("alpha", "beta", "gamma", "delta")


@settings(max_examples=60, deadline=None)
@given(ops=op_sequences(), lookup=scalars)
def test_find_by_matches_the_full_scan_oracle(ops, lookup):
    """``ragged`` holds the payloads as drawn, so it answers by the row
    scan; ``regular`` pads them to the declared layout, so it answers
    down the column (zone maps and typed buffers included)."""
    ragged = EntityStore("ragged")
    regular = EntityStore("regular", fields=FIELDS)

    def padded(payload):
        return {name: payload.get(name) for name in FIELDS}

    for op in ops:
        live = sorted(r.record_id for r in ragged.all())
        if op[0] == "insert":
            record_id = ragged.insert(op[1]).record_id
            regular.insert(padded(op[1]), record_id=record_id)
        elif live and op[0] == "update":
            target = live[op[1] % len(live)]
            ragged.update(target, op[2])
            regular.update(target, op[2])
        elif live:
            target = live[op[1] % len(live)]
            ragged.delete(target)
            regular.delete(target)
    for store in (ragged, regular):
        values = {lookup}
        for record in store.all():
            value = record.data.get("alpha")
            values.add(value if not isinstance(value, list) else tuple(value))
        for value in values:
            found = store.find_by("alpha", value)
            via_scan = store.query(lambda data: data.get("alpha") == value)
            assert [r.record_id for r in found] == \
                [r.record_id for r in via_scan]
            for left, right in zip(found, via_scan):
                assert snapshots_equal(left, right)


def test_find_by_with_unhashable_values_falls_back_to_scan():
    store = EntityStore("records")
    listed = store.insert({"alpha": [1, 2]}).record_id
    store.insert({"alpha": "x"})
    found = store.find_by("alpha", [1, 2])
    assert [r.record_id for r in found] == [listed]
    assert store.find_by("alpha", "x")[0].data["alpha"] == "x"


def oracle_rows(store: EntityStore, user: str, user_level: int) -> list:
    """The rows ``readable_rows`` must equal, in order, built from the
    predicate-scan oracle."""
    return [
        {"id": s.record_id, "version": s.version, **s.data}
        for s in store.select_snapshots(
            lambda s: s.metadata.accessible_by(user, user_level)
        )
    ]


@settings(max_examples=40, deadline=None)
@given(
    grants=st.lists(
        st.tuples(st.integers(0, 3), st.sets(
            st.sampled_from(["ann", "bob", "cho", "dee"]), max_size=2
        ), mixed_payloads),
        min_size=1, max_size=10,
    ),
    user=st.sampled_from(["ann", "bob", "cho", "dee", "eve"]),
    user_level=st.integers(0, 3),
    deep=st.booleans(),
)
def test_readable_rows_match_the_accessible_by_oracle(
    grants, user, user_level, deep
):
    content = ContentStore(Clock())
    content.define("papers")
    for level, available, payload in grants:
        content.store(
            "papers", payload, "writer",
            security_level=level, available_to=available,
        )
    store = content.entity("papers")
    store.deep_snapshots = deep
    rows = store.readable_rows(user, user_level)
    oracle = oracle_rows(store, user, user_level)
    assert [list(row.items()) for row in rows] == \
        [list(row.items()) for row in oracle]
    assert rows.shareable == all(_values_shareable(row) for row in oracle)
    # the rows are the caller's: mutating them never reaches the store
    for row in rows:
        for value in row.values():
            if isinstance(value, list):
                value.append(-1)
        row["n"] = "mutated"
    assert oracle_rows(store, user, user_level) == oracle
    # restricting a record through the DQ surface keeps the index in sync
    target = store.all()[0].record_id
    content.restrict("papers", target, security_level=3, available_to={user})
    assert target in {row["id"] for row in store.readable_rows(user, 0)}


# Values an update can make a record unshareable with, and shareable
# again with (a list replaced by a tuple).
reclassified_payloads = st.dictionaries(
    field_names,
    st.one_of(
        scalars,
        st.lists(st.integers(0, 9), max_size=2),
        st.tuples(st.integers(0, 9), scalars),
        st.tuples(st.lists(st.integers(0, 9), max_size=1)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "restore_record", "restore_update"]
        ),
        st.integers(0, 20),
        reclassified_payloads,
    ),
    min_size=1, max_size=14,
))
def test_shareable_equals_a_fresh_walk_after_any_write_history(ops):
    store = EntityStore("records")
    for kind, pick, payload in ops:
        ids = [record.record_id for record in store.all()]
        if kind == "insert" or not ids:
            store.insert(payload)
        elif kind == "restore_record":
            store.restore_record(
                store.high_water_id() + 1, payload, reserve=False
            )
        elif kind == "update":
            store.update(ids[pick % len(ids)], payload)
        else:
            store.restore_update(ids[pick % len(ids)], payload)
        for record in store.all():
            stored = store._live(record.record_id)
            assert stored.shareable == _values_shareable(stored.data)


def test_shareability_recovers_once_the_mutable_value_is_replaced():
    store = EntityStore("records")
    record_id = store.insert({"alpha": [1], "beta": 2}).record_id
    assert not store._live(record_id).shareable
    store.update(record_id, {"alpha": (1,)})
    assert store._live(record_id).shareable
    store.restore_update(record_id, {"beta": [2]})
    assert not store._live(record_id).shareable
    store.restore_update(record_id, {"beta": "2"})
    assert store._live(record_id).shareable


def test_concurrent_writers_never_tear_reader_snapshots():
    """Writers publish {'a': i, 'b': i}; a torn read would break a == b."""
    store = EntityStore("records")
    record_id = store.insert({"a": 0, "b": 0}).record_id
    stop = threading.Event()
    torn = []

    def writer():
        tick = 0
        while not stop.is_set():
            tick += 1
            store.update(record_id, {"a": tick, "b": tick})

    def reader():
        while not stop.is_set():
            snapshot = store.get(record_id)
            if snapshot.data["a"] != snapshot.data["b"]:
                torn.append(snapshot.data)
            snapshot.data["a"] = -1  # must never leak back

    workers = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    for worker in workers:
        worker.start()
    import time
    time.sleep(0.3)
    stop.set()
    for worker in workers:
        worker.join()
    assert torn == []
    final = store.get(record_id, deep=True)
    assert final.data["a"] == final.data["b"] >= 0


# -- IdAllocator: compaction keeps memory bounded, the guard keeps firing --


def test_reserved_contiguous_run_folds_into_the_watermark():
    allocator = IdAllocator(compact_threshold=8)
    for record_id in range(1, 1001):
        allocator.reserve(record_id)
    assert allocator.reserved_footprint() == 0  # all absorbed
    with pytest.raises(ValueError, match="already reserved"):
        allocator.reserve(500)


def test_sparse_tail_stays_bounded_and_guard_fires_after_folding():
    allocator = IdAllocator(compact_threshold=16)
    for record_id in range(2, 2002, 2):  # sparse: every other id
        allocator.reserve(record_id)
    assert allocator.reserved_footprint() <= 16
    # duplicates below the fold point and in the live tail both fire
    with pytest.raises(ValueError, match="already reserved"):
        allocator.reserve(2)
    with pytest.raises(ValueError, match="already reserved"):
        allocator.reserve(2000)
    # allocation stays ahead of everything reserved
    assert allocator.allocate() == 2001


def test_allocate_and_reserve_interleave_without_collisions():
    allocator = IdAllocator()
    first = allocator.allocate()
    allocator.reserve(first + 5)
    issued = {first, first + 5}
    for _ in range(10):
        fresh = allocator.allocate()
        assert fresh not in issued
        issued.add(fresh)


def test_values_shareable_classifier():
    assert _values_shareable({"a": 1, "b": "x", "c": (1, "y"), "d": None})
    assert not _values_shareable({"a": [1]})
    assert not _values_shareable({"a": {"k": 1}})
    assert not _values_shareable({"a": (1, [2])})
