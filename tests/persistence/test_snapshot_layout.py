"""The columnar checkpoint: what ``capture_state`` holds and what
``restore_state`` rebuilds from it.

A snapshot keeps each entity as one list per field plus the
traceability and confidentiality columns, and the audit trail as one
list per event field, so its size in collector-tracked containers does
not grow with the records or events it holds.  Restoring it — through
``recover_app`` on either durable backend, or through a replica set's
bootstrap — must give back an application whose capture, confidential
reads and equality scans equal the original's.
"""

import gc
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import webshop
from repro.cluster.replication import ReplicaSet, ReplicationLog
from repro.dq.metadata import Clock
from repro.persistence import (
    FileWALBackend,
    RecoveryError,
    SQLiteBackend,
    capture_state,
    decode_payload,
    encode_payload,
    recover_app,
    restore_state,
)
from repro.persistence.wal import _plain
from repro.runtime import audit as audit_events
from repro.runtime.app import WebApp
from repro.runtime.dqengine import build_app

ORDER_FORM = "Manage order data form"
ORDER_WRITER = "integration_bot"


def _tracked_containers(value) -> int:
    """Collector-tracked containers in a JSON-plain ``value``."""
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, list):
        children = value
    else:
        return 0
    return gc.is_tracked(value) + sum(map(_tracked_containers, children))


def _orders(count: int, rng: random.Random) -> list:
    rows = []
    for serial in range(count):
        quantity = rng.randint(1, 12)
        price = rng.randint(99, 99_999)
        rows.append({
            "order_id": f"O-{serial:07d}",
            "customer_id": f"C-{rng.randint(1, 5000):05d}",
            "sku": f"SKU-{rng.randint(0, 239):04d}",
            "quantity": quantity,
            "unit_price_cents": price,
            "total_cents": quantity * price,
            "channel": rng.choice(webshop.TRUSTED_CHANNELS),
        })
    return rows


def test_snapshot_containers_do_not_grow_with_records_or_events():
    app = build_app(webshop.build_design(), clock=Clock())
    for name, level, roles in webshop.USERS:
        app.add_user(name, level, roles)
    rng = random.Random(7)
    sizes = []
    for orders in (500, 1500):
        rows = _orders(orders, rng)
        for start in range(0, orders, 25):
            batch = app.submit_batch(
                ORDER_FORM, rows[start:start + 25], ORDER_WRITER
            )
            assert batch.all_accepted, batch.render()
        snapshot = capture_state(app)
        assert _plain(snapshot)  # the codec's fast lane: nothing to tag
        sizes.append((
            snapshot["records_total"],
            len(app.audit),
            _tracked_containers(snapshot),
        ))
    (few, few_events, small), (many, many_events, large) = sizes
    assert (few, many) == (500, 2000)
    assert many_events > few_events >= few
    # fields, traceability and audit columns: a fixed handful, where
    # one list per record or event would add thousands
    assert large == small
    assert large <= 128


# -- round trips -------------------------------------------------------------

USERS = ("ann", "bob", "cy", "zed")
ENTITIES = ("items", "notes")

_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["", "x", "~", '"~"', "a~b"]),
    st.none(),
    st.tuples(st.integers(0, 2), st.sampled_from(["~", "t"])),
    st.frozensets(st.integers(0, 3), max_size=2),
    st.binary(max_size=3),
    st.dictionaries(st.sampled_from(["~", "v"]), st.integers(0, 2),
                    min_size=1, max_size=2),
)
_rows = st.one_of(
    st.fixed_dictionaries(
        {"a": _values, "b": _values}, optional={"~": _values}
    ),
    st.dictionaries(st.sampled_from(["a", "b", "c", "~"]), _values,
                    max_size=3),
)
_levels = st.integers(0, 3)
_grants = st.frozensets(st.sampled_from(USERS[:3]), max_size=2)
_entity = st.sampled_from(ENTITIES)
_pick = st.integers(0, 63)

_op = st.one_of(
    st.tuples(st.just("store"), _entity, _rows, _levels, _grants),
    st.tuples(st.just("store_many"), _entity,
              st.lists(_rows, min_size=1, max_size=4), _levels, _grants),
    st.tuples(st.just("modify"), _entity, _pick, _rows),
    st.tuples(st.just("delete"), _entity, _pick),
    st.tuples(st.just("restrict"), _entity, _pick, _levels, _grants),
    st.tuples(st.just("extra"), _entity, _pick, _values),
    st.tuples(st.just("audit"), _entity, _pick,
              st.sampled_from(["", "~", "note"])),
)
_ops = st.lists(_op, max_size=24)


def _make_app(persistence=None) -> WebApp:
    app = WebApp("snapshots", clock=Clock(), persistence=persistence)
    app.define_entity("items", ("a", "b"))
    app.define_entity("notes", ())
    return app


def _apply(app, ops, live) -> None:
    """Run ``ops`` against ``app``; ``live`` maps (entity, id) to the
    live record the write path returned."""
    for op in ops:
        kind, entity = op[0], op[1]
        ids = [rid for (name, rid) in live if name == entity]
        if kind == "store":
            _kind, _entity_name, row, level, grants = op
            stored = app.store.store(entity, row, "ann", level, grants)
            live[entity, stored.record_id] = stored
        elif kind == "store_many":
            _kind, _entity_name, rows, level, grants = op
            for stored in app.store.store_many(
                entity, rows, "bob", level, grants
            ):
                live[entity, stored.record_id] = stored
        elif not ids:
            continue
        else:
            record_id = ids[op[2] % len(ids)]
            if kind == "modify":
                app.store.modify(entity, record_id, op[3], "cy")
            elif kind == "delete":
                app.store.entity(entity).delete(record_id)
                del live[entity, record_id]
            elif kind == "restrict":
                app.store.restrict(entity, record_id, op[3], op[4])
            elif kind == "extra":
                meta = live[entity, record_id].metadata
                meta.extra["note"] = op[3]
                app.store.restrict(
                    entity, record_id, meta.security_level,
                    meta.available_to,
                )
            else:
                app.audit.record(
                    audit_events.READ, "zed", entity, record_id, op[3]
                )
        app.commit()


def _assert_same_answers(restored, original) -> None:
    assert capture_state(restored) == capture_state(original)
    for entity in ENTITIES:
        want, got = (
            app.store.entity(entity) for app in (original, restored)
        )
        for user in USERS:
            for level in range(4):
                assert got.readable_rows(user, level) == \
                    want.readable_rows(user, level)
        probes = [
            (name, value)
            for stored in want.all()
            for name, value in stored.data.items()
        ]
        for name, value in probes + [("a", "absent")]:
            assert got.find_by(name, value) == want.find_by(name, value)


_BACKENDS = {
    "file": lambda root: FileWALBackend(f"{root}/wal"),
    "sqlite": lambda root: SQLiteBackend(f"{root}/state.db"),
}


@pytest.mark.durability
@pytest.mark.parametrize("kind", sorted(_BACKENDS))
@given(ops=_ops, cut=st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_recovery_from_the_columnar_snapshot(kind, ops, cut):
    with tempfile.TemporaryDirectory() as root:
        backend = _BACKENDS[kind](root)
        app = _make_app(backend)
        live = {}
        _apply(app, ops[:cut], live)
        backend.checkpoint(capture_state(app))
        checkpointed = len(live)
        _apply(app, ops[cut:], live)
        backend.kill()
        reopened = _BACKENDS[kind](root)
        recovered = _make_app(reopened)
        report = recover_app(recovered, reopened)
        assert report.snapshot_records == checkpointed
        _assert_same_answers(recovered, app)
        reopened.close()


@pytest.mark.replication
@given(ops=_ops)
@settings(max_examples=40, deadline=None)
def test_followers_bootstrap_from_the_columnar_snapshot(ops):
    app = _make_app()
    _apply(app, ops, {})
    replicas = ReplicaSet(_make_app, ReplicationLog(), count=1)
    replicas.seed_from(app)
    _assert_same_answers(replicas.follower(0), app)
    promoted, lead = replicas.promote()
    _assert_same_answers(promoted, app)
    _assert_same_answers(replicas.follower(lead), app)


# -- what restore_state refuses ------------------------------------------------


@pytest.fixture()
def snapshot():
    app = _make_app()
    _apply(app, [
        ("store_many", "items", [{"a": 1, "b": 2}, {"a": 3}], 1, {"ann"}),
        ("audit", "items", 0, "seen"),
    ], {})
    return decode_payload(encode_payload(capture_state(app)))


def test_a_snapshot_round_trips_through_the_codec(snapshot):
    app = _make_app()
    assert restore_state(app, snapshot) == 2
    assert capture_state(app) == snapshot


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.pop("entities"), "snapshot has no 'entities'"),
    (lambda s: s["entities"]["items"].pop("ids"),
     "snapshot entity 'items' has no 'ids'"),
    (lambda s: s["entities"]["items"].pop("stored_by"),
     "snapshot entity 'items' has no 'stored_by'"),
    (lambda s: s["entities"]["items"]["versions"].append(1),
     "snapshot entity 'items': columns of unequal length"),
    (lambda s: s["entities"]["items"]["columns"][0].pop(),
     "snapshot entity 'items': columns of unequal length"),
    (lambda s: s["entities"].update(orders={}),
     "snapshot references unknown entity 'orders'"),
    (lambda s: s["audit"].pop("detail"),
     "snapshot audit has no 'detail'"),
    (lambda s: s["audit"]["tick"].append(9),
     "snapshot audit: columns of unequal length"),
])
def test_a_damaged_snapshot_names_what_is_wrong(snapshot, damage, message):
    damage(snapshot)
    with pytest.raises(RecoveryError) as excinfo:
        restore_state(_make_app(), snapshot)
    assert str(excinfo.value) == message


def test_the_row_layout_is_refused(snapshot):
    # one [id, data, metadata, version] row per record, one list per
    # audit event: the layout before columnar checkpoints
    rows = {
        "records": [[1, {"a": 1, "b": 2}, {"stored_by": "bob"}, 1]],
        "allocator": snapshot["entities"]["items"]["allocator"],
    }
    snapshot["entities"] = {"items": rows}
    snapshot["audit"] = [[3, "read", "zed", "items", 1, "seen"]]
    with pytest.raises(RecoveryError, match="has no 'fields'"):
        restore_state(_make_app(), snapshot)
    snapshot["entities"] = {}
    with pytest.raises(RecoveryError, match="snapshot audit is not an"):
        restore_state(_make_app(), snapshot)
