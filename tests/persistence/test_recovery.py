"""Full-application crash recovery: byte-for-byte, both backends.

The oracle is ``capture_state`` — records, metadata sidecars, versions,
allocator watermark + sparse tail, and the audit trail.  A recovered app
must capture *equal* state, and its rebuilt hash indexes must agree with
a predicate scan over the recovered records.
"""

import random

import pytest

from repro.casestudy import easychair
from repro.cluster.loadgen import LoadGenerator
from repro.dq.metadata import Clock
from repro.persistence import (
    FileWALBackend,
    apply_op,
    capture_state,
    recover_app,
)
from repro.persistence.backend import MemoryBackend
from repro.runtime.app import WebApp
from repro.runtime.dqengine import build_app


@pytest.fixture()
def spec():
    return LoadGenerator(seed=23).spec


def _make_app(backend):
    app = build_app(easychair.build_design(), persistence=backend)
    for name, password, level, *_rest in easychair.USERS:
        app.add_user(name, password, level)
    return app


def _populate(app, spec, count=60, seed=7):
    """Every durable op kind: batched rows, single inserts (pinned and
    allocated), updates, retires, metadata re-stamps, audit events."""
    rng = random.Random(seed)
    writer = spec.cleared_users[0]
    payloads = [spec.clean_payload(rng) for _ in range(count)]
    batch = app.submit_batch(spec.form, payloads[: count - 10], writer)
    assert not batch.rejected and not batch.unauthorized
    ids = [record_id for _index, record_id in batch.accepted]
    for payload in payloads[count - 10 : count - 5]:
        ids.append(app.submit(spec.form, payload, writer).record_id)
    pin = max(ids) + 100
    stored = app.submit(
        spec.form, payloads[count - 5], writer, record_id=pin
    )
    ids.append(stored.record_id)
    entity = spec.entity
    for record_id in ids[:7]:
        app.store.modify(
            entity, record_id,
            {"overall_evaluation": rng.randint(-3, 3)}, writer,
        )
    retired = ids[7:10]
    for record_id in retired:
        app.store.entity(entity).delete(record_id)
    app.read(entity, writer)  # audit READ events must replay too
    app.commit()
    return entity, ids, retired, pin


@pytest.mark.durability
def test_recovery_is_byte_identical(durable_backend, spec):
    app = _make_app(durable_backend)
    entity, ids, retired, pin = _populate(app, spec)
    # data directories written by older builds stamp insert and rows
    # ops with a ``shareable`` key; replay must ignore it
    legacy = {
        "op": "insert", "entity": entity, "id": pin + 1,
        "data": spec.clean_payload(random.Random(5)), "pinned": True,
        "shareable": True,
    }
    durable_backend.append(legacy)
    apply_op(app, legacy)
    app.commit()
    oracle = capture_state(app)
    durable_backend.kill()

    recovered_backend = durable_backend.reopen()
    recovered = _make_app(recovered_backend)
    report = recover_app(recovered, recovered_backend)
    assert report.replayed_ops > 0
    assert capture_state(recovered) == oracle
    # the clock must resume past every durable tick, or post-recovery
    # stamps would collide with recovered ones
    assert recovered.clock.peek() >= app.clock.peek()
    recovered_backend.close()


@pytest.mark.durability
def test_recovery_rebuilds_indexes_and_allocator(durable_backend, spec):
    app = _make_app(durable_backend)
    entity, ids, retired, pin = _populate(app, spec)
    store = app.store.entity(entity)
    field = "overall_evaluation"
    expected = {
        value: sorted(r.record_id for r in store.find_by(field, value))
        for value in range(-3, 4)
    }
    durable_backend.kill()

    recovered_backend = durable_backend.reopen()
    recovered = _make_app(recovered_backend)
    recover_app(recovered, recovered_backend)
    recovered_store = recovered.store.entity(entity)
    for value, want in expected.items():
        got = sorted(
            r.record_id for r in recovered_store.find_by(field, value)
        )
        assert got == want
        # the column scan must agree with a full predicate scan, or
        # recovery rebuilt a stale spine
        scan = sorted(
            r.record_id
            for r in recovered_store.all()
            if r.data.get(field) == value
        )
        assert got == scan
    for record_id in retired:
        assert record_id not in recovered_store
    # the externally pinned id must still be refused after recovery —
    # the duplicate-replay guard survives the crash
    with pytest.raises(ValueError):
        recovered_store._ids.reserve(pin)
    recovered_backend.close()


@pytest.mark.durability
def test_recovery_after_checkpoint_plus_tail(durable_backend, spec):
    """Snapshot + WAL tail: ops after the checkpoint replay on top."""
    app = _make_app(durable_backend)
    _populate(app, spec, count=40)
    app.persistence.checkpoint(capture_state(app))
    rng = random.Random(99)
    writer = spec.cleared_users[0]
    tail = app.submit_batch(
        spec.form, [spec.clean_payload(rng) for _ in range(8)], writer
    )
    assert len(tail.accepted) == 8
    app.commit()
    oracle = capture_state(app)
    durable_backend.kill()

    recovered_backend = durable_backend.reopen()
    recovered = _make_app(recovered_backend)
    report = recover_app(recovered, recovered_backend)
    assert report.snapshot_records > 0
    assert report.replayed_ops > 0  # the tail actually replayed
    assert capture_state(recovered) == oracle
    recovered_backend.close()


@pytest.mark.durability
def test_audit_trail_replays_exactly(durable_backend, spec):
    app = _make_app(durable_backend)
    _populate(app, spec, count=30)
    events = [(e.tick, e.kind, e.user, e.record_id) for e in app.audit.events]
    durable_backend.kill()

    recovered_backend = durable_backend.reopen()
    recovered = _make_app(recovered_backend)
    recover_app(recovered, recovered_backend)
    assert [
        (e.tick, e.kind, e.user, e.record_id)
        for e in recovered.audit.events
    ] == events
    recovered_backend.close()


def test_memory_backend_recovers_nothing(spec):
    app = _make_app(MemoryBackend())
    _populate(app, spec, count=20)
    fresh = _make_app(MemoryBackend())
    report = recover_app(fresh, fresh.persistence)
    assert report.snapshot_records == 0
    assert report.replayed_ops == 0
    assert capture_state(fresh)["records_total"] == 0


@pytest.mark.parametrize("held, retired, chunk, message", [
    ((), (), [5, 5], "already in use"),  # repeated within the chunk
    ((5,), (), [6, 5], "already in use"),  # held by the store
    ((), (), [7, None, 7], "already in use"),  # behind an allocated row
    ((5,), (5,), [6, 5], "already reserved"),  # held once, since retired
], ids=["repeat", "held", "allocated", "retired"])
def test_a_refused_chunk_stores_nothing(
    tmp_path, held, retired, chunk, message
):
    def make(backend):
        app = WebApp("chunks", clock=Clock(), persistence=backend)
        app.define_entity("e", ("x",))
        return app

    backend = FileWALBackend(tmp_path / "wal")
    app = make(backend)
    entity = app.store.entity("e")
    for record_id in held:
        app.store.store_many("e", [{"x": 0}], "u", record_ids=[record_id])
    for record_id in retired:
        entity.delete(record_id)
    app.commit()
    before = capture_state(app)
    appended = backend.wal.appended
    with pytest.raises(ValueError, match=message):
        app.store.store_many(
            "e", [{"x": n} for n in range(1, len(chunk) + 1)], "u",
            record_ids=chunk,
        )
    app.commit()
    # nothing in memory: records, allocator and clock are as they were,
    # and neither the clearance index nor the spine holds a refused row
    assert capture_state(app) == before
    assert entity.readable_rows("u", 0) == [
        {"id": record_id, "version": 1, "x": 0}
        for record_id in held if record_id not in retired
    ]
    assert entity.find_by("x", 1) == []
    assert backend.wal.appended == appended
    backend.kill()
    reopened = FileWALBackend(tmp_path / "wal")
    recovered = make(reopened)
    recover_app(recovered, reopened)
    assert capture_state(recovered) == before
    reopened.close()
