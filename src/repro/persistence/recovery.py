"""Turning durable state back into a running :class:`WebApp`.

Recovery is a strict two-phase replay over what the backend brings back
(:meth:`~repro.persistence.backend.PersistenceBackend.recover`):

1. **Snapshot** — :func:`restore_state` re-materializes every entity's
   records from their columns with exact metadata sidecars and
   versions, restores the :class:`IdAllocator` state (watermark +
   sparse tail) verbatim, and re-appends the audit trail.  The
   allocator is restored *as state*, not derived from the surviving
   records — deriving it would lose reserved-but-unused ids and disarm
   the duplicate-replay guard.
2. **WAL tail** — ops with a sequence number past the snapshot's
   ``last_seq`` replay in durable order through the stores' ``restore_*``
   paths, which feed the columnar spine, confidentiality buckets and
   streaming-telemetry queue exactly like live writes but skip backend
   logging (the ops are already durable).

Finally the logical clock fast-forwards to the highest tick observed in
any durable state, so recovered metadata stamps are never reissued.

``capture_state`` is the inverse — the full-application snapshot the
backends persist at each checkpoint, and the one replication followers
bootstrap from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.dq.metadata import TRACEABILITY_ATTRIBUTES

from .backend import PersistenceBackend, RecoveryError

#: The per-record columns of an entity snapshot, in restore order; each
#: holds one value per id (see :meth:`EntityStore.dump_state`).
_RECORD_COLUMNS = ("ids", "versions", *TRACEABILITY_ATTRIBUTES, "state_of")


def capture_state(app) -> dict:
    """The application's complete durable state, checkpoint-ready:
    each entity's :meth:`~repro.runtime.storage.EntityStore.dump_state`
    columns and the audit trail's."""
    entities = {
        name: app.store.entity(name).dump_state()
        for name in app.store.entity_names
    }
    return {
        "app": app.name,
        "tick": app.clock.peek(),
        "entities": entities,
        "audit": app.audit.dump_state(),
        "records_total": sum(
            len(state["ids"]) for state in entities.values()
        ),
    }


def _parts(state, names, where: str) -> list:
    """``state[name]`` for each name, or :class:`RecoveryError` naming
    the first part ``where`` lacks."""
    if not isinstance(state, dict):
        raise RecoveryError(f"{where} is not an object")
    for name in names:
        if name not in state:
            raise RecoveryError(f"{where} has no {name!r}")
    return [state[name] for name in names]


def _restore_entity(entity, state, where: str) -> int:
    """Restore one entity's snapshot columns; returns the record count."""
    fields, columns, ragged, states, extra, allocator = _parts(
        state,
        ("fields", "columns", "rows", "states", "extra", "allocator"),
        where,
    )
    per_record = _parts(state, _RECORD_COLUMNS, where)
    count = len(per_record[0])
    if len(columns) != len(fields) or any(
        len(column) != count for column in (*per_record, *columns)
    ):
        raise RecoveryError(f"{where}: columns of unequal length")
    ragged = dict(ragged)
    extra = dict(extra)
    values = zip(*columns) if columns else repeat((), count)
    for position, (
        row, record_id, version, stored_by, stored_date,
        modified_by, modified_date, state_index,
    ) in enumerate(zip(values, *per_record)):
        level, grants = states[state_index]
        entity.restore_record(
            record_id,
            ragged[position] if position in ragged
            else dict(zip(fields, row)),
            metadata_state={
                "stored_by": stored_by,
                "stored_date": stored_date,
                "last_modified_by": modified_by,
                "last_modified_date": modified_date,
                "security_level": level,
                "available_to": grants,
                "extra": extra.get(position, ()),
            },
            version=version,
            reserve=None,
        )
    entity.restore_allocator(allocator)
    return count


def restore_state(app, snapshot) -> int:
    """Load a :func:`capture_state` snapshot into a structurally built,
    empty ``app``; returns the number of records restored.

    Every record goes through ``restore_record``, so the columnar
    spine, the clearance index and the telemetry queue are rebuilt, not
    trusted from the snapshot.  The allocator state is restored
    verbatim, the audit trail re-appended, and the clock fast-forwarded
    past every restored tick.  A snapshot that is not in this layout —
    a missing part, columns of unequal length, an entity the app does
    not define, or the older one-row-per-record layout — raises
    :class:`RecoveryError`.  Used by :func:`recover_app` and by
    replication followers seeded from a primary or a peer.
    """
    from repro.runtime.audit import EVENT_FIELDS

    entities, audit, tick = _parts(
        snapshot, ("entities", "audit", "tick"), "snapshot"
    )
    restored = 0
    for name, state in entities.items():
        try:
            entity = app.store.entity(name)
        except KeyError as exc:
            raise RecoveryError(
                f"snapshot references unknown entity {name!r}"
            ) from exc
        where = f"snapshot entity {name!r}"
        try:
            restored += _restore_entity(entity, state, where)
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise RecoveryError(f"{where} is malformed: {exc}") from exc
    events = _parts(audit, EVENT_FIELDS, "snapshot audit")
    if len(set(map(len, events))) > 1:
        raise RecoveryError("snapshot audit: columns of unequal length")
    for event in zip(*events):
        app.audit.restore_event(*event)
    app.clock.advance_to(max(tick, max(events[0], default=0)))
    return restored


@dataclass
class RecoveryReport:
    """What one recovery pass brought back."""

    backend: str = "memory"
    snapshot_records: int = 0
    replayed_ops: int = 0
    torn_bytes: int = 0
    tick: int = 0

    def render(self) -> str:
        torn = (
            f", {self.torn_bytes} torn byte(s) truncated"
            if self.torn_bytes
            else ""
        )
        return (
            f"recovered via {self.backend}: {self.snapshot_records} "
            f"snapshot record(s) + {self.replayed_ops} WAL op(s), "
            f"clock at t{self.tick}{torn}"
        )


def _op_tick(op: dict) -> int:
    """The highest logical-clock tick a WAL op carries."""
    kind = op["op"]
    if kind == "audit":
        return op.get("tick", 0)
    if kind == "audits":
        events = op.get("events") or ()
        return max((tick for tick, _record_id in events), default=0)
    if kind == "meta":
        meta = op["meta"]
        return max(
            meta.get("stored_date") or 0,
            meta.get("last_modified_date") or 0,
        )
    if kind == "adopt":
        meta = op.get("meta") or {}
        return max(
            meta.get("stored_date") or 0,
            meta.get("last_modified_date") or 0,
        )
    if kind == "rows" and op.get("by") is not None:
        # compact batched form: entry[3] is the row's stamp tick, and
        # rows were stamped in order, so the last row carries the max
        rows = op["rows"]
        return rows[-1][3] if rows else 0
    return 0


def apply_op(app, op: dict) -> None:
    """Replay one durable WAL op into a running app.

    The replay path recovery uses for the WAL tail, exposed for log
    shipping: a replication follower applies its primary's acked ops
    through exactly this function, so replicated state is rebuilt the
    same way crash-recovered state is.
    """
    _apply_op(app, op)


def op_tick(op: dict) -> int:
    """The highest logical-clock tick a WAL op carries (see ``_op_tick``)."""
    return _op_tick(op)


def _apply_op(app, op: dict) -> None:
    kind = op.get("op")
    if kind == "insert":
        app.store.entity(op["entity"]).restore_record(
            op["id"], op["data"], reserve=bool(op.get("pinned"))
        )
    elif kind == "rows":
        entity = app.store.entity(op["entity"])
        by = op.get("by")
        if by is not None:
            # compact batched form — the chunk shares one provenance
            # (user, level, grants) and one columnar field layout; each
            # row carries only its value list and stamp tick.
            # ``record_store`` wrote stored_* and last_modified_* from
            # the same tick, so the sidecar reconstructs exactly.
            level = op.get("level", 0)
            grants = op.get("grants", [])
            fields = op.get("fields", [])
            for record_id, values, pinned, tick in op["rows"]:
                data = (
                    dict(zip(fields, values))
                    if type(values) is list
                    else values  # off-layout row logged as a full dict
                )
                entity.restore_record(
                    record_id, data,
                    metadata_state={
                        "stored_by": by,
                        "stored_date": tick,
                        "last_modified_by": by,
                        "last_modified_date": tick,
                        "security_level": level,
                        "available_to": grants,
                        "extra": {},
                    },
                    reserve=bool(pinned),
                )
        else:
            for record_id, data, pinned in op["rows"]:
                entity.restore_record(
                    record_id, data, reserve=bool(pinned)
                )
    elif kind == "update":
        app.store.entity(op["entity"]).restore_update(
            op["id"], op["data"], version=op.get("version")
        )
    elif kind == "meta":
        app.store.entity(op["entity"]).restore_metadata(
            op["id"], op["meta"]
        )
    elif kind == "adopt":
        # migration handoff: a recipient shard takes ownership of a
        # record streamed off a donor, exact metadata sidecar and
        # version included.  ``reserve=True`` pins the foreign id so the
        # recipient's allocator can never re-issue it.
        app.store.entity(op["entity"]).restore_record(
            op["id"],
            op["data"],
            metadata_state=op.get("meta"),
            version=op.get("version", 1),
            reserve=True,
        )
    elif kind == "retire":
        app.store.entity(op["entity"]).restore_delete(op["id"])
    elif kind == "audit":
        app.audit.restore_event(
            op["tick"],
            op["kind"],
            op["user"],
            op["entity"],
            op.get("record_id"),
            op.get("detail", ""),
        )
    elif kind == "audits":
        detail = op.get("detail", "")
        for tick, record_id in op["events"]:
            app.audit.restore_event(
                tick, op["kind"], op["user"], op["entity"],
                record_id, detail,
            )
    else:
        raise RecoveryError(f"unknown WAL op kind {kind!r}")


def recover_app(app, backend: PersistenceBackend = None) -> RecoveryReport:
    """Replay ``backend``'s durable state into a freshly built ``app``.

    The app must be structurally configured (entities, forms, users —
    everything codegen emits) but empty of records; recovery raises
    :class:`RecoveryError` if the durable state references an entity the
    app does not define, or on any corruption past a torn tail.
    """
    backend = backend if backend is not None else app.persistence
    if not backend.durable:
        return RecoveryReport(
            backend=backend.name, tick=app.clock.peek()
        )
    recovered = backend.recover()
    snapshot_records = 0
    max_tick = 0
    if recovered.snapshot is not None:
        snapshot_records = restore_state(app, recovered.snapshot)
    for op in recovered.ops:
        try:
            _apply_op(app, op)
        except KeyError as exc:
            raise RecoveryError(
                f"WAL op {op.get('op')!r} references unknown state: {exc}"
            ) from exc
        max_tick = max(max_tick, _op_tick(op))
    app.clock.advance_to(max_tick)
    return RecoveryReport(
        backend=backend.name,
        snapshot_records=snapshot_records,
        replayed_ops=len(recovered.ops),
        torn_bytes=recovered.torn_bytes,
        tick=app.clock.peek(),
    )
