"""Turning durable state back into a running :class:`WebApp`.

Recovery is a strict two-phase replay over what the backend brings back
(:meth:`~repro.persistence.backend.PersistenceBackend.recover`):

1. **Snapshot** — every entity's records are re-materialized with their
   exact metadata sidecars and versions, the :class:`IdAllocator` state
   (watermark + sparse tail) is restored verbatim, and the audit trail
   is re-appended.  The allocator is restored *as state*, not derived
   from the surviving records — deriving it would lose
   reserved-but-unused ids and disarm the duplicate-replay guard.
2. **WAL tail** — ops with a sequence number past the snapshot's
   ``last_seq`` replay in durable order through the stores' ``restore_*``
   paths, which feed the columnar spine, confidentiality buckets and
   streaming-telemetry queue exactly like live writes but skip backend
   logging (the ops are already durable).

Finally the logical clock fast-forwards to the highest tick observed in
any durable state, so recovered metadata stamps are never reissued.

``capture_state`` is the inverse — the full-application snapshot the
backends persist at each checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import PersistenceBackend, RecoveryError


def capture_state(app) -> dict:
    """The application's complete durable state, checkpoint-ready."""
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
            len(state["records"]) for state in entities.values()
        ),
    }


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
    snapshot = recovered.snapshot
    if snapshot:
        max_tick = max(max_tick, snapshot.get("tick", 0))
        for name, state in snapshot.get("entities", {}).items():
            try:
                entity = app.store.entity(name)
            except KeyError as exc:
                raise RecoveryError(
                    f"snapshot references unknown entity {name!r}"
                ) from exc
            for record_id, data, meta_state, version in state["records"]:
                entity.restore_record(
                    record_id,
                    data,
                    metadata_state=meta_state,
                    version=version,
                    reserve=None,
                )
                snapshot_records += 1
            entity.restore_allocator(state["allocator"])
        for tick, kind, user, entity_name, record_id, detail in (
            snapshot.get("audit", ())
        ):
            app.audit.restore_event(
                tick, kind, user, entity_name, record_id, detail
            )
            max_tick = max(max_tick, tick)
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
