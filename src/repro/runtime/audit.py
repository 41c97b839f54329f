"""The audit trail — the Traceability DQSR at runtime.

*"This traceability requirement will make the application responsible for
adding the metadata whose purpose will be to keep records about who stored
the data ... as well as when"* (paper §4, requirement 3).  Besides the
per-record metadata sidecar, the application keeps a global, queryable audit
trail of every read, write and rejection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Optional

from repro.dq.metadata import Clock

#: Audit event kinds.
STORE = "store"
MODIFY = "modify"
READ = "read"
REJECT_DQ = "reject-dq"
REJECT_AUTH = "reject-auth"

KINDS = (STORE, MODIFY, READ, REJECT_DQ, REJECT_AUTH)


@dataclass(frozen=True)
class AuditEvent:
    """One entry in the trail."""

    tick: int
    kind: str
    user: str
    entity: str
    record_id: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        where = f"{self.entity}#{self.record_id}" if self.record_id else self.entity
        suffix = f" — {self.detail}" if self.detail else ""
        return f"t{self.tick} {self.kind} {where} by {self.user}{suffix}"


#: The columns of :meth:`AuditTrail.dump_state`, in constructor order.
EVENT_FIELDS = tuple(f.name for f in fields(AuditEvent))

_EVENT_COLUMNS = tuple((name, attrgetter(name)) for name in EVENT_FIELDS)


class AuditTrail:
    """An append-only log of application events."""

    def __init__(self, clock: Clock, backend=None):
        self._clock = clock
        self._events: list[AuditEvent] = []
        self._lock = threading.Lock()
        # Durable logging mirrors the entity stores: only a durable
        # backend gets ops; syncing is the application's group commit.
        self._backend = (
            backend if backend is not None and backend.durable else None
        )

    def attach_backend(self, backend) -> None:
        """Swap the durable backend in place (replication failover)."""
        with self._lock:
            self._backend = (
                backend if backend is not None and backend.durable else None
            )

    def record(
        self,
        kind: str,
        user: str,
        entity: str,
        record_id: Optional[int] = None,
        detail: str = "",
    ) -> AuditEvent:
        if kind not in KINDS:
            raise ValueError(f"unknown audit event kind {kind!r}")
        with self._lock:
            event = AuditEvent(
                self._clock.now(), kind, user, entity, record_id, detail
            )
            self._events.append(event)
            if self._backend is not None:
                self._backend.append({
                    "op": "audit",
                    "tick": event.tick,
                    "kind": event.kind,
                    "user": event.user,
                    "entity": event.entity,
                    "record_id": event.record_id,
                    "detail": event.detail,
                })
            return event

    def record_many(
        self,
        kind: str,
        user: str,
        entity: str,
        record_ids,
        detail: str = "",
    ) -> list[AuditEvent]:
        """One event per record id, exactly as :meth:`record` would
        stamp them (same per-event clock reads), but under a single lock
        trip and — when durable — a single combined WAL op.  The batched
        write path uses this so audit durability costs O(chunks), not
        O(records)."""
        if kind not in KINDS:
            raise ValueError(f"unknown audit event kind {kind!r}")
        with self._lock:
            events = [
                AuditEvent(
                    self._clock.now(), kind, user, entity, record_id, detail
                )
                for record_id in record_ids
            ]
            self._events.extend(events)
            if self._backend is not None and events:
                self._backend.append({
                    "op": "audits",
                    "kind": kind,
                    "user": user,
                    "entity": entity,
                    "detail": detail,
                    "events": [
                        [event.tick, event.record_id] for event in events
                    ],
                })
            return events

    # -- crash recovery ------------------------------------------------------

    def restore_event(
        self,
        tick: int,
        kind: str,
        user: str,
        entity: str,
        record_id: Optional[int] = None,
        detail: str = "",
    ) -> AuditEvent:
        """Re-append a durable event verbatim (no clock tick, no logging)."""
        with self._lock:
            event = AuditEvent(tick, kind, user, entity, record_id, detail)
            self._events.append(event)
            return event

    def dump_state(self) -> dict:
        """The full trail as snapshot-ready columns: one list per
        :data:`EVENT_FIELDS` name, in event order."""
        with self._lock:
            return {
                name: list(map(getter, self._events))
                for name, getter in _EVENT_COLUMNS
            }

    # -- queries (the Traceability payoff) ----------------------------------

    @property
    def events(self) -> list[AuditEvent]:
        return list(self._events)

    def by_kind(self, kind: str) -> list[AuditEvent]:
        return [e for e in self._events if e.kind == kind]

    def by_user(self, user: str) -> list[AuditEvent]:
        return [e for e in self._events if e.user == user]

    def by_entity(self, entity: str) -> list[AuditEvent]:
        return [e for e in self._events if e.entity == entity]

    def for_record(self, entity: str, record_id: int) -> list[AuditEvent]:
        return [
            e
            for e in self._events
            if e.entity == entity and e.record_id == record_id
        ]

    def who_changed(self, entity: str, record_id: int) -> list[str]:
        """The distinct users who stored or modified a record, in order."""
        users: list[str] = []
        for event in self.for_record(entity, record_id):
            if event.kind in (STORE, MODIFY) and event.user not in users:
                users.append(event.user)
        return users

    def rejections(self) -> list[AuditEvent]:
        return [e for e in self._events if e.kind in (REJECT_DQ, REJECT_AUTH)]

    def select(self, predicate: Callable[[AuditEvent], bool]) -> list[AuditEvent]:
        return [e for e in self._events if predicate(e)]

    def render(self, limit: Optional[int] = None) -> str:
        events = self._events if limit is None else self._events[-limit:]
        return "\n".join(e.render() for e in events)

    def __len__(self) -> int:
        return len(self._events)
