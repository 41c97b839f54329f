"""The DQ-aware web application: routes + forms + storage + enforcement.

A :class:`WebApp` assembles the whole runtime: the router, the content store
with DQ metadata sidecars, the user directory and confidentiality policies,
the audit trail, and the per-form validator pipelines.  Its request pipeline
implements every DQSR family of the paper's case study:

* **Completeness / Precision** — form validators run before any write; a
  failing write is rejected with 422 and the findings (never stored);
* **Confidentiality** — writes require clearance; reads are filtered to
  records the user may see (security level or explicit grant);
* **Traceability** — every accepted write stamps the metadata sidecar and
  the global audit trail records every store/modify/read/rejection.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence

from repro.core.errors import (
    AuthorizationError,
    DataQualityViolation,
    VersionConflictError,
)
from repro.dq.metadata import Clock
from repro.persistence import MemoryBackend, PersistenceBackend, capture_state

from . import audit as audit_events
from .audit import AuditTrail
from .forms import Form
from .http import (
    Request,
    Response,
    bad_request,
    conflict,
    created,
    forbidden,
    not_found,
    ok,
    unprocessable,
)
from .routing import Handler, Router
from .security import PolicyBook, UserDirectory
from .storage import ContentStore, StoredRecord
from .vpipeline import PlanCache, ValidationStats


class BatchResult:
    """Outcome of a bulk load: which rows landed, which were refused."""

    def __init__(self):
        self.accepted: list[tuple[int, int]] = []       # (row, record_id)
        self.rejected: list[tuple[int, list]] = []      # (row, findings)
        self.unauthorized: list[tuple[int, str]] = []   # (row, reason)

    @property
    def total(self) -> int:
        return len(self.accepted) + len(self.rejected) + len(self.unauthorized)

    @property
    def all_accepted(self) -> bool:
        return not self.rejected and not self.unauthorized

    def render(self) -> str:
        return (
            f"batch of {self.total}: {len(self.accepted)} accepted, "
            f"{len(self.rejected)} DQ-rejected, "
            f"{len(self.unauthorized)} unauthorized"
        )


class WebApp:
    """One simulated, DQ-aware web application."""

    def __init__(
        self,
        name: str,
        clock: Optional[Clock] = None,
        plan_cache: Optional[PlanCache] = None,
        persistence: Optional[PersistenceBackend] = None,
    ):
        self.name = name
        self.clock = clock or Clock()
        # Pluggable durability: the default MemoryBackend is non-durable
        # and the stores skip it entirely, so the in-memory write path
        # is byte-for-byte what it was before persistence existed.
        self.persistence = (
            persistence if persistence is not None else MemoryBackend()
        )
        backend = self.persistence if self.persistence.durable else None
        self.store = ContentStore(self.clock, backend=backend)
        self.audit = AuditTrail(self.clock, backend=backend)
        self.users = UserDirectory()
        self.policies = PolicyBook()
        self.router = Router()
        self._forms: dict[str, Form] = {}
        self._required_fields: dict[str, tuple] = {}
        self._metadata_captures: dict[str, tuple] = {}
        # A shared plan_cache (e.g. one cache across all shards of a
        # gateway) lets identical chains compile once fleet-wide.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.validation = ValidationStats()

    # -- configuration (what codegen emits) ----------------------------------

    def define_entity(
        self,
        name: str,
        fields: Sequence[str],
        required_fields: Sequence[str] = (),
        indexed_fields: Sequence[str] = (),
    ) -> "WebApp":
        store = self.store.define(name, fields)
        for field_name in indexed_fields:
            store.create_index(field_name)
        self._required_fields[name] = tuple(required_fields)
        return self

    def set_policy(
        self, entity: str, security_level: int, grant_writer_access: bool = True
    ) -> "WebApp":
        self.policies.set(entity, security_level, grant_writer_access)
        return self

    def capture_metadata(self, entity: str, attributes: Sequence[str]) -> "WebApp":
        """Declare which DQ metadata the app captures for an entity."""
        existing = set(self._metadata_captures.get(entity, ()))
        existing.update(attributes)
        self._metadata_captures[entity] = tuple(sorted(existing))
        for form in self._forms.values():
            if form.entity == entity:
                form.set_metadata_attributes(self._metadata_captures[entity])
        return self

    def register_form(self, form: Form) -> Form:
        if form.name in self._forms:
            raise ValueError(f"form {form.name!r} already registered")
        if not self.store.has_entity(form.entity):
            raise ValueError(
                f"form {form.name!r} targets unknown entity {form.entity!r}"
            )
        form.use_plan_cache(self.plan_cache)
        form.set_metadata_attributes(
            self._metadata_captures.get(form.entity, ())
        )
        self._forms[form.name] = form
        return form

    def form(self, name: str) -> Form:
        try:
            return self._forms[name]
        except KeyError:
            raise KeyError(f"no form named {name!r}") from None

    @property
    def forms(self) -> list[Form]:
        return list(self._forms.values())

    def add_user(self, name: str, level: int = 0, roles=()) -> "WebApp":
        self.users.register(name, level, roles)
        return self

    def route(self, path: str, method: str, handler: Handler) -> "WebApp":
        self.router.add(path, method, handler)
        return self

    # -- durability ------------------------------------------------------------

    def attach_persistence(self, backend) -> None:
        """Re-point the running app at a (new) persistence backend.

        The replication failover path promotes a caught-up follower —
        an app built without durable storage — to primary; the promoted
        app must then log every further mutation, so the stores and the
        audit trail are re-wired onto ``backend`` in place.  The backend
        is expected to already hold (or wrap) the durable history this
        app's state came from; nothing is replayed here.
        """
        from repro.persistence import MemoryBackend

        self.persistence = backend if backend is not None else MemoryBackend()
        self.store.attach_backend(
            self.persistence if self.persistence.durable else None
        )
        self.audit.attach_backend(self.persistence)

    def commit(self) -> None:
        """Group commit: make every logged op durable, compact when due.

        The write pipelines call this once per acknowledged operation
        (once per batch for bulk loads), so an acknowledged write always
        survives a kill while a batch pays a single sync barrier.  When
        the WAL tail has outgrown the last snapshot the whole
        application state is checkpointed and the log truncated.  No-op
        on non-durable backends.
        """
        backend = self.persistence
        if not backend.durable:
            return
        backend.sync()
        if backend.should_compact():
            backend.checkpoint(capture_state(self))

    # -- core operations -------------------------------------------------------

    def submit(
        self,
        form_name: str,
        data: dict,
        user: str,
        record_id: Optional[int] = None,
    ) -> StoredRecord:
        """The write pipeline: bind → validate → authorize → store → stamp.

        Raises :class:`DataQualityViolation` on validator findings and
        :class:`AuthorizationError` on clearance failures; both are audited.
        ``record_id`` lets a fronting layer that allocates ids globally
        (:mod:`repro.cluster`) pin the stored id.
        """
        form = self.form(form_name)
        record = form.bind(data)
        t0 = perf_counter()
        findings = form.validate(record)
        self.validation.observe(1, perf_counter() - t0)
        if findings:
            self.audit.record(
                audit_events.REJECT_DQ,
                user,
                form.entity,
                detail="; ".join(f.render() for f in findings),
            )
            raise DataQualityViolation(
                f"form {form_name!r}: {len(findings)} DQ finding(s)",
                findings,
            )
        return self._store_validated(form, record, user, record_id)

    def _store_validated(
        self,
        form: Form,
        record: dict,
        user: str,
        record_id: Optional[int],
    ) -> StoredRecord:
        """Authorize + store + stamp one already-validated record."""
        account = self.users.get(user)
        policy = self.policies.for_entity(form.entity)
        try:
            self.policies.check_write(form.entity, account)
        except AuthorizationError as exc:
            self.audit.record(
                audit_events.REJECT_AUTH, user, form.entity, detail=str(exc)
            )
            raise
        grants = [user] if policy.grant_writer_access else []
        stored = self.store.store(
            form.entity,
            record,
            user,
            security_level=policy.security_level,
            available_to=grants,
            record_id=record_id,
        )
        self.audit.record(
            audit_events.STORE, user, form.entity, stored.record_id
        )
        self.commit()
        return stored

    def modify(
        self,
        form_name: str,
        record_id: int,
        data: dict,
        user: str,
        expected_version: Optional[int] = None,
    ) -> StoredRecord:
        """The update pipeline: version-check → merge → validate →
        authorize → stamp.

        ``expected_version`` enables optimistic concurrency: pass the
        version the client read; a mismatch raises
        :class:`VersionConflictError` before anything is touched.
        """
        form = self.form(form_name)
        current = self.store.entity(form.entity).get(record_id)
        if expected_version is not None and current.version != expected_version:
            raise VersionConflictError(
                f"{form.entity}#{record_id}: expected version "
                f"{expected_version}, stored version is {current.version}"
            )
        merged = dict(current.data)
        merged.update({k: v for k, v in data.items() if k in form.fields})
        t0 = perf_counter()
        findings = form.validate(merged)
        self.validation.observe(1, perf_counter() - t0)
        if findings:
            self.audit.record(
                audit_events.REJECT_DQ,
                user,
                form.entity,
                record_id,
                detail="; ".join(f.render() for f in findings),
            )
            raise DataQualityViolation(
                f"form {form_name!r}: {len(findings)} DQ finding(s)",
                findings,
            )
        account = self.users.get(user)
        try:
            self.policies.check_write(form.entity, account)
        except AuthorizationError as exc:
            self.audit.record(
                audit_events.REJECT_AUTH, user, form.entity, record_id,
                detail=str(exc),
            )
            raise
        stored = self.store.modify(form.entity, record_id, merged, user)
        self.audit.record(
            audit_events.MODIFY, user, form.entity, record_id
        )
        self.commit()
        return stored

    def submit_batch(
        self,
        form_name: str,
        records: list,
        user: str,
        record_ids: Optional[Sequence[int]] = None,
    ) -> "BatchResult":
        """Bulk load (the BI extract-import scenario): partial accept.

        Each record goes through the full write pipeline independently;
        valid rows are stored, invalid ones reported — the batch never
        fails as a whole, and every rejection is audited as usual.
        ``record_ids`` lets a fronting layer that allocates ids globally
        (the sharded gateway's write batcher) pin each row's id, exactly
        like the ``record_id`` argument of :meth:`submit`.
        """
        if record_ids is not None and len(record_ids) != len(records):
            raise ValueError(
                f"{len(record_ids)} record id(s) for {len(records)} record(s)"
            )
        result = BatchResult()
        # One vectorized validate_batch over the whole chunk
        # (the records were just bound, so the plan may skip its layout
        # check), then ONE authorization check and ONE ``store_many``
        # trip for every valid row — same per-row stamps and audit
        # events as the per-record pipeline, but the entity lock and the
        # telemetry accumulators are touched once per chunk.
        form = self.form(form_name)
        bound = [form.bind(record) for record in records]
        t0 = perf_counter()
        per_record = form.validate_batch(bound, prebound=True)
        self.validation.observe(
            len(bound), perf_counter() - t0, batched=True
        )
        valid: list[tuple[int, dict, Optional[int]]] = []
        for index, (record, findings) in enumerate(zip(bound, per_record)):
            pinned = record_ids[index] if record_ids is not None else None
            if findings:
                self.audit.record(
                    audit_events.REJECT_DQ,
                    user,
                    form.entity,
                    detail="; ".join(f.render() for f in findings),
                )
                result.rejected.append((index, findings))
            else:
                valid.append((index, record, pinned))
        if not valid:
            return result
        account = self.users.get(user)
        policy = self.policies.for_entity(form.entity)
        try:
            self.policies.check_write(form.entity, account)
        except AuthorizationError as exc:
            detail = str(exc)
            for index, _record, _pinned in valid:
                self.audit.record(
                    audit_events.REJECT_AUTH, user, form.entity,
                    detail=detail,
                )
                result.unauthorized.append((index, detail))
            return result
        grants = [user] if policy.grant_writer_access else []
        stored_list = self.store.store_many(
            form.entity,
            [record for _index, record, _pinned in valid],
            user,
            security_level=policy.security_level,
            available_to=grants,
            record_ids=[pinned for _index, _record, pinned in valid],
        )
        self.audit.record_many(
            audit_events.STORE, user, form.entity,
            [stored.record_id for stored in stored_list],
        )
        for (index, _record, _pinned), stored in zip(valid, stored_list):
            result.accepted.append((index, stored.record_id))
        self.commit()
        return result

    def read(self, entity: str, user: str) -> Sequence[StoredRecord]:
        """Confidentiality-filtered read of an entity's records."""
        account = self.users.get(user)
        visible = self.store.readable_by(entity, user, account.level)
        self.audit.record(
            audit_events.READ, user, entity,
            detail=f"{len(visible)} record(s) visible",
        )
        return visible

    def read_record(
        self, entity: str, record_id: int, user: str
    ) -> StoredRecord:
        """Read one record; raises :class:`AuthorizationError` when hidden."""
        stored = self.store.entity(entity).get(record_id)
        account = self.users.get(user)
        if not stored.metadata.accessible_by(user, account.level):
            self.audit.record(
                audit_events.REJECT_AUTH, user, entity, record_id,
                detail="read denied by confidentiality policy",
            )
            raise AuthorizationError(
                f"user {user!r} may not read {entity}#{record_id}"
            )
        self.audit.record(audit_events.READ, user, entity, record_id)
        return stored

    # -- handler factories (what routes are made of) ------------------------------

    def create_handler(self, form_name: str) -> Handler:
        def handle(request: Request) -> Response:
            try:
                stored = self.submit(form_name, request.data, request.user)
            except DataQualityViolation as exc:
                return unprocessable(exc.findings)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            return created({"id": stored.record_id})

        return handle

    def update_handler(self, form_name: str) -> Handler:
        def handle(request: Request) -> Response:
            raw_id = request.params.get("id")
            if raw_id is None:
                return bad_request("missing record id")
            entity = self.form(form_name).entity
            try:
                record_id = int(raw_id)
                self.store.entity(entity).get(record_id)
            except (ValueError, KeyError):
                return not_found(f"no record {raw_id!r}")
            payload = dict(request.data)
            expected_version = payload.pop("expected_version", None)
            try:
                stored = self.modify(
                    form_name, record_id, payload, request.user,
                    expected_version=expected_version,
                )
            except DataQualityViolation as exc:
                return unprocessable(exc.findings)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            except VersionConflictError as exc:
                return conflict(str(exc))
            return ok({"id": stored.record_id, "version": stored.version})

        return handle

    def list_handler(self, entity: str) -> Handler:
        def handle(request: Request) -> Response:
            visible = self.read(entity, request.user)
            return ok(
                [
                    {"id": s.record_id, **s.data}
                    for s in visible
                ]
            )

        return handle

    def view_handler(self, entity: str) -> Handler:
        def handle(request: Request) -> Response:
            raw_id = request.params.get("id")
            if raw_id is None:
                return bad_request("missing record id")
            try:
                record_id = int(raw_id)
            except ValueError:
                return bad_request(f"bad record id {raw_id!r}")
            try:
                stored = self.read_record(entity, record_id, request.user)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            except KeyError:
                return not_found(f"no record {record_id}")
            return ok({"id": stored.record_id, **stored.data})

        return handle

    # -- request entry point ----------------------------------------------------

    def handle(self, request: Request) -> Response:
        return self.router.dispatch(request)

    def get(self, path: str, user: str = "anonymous") -> Response:
        return self.handle(Request("GET", path, user=user))

    def post(self, path: str, data: dict, user: str = "anonymous") -> Response:
        return self.handle(Request("POST", path, user=user, data=data))

    # -- introspection -----------------------------------------------------------

    def describe(self) -> str:
        lines = [f"WebApp {self.name!r}"]
        lines.append(f"  entities: {', '.join(self.store.entity_names) or '-'}")
        for form in self._forms.values():
            ops = ", ".join(v.name for v in form.validators) or "no validators"
            lines.append(f"  form {form.name!r} -> {form.entity} ({ops})")
        for route in self.router.routes:
            lines.append(f"  {route.method} {route.path}")
        restricted = [
            name for name in self.store.entity_names
            if self.policies.is_restricted(name)
        ]
        if restricted:
            lines.append(f"  restricted entities: {', '.join(restricted)}")
        return "\n".join(lines)
