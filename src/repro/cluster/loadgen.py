"""Deterministic synthetic load for the sharded gateway.

The casestudy workloads drive a single ``WebApp``'s *write* pipeline; the
gateway needs a mixed, multi-user request stream — reads, writes,
DQ-defective writes, unauthorized writes and reads, optimistic-concurrency
updates — that tests and benchmarks can replay bit-for-bit from a seed.

Everything flows from ``random.Random(seed)`` at *plan* time: a plan is a
list of :class:`Operation` values fixed before any request runs, so the
same plan can drive a single-shard baseline, a 4-shard gateway, or an
8-thread soak and remain comparable.  Per-operation target records are
resolved at run time (ids exist only after writes) but deterministically:
each operation carries a ``choice`` value that picks from the accepted-id
list by modulo.

:class:`LoadReport` tallies outcomes and records everything needed to
check the DQ guarantees afterwards; :func:`verify_guarantees` performs the
checks (exact-once audit per accepted write, zero confidentiality leaks —
including via the cache — and no lost updates: conflicts must have
surfaced as 409s).
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.runtime import audit as audit_events

from .gateway import ShardedGateway

#: Operation kinds a plan is made of.
LIST = "list"
VIEW = "view"
VIEW_UNCLEARED = "view-uncleared"
WRITE = "write"
WRITE_DEFECTIVE = "write-defective"
WRITE_UNAUTHORIZED = "write-unauthorized"
UPDATE = "update"
UPDATE_STALE = "update-stale"

#: The default read-heavy mix (weights, not probabilities).
READ_HEAVY_MIX = {
    LIST: 76,
    VIEW: 10,
    VIEW_UNCLEARED: 4,
    WRITE: 4,
    WRITE_DEFECTIVE: 2,
    WRITE_UNAUTHORIZED: 2,
    UPDATE: 1,
    UPDATE_STALE: 1,
}

#: A write-heavy mix for soak tests: plenty of every guarantee-bearing path.
SOAK_MIX = {
    LIST: 30,
    VIEW: 15,
    VIEW_UNCLEARED: 8,
    WRITE: 20,
    WRITE_DEFECTIVE: 8,
    WRITE_UNAUTHORIZED: 7,
    UPDATE: 8,
    UPDATE_STALE: 4,
}

#: A fault-aware mix for chaos runs: balanced reads and writes, so every
#: resilience path (retry, dedupe, degraded read, shed) sees traffic.
CHAOS_MIX = {
    LIST: 24,
    VIEW: 18,
    VIEW_UNCLEARED: 8,
    WRITE: 22,
    WRITE_DEFECTIVE: 6,
    WRITE_UNAUTHORIZED: 6,
    UPDATE: 10,
    UPDATE_STALE: 6,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """What the generated operations are made of, for one case study."""

    form: str
    entity: str
    cleared_users: tuple[str, ...]
    uncleared_users: tuple[str, ...]
    clean_payload: Callable[[random.Random], dict]
    defective_payload: Callable[[random.Random], dict]
    update_payload: Callable[[random.Random], dict]


def easychair_spec() -> WorkloadSpec:
    """The EasyChair review workload (the paper's case study, scaled up)."""
    from repro.casestudy.easychair import SCORE_BOUNDS, complete_review

    def clean(rng: random.Random) -> dict:
        payload = complete_review(
            overall=rng.randint(*SCORE_BOUNDS["overall_evaluation"]),
            confidence=rng.randint(*SCORE_BOUNDS["reviewer_confidence"]),
        )
        payload["detailed_comments"] = f"comment {rng.randint(0, 10_000)}"
        return payload

    def defective(rng: random.Random) -> dict:
        payload = clean(rng)
        if rng.random() < 0.5:
            payload["email_address"] = None  # Completeness violation
        else:
            payload["overall_evaluation"] = 99  # Precision violation
        return payload

    def update(rng: random.Random) -> dict:
        return {"detailed_comments": f"revised {rng.randint(0, 10_000)}"}

    return WorkloadSpec(
        form="Add all data as result of review form",
        entity="Add all data as result of review",
        cleared_users=("pc_member_1", "pc_member_2", "chair"),
        uncleared_users=("author_1", "outsider"),
        clean_payload=clean,
        defective_payload=defective,
        update_payload=update,
    )


@dataclass(frozen=True)
class Operation:
    """One planned request; ``choice`` resolves its target id at run time."""

    kind: str
    user: str
    data: Optional[dict] = None
    choice: int = 0


class LoadGenerator:
    """Plans and runs deterministic operation mixes against a gateway."""

    def __init__(
        self,
        spec: Optional[WorkloadSpec] = None,
        seed: int = 0,
        mix: Optional[dict] = None,
    ):
        self.spec = spec or easychair_spec()
        self.seed = seed
        self.mix = dict(mix or READ_HEAVY_MIX)

    def plan(self, count: int) -> list[Operation]:
        """``count`` operations, fully determined by the seed and mix."""
        rng = random.Random(self.seed)
        kinds = list(self.mix)
        weights = [self.mix[kind] for kind in kinds]
        spec = self.spec
        operations = []
        for _ in range(count):
            kind = rng.choices(kinds, weights)[0]
            choice = rng.randrange(1 << 30)
            if kind in (LIST, VIEW):
                user = rng.choice(spec.cleared_users)
                operations.append(Operation(kind, user, choice=choice))
            elif kind == VIEW_UNCLEARED:
                user = rng.choice(spec.uncleared_users)
                operations.append(Operation(kind, user, choice=choice))
            elif kind == WRITE:
                user = rng.choice(spec.cleared_users)
                operations.append(
                    Operation(kind, user, spec.clean_payload(rng), choice)
                )
            elif kind == WRITE_DEFECTIVE:
                user = rng.choice(spec.cleared_users)
                operations.append(
                    Operation(kind, user, spec.defective_payload(rng), choice)
                )
            elif kind == WRITE_UNAUTHORIZED:
                user = rng.choice(spec.uncleared_users)
                operations.append(
                    Operation(kind, user, spec.clean_payload(rng), choice)
                )
            elif kind in (UPDATE, UPDATE_STALE):
                user = rng.choice(spec.cleared_users)
                operations.append(
                    Operation(kind, user, spec.update_payload(rng), choice)
                )
            else:  # pragma: no cover - mix keys are validated by use
                raise ValueError(f"unknown operation kind {kind!r}")
        return operations

    # -- execution --------------------------------------------------------

    def run(
        self,
        gateway: ShardedGateway,
        count: Optional[int] = None,
        operations: Optional[Sequence[Operation]] = None,
        threads: int = 1,
        report: Optional["LoadReport"] = None,
    ) -> "LoadReport":
        """Execute a plan; ``threads`` > 1 drives the gateway concurrently.

        Passing an existing ``report`` accumulates across calls — the
        topology-chaos harness runs one plan in segments (pausing for a
        live split or merge between them) and needs a single combined
        report with continuous target-id resolution.
        """
        if operations is None:
            if count is None:
                raise ValueError("pass count or operations")
            operations = self.plan(count)
        if report is None:
            report = LoadReport(spec=self.spec)
        if threads <= 1:
            for operation in operations:
                self._execute(gateway, operation, report)
            return report
        slices = [list(operations[i::threads]) for i in range(threads)]
        workers = [
            threading.Thread(
                target=lambda ops=ops: [
                    self._execute(gateway, op, report) for op in ops
                ],
                name=f"loadgen-{i}",
            )
            for i, ops in enumerate(slices)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return report

    def _execute(
        self, gateway: ShardedGateway, operation: Operation,
        report: "LoadReport",
    ) -> None:
        spec = self.spec
        kind, user = operation.kind, operation.user
        if kind == LIST or kind == VIEW_UNCLEARED and not report.known_ids():
            response = gateway.list(spec.entity, user)
            report.observe_read(kind, user, response)
        elif kind in (VIEW, VIEW_UNCLEARED):
            record_id = report.pick_id(operation.choice)
            if record_id is None:
                response = gateway.list(spec.entity, user)
            else:
                response = gateway.view(spec.entity, record_id, user)
            report.observe_read(kind, user, response)
        elif kind in (WRITE, WRITE_DEFECTIVE, WRITE_UNAUTHORIZED):
            response = gateway.submit(spec.form, operation.data, user)
            report.observe_write(kind, user, response)
        elif kind in (UPDATE, UPDATE_STALE):
            record_id = report.pick_id(operation.choice)
            if record_id is None:
                response = gateway.list(spec.entity, user)
                report.observe_read(LIST, user, response)
                return
            if kind == UPDATE:
                current = gateway.view(spec.entity, record_id, user)
                report.observe_probe(current)
                expected = (
                    current.body.get("version", 1) if current.ok else 1
                )
            else:
                expected = -1  # guaranteed-stale version: must 409
            response = gateway.modify(
                spec.form, record_id, operation.data, user,
                expected_version=expected,
            )
            report.observe_update(kind, user, record_id, response)


class LoadReport:
    """Thread-safe tallies of one load run, kept for guarantee checking."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self.outcomes: Counter = Counter()  # (kind, status) -> count
        self.accepted_ids: list[int] = []
        self.updates_applied: Counter = Counter()  # record_id -> count
        self.conflicts = 0
        self.backpressured = 0
        self.leaks: list[str] = []
        self.degraded: Counter = Counter()  # kind -> 203 degraded reads
        self.shed: Counter = Counter()      # kind -> 503 load sheds
        self.untagged_stale: list[str] = []  # degraded reads missing tags

    # -- target-id resolution --------------------------------------------

    def known_ids(self) -> bool:
        with self._lock:
            return bool(self.accepted_ids)

    def pick_id(self, choice: int) -> Optional[int]:
        with self._lock:
            if not self.accepted_ids:
                return None
            return self.accepted_ids[choice % len(self.accepted_ids)]

    # -- observations ------------------------------------------------------

    def _tally(self, kind: str, status: int) -> None:
        self.outcomes[(kind, status)] += 1
        if status == 429:
            self.backpressured += 1

    def observe_read(self, kind: str, user: str, response) -> None:
        uncleared = user in self.spec.uncleared_users
        with self._lock:
            self._tally(kind, response.status)
            if response.status == 203:
                self.degraded[kind] += 1
                if "X-DQ-Degraded" not in response.headers:
                    # the Traceability DQSR: stale data must say so
                    self.untagged_stale.append(
                        f"degraded {kind} for {user!r} arrived without an "
                        f"X-DQ-Degraded staleness tag"
                    )
            elif response.status == 503:
                self.shed[kind] += 1
            if uncleared and response.ok and response.body:
                self.leaks.append(
                    f"uncleared user {user!r} received "
                    f"{response.body!r} ({kind})"
                )

    def observe_probe(self, response) -> None:
        """A version-probe read made on behalf of an update.  Not a
        planned operation, so it stays out of ``outcomes`` — but its
        rejections must still be tallied or the gateway's 429/503 meters
        and the report drift apart."""
        with self._lock:
            if response.status == 429:
                self.backpressured += 1
            elif response.status == 503:
                self.shed["update-probe"] += 1

    def observe_write(self, kind: str, user: str, response) -> None:
        with self._lock:
            self._tally(kind, response.status)
            if response.status == 201:
                self.accepted_ids.append(response.body["id"])
            elif response.status == 503:
                self.shed[kind] += 1

    def observe_update(
        self, kind: str, user: str, record_id: int, response
    ) -> None:
        with self._lock:
            self._tally(kind, response.status)
            if response.status == 200:
                self.updates_applied[record_id] += 1
            elif response.status == 409:
                self.conflicts += 1
            elif response.status == 503:
                self.shed[kind] += 1

    # -- summaries ---------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    def count(self, kind: str, status: Optional[int] = None) -> int:
        return sum(
            n for (k, s), n in self.outcomes.items()
            if k == kind and (status is None or s == status)
        )

    def accepted_writes(self) -> int:
        return sum(
            n for (k, s), n in self.outcomes.items()
            if k.startswith("write") and s == 201
        )

    def render(self) -> str:
        lines = [f"load run: {self.total} operation(s)"]
        for (kind, status), n in sorted(self.outcomes.items()):
            lines.append(f"  {kind:<20} -> {status}: {n}")
        lines.append(
            f"  accepted ids: {len(self.accepted_ids)}, "
            f"conflicts: {self.conflicts}, "
            f"backpressured: {self.backpressured}, "
            f"leaks: {len(self.leaks)}"
        )
        if self.degraded or self.shed or self.untagged_stale:
            lines.append(
                f"  degraded (203): {sum(self.degraded.values())}, "
                f"shed (503): {sum(self.shed.values())}, "
                f"untagged stale: {len(self.untagged_stale)}"
            )
        return "\n".join(lines)


def verify_guarantees(
    gateway: ShardedGateway,
    report: LoadReport,
    ignore_ids: frozenset = frozenset(),
) -> list[str]:
    """Every DQ-guarantee violation observed after a load run (empty = ok).

    Checks, across **all** shards:

    * every write acknowledged 201 is still held by the shard the router
      resolves it to (a lost write otherwise);
    * every accepted write was audited exactly once (``store`` events);
    * every applied update was audited exactly once (``modify`` events)
      and no update was lost: a record's stored version must be exactly
      1 + its acknowledged updates;
    * no confidential record ever reached an uncleared user (the report
      captures every read body, cached or not);
    * stale-version updates surfaced as 409 conflicts, never as writes.

    ``ignore_ids`` are records acknowledged *before* the run (preload):
    their audit events are not this run's to account for, but they must
    still be held.

    Under fault injection, two more guarantees join the list: no write
    acknowledged 201 may be lost or double-applied (retries and duplicated
    tasks must collapse to exactly one store audit event), and no degraded
    read may arrive without its staleness tag.
    """
    violations = list(report.leaks) + list(report.untagged_stale)
    entity = report.spec.entity

    store_counts: Counter = Counter()
    modify_counts: Counter = Counter()
    for shard in gateway.shards:
        for event in shard.audit.by_kind(audit_events.STORE):
            if event.entity == entity:
                store_counts[event.record_id] += 1
        for event in shard.audit.by_kind(audit_events.MODIFY):
            if event.entity == entity:
                modify_counts[event.record_id] += 1

    accepted = Counter(report.accepted_ids)
    for record_id, n in accepted.items():
        if n != 1:
            violations.append(f"record id {record_id} acknowledged {n} times")
    for record_id in sorted(set(accepted) | set(ignore_ids)):
        if _stored_version(gateway, entity, record_id) is None:
            violations.append(
                f"record {record_id}: acknowledged write lost (not held "
                f"by shard {gateway.router.shard_for(entity, record_id)})"
            )
    for record_id in accepted:
        audited = store_counts.get(record_id, 0)
        if audited != 1:
            violations.append(
                f"record {record_id}: {audited} store audit event(s), "
                "expected exactly 1"
            )
    extra_stores = set(store_counts) - set(accepted) - set(ignore_ids)
    for record_id in sorted(extra_stores):
        violations.append(
            f"record {record_id} stored without a 201 acknowledgement"
        )

    for record_id, applied in report.updates_applied.items():
        audited = modify_counts.get(record_id, 0)
        if audited != applied:
            violations.append(
                f"record {record_id}: {audited} modify audit event(s) for "
                f"{applied} acknowledged update(s)"
            )
        version = _stored_version(gateway, entity, record_id)
        if version != 1 + applied:
            violations.append(
                f"record {record_id}: stored version {version}, expected "
                f"{1 + applied} (lost or phantom update)"
            )
    lost_modifies = (
        set(modify_counts) - set(report.updates_applied) - set(ignore_ids)
    )
    for record_id in sorted(lost_modifies):
        violations.append(
            f"record {record_id} modified without a 200 acknowledgement"
        )
    return violations


def _stored_version(
    gateway: ShardedGateway, entity: str, record_id: int
) -> Optional[int]:
    shard = gateway.shards[gateway.router.shard_for(entity, record_id)]
    try:
        return shard.store.entity(entity).get(record_id).version
    except KeyError:
        return None
