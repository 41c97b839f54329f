"""Correctness checks, run after the timed window.

* every answer carries its planned status; uncleared users receive no
  rows; a 203 always carries ``X-DQ-Degraded``;
* every acknowledged create is audited exactly once, every
  acknowledged update exactly once, and no update is lost (a record's
  version is 1 + its acknowledged updates);
* the final ``live_scorecard`` matches ``rescan_scorecard`` line for
  line;
* on a durable fleet, every shard restarted from its synced bytes gives
  back every acknowledged id at its acknowledged version.

Each check returns a list of violations; an empty list means it passed.
A refused (429/503) or raised operation is not a wrong answer: it counts
in ``fail_ratio`` instead.
"""

from __future__ import annotations

from collections import Counter

from . import plans
from .drive import RAISED, REFUSED

#: Scorecard lines equal to float tolerance (the rest must be exact).
TOLERANT_LINES = frozenset({"Completeness", "Currentness"})
ENTITY_OF_PATH = {
    plans.REVIEW_PATH: plans.REVIEW_ENTITY,
    plans.ORDER_PATH: plans.ORDER_ENTITY,
    plans.CUSTOMER_PATH: plans.CUSTOMER_ENTITY,
}


def _refused(status) -> bool:
    if isinstance(status, tuple):
        return any(item in REFUSED for item in status)
    return status == RAISED or status in REFUSED


def check_outcomes(plan: plans.Plan, outcomes) -> list[str]:
    """Every answer against its planned status."""
    violations = []
    for outcome in outcomes:
        op = plan.op(outcome.index)
        status = outcome.status
        if _refused(status):
            continue
        if status != op.expect:
            violations.append(
                f"op {outcome.index} ({op.kind} {op.path} as {op.user}): "
                f"answered {status}, planned {op.expect}"
            )
            continue
        if op.kind == plans.LIST and op.user in plans.UNCLEARED \
                and outcome.rows != 0:
            violations.append(
                f"op {outcome.index}: uncleared {op.user} received "
                f"{outcome.rows} row(s)"
            )
        if status == 203 and not outcome.tagged:
            violations.append(
                f"op {outcome.index}: 203 without X-DQ-Degraded"
            )
    return violations


def _home(gateway, entity: str, record_id: int):
    shard = gateway.shards[gateway.router.shard_for(entity, record_id)]
    return shard.store.entity(entity).get(record_id)


def check_audit(gateway, state) -> list[str]:
    """Audit exactly once per acknowledged write; no lost update."""
    from repro.runtime import audit as audit_events

    violations = []
    for path, ids in state.acked.items():
        entity = ENTITY_OF_PATH[path]
        stores: Counter = Counter()
        modifies: Counter = Counter()
        for shard in gateway.shards:
            for event in shard.audit.by_kind(audit_events.STORE):
                if event.entity == entity:
                    stores[event.record_id] += 1
            for event in shard.audit.by_kind(audit_events.MODIFY):
                if event.entity == entity:
                    modifies[event.record_id] += 1
        acked = Counter(ids)
        for record_id, count in acked.items():
            if count != 1:
                violations.append(
                    f"{entity}#{record_id} acknowledged {count} times"
                )
            if stores.get(record_id, 0) != 1:
                violations.append(
                    f"{entity}#{record_id}: {stores.get(record_id, 0)} "
                    "store audit event(s), expected 1"
                )
        for record_id in sorted(set(stores) - set(acked)):
            violations.append(
                f"{entity}#{record_id} stored without an acknowledgement"
            )
        for record_id in set(acked) | set(modifies):
            applied = state.updates_applied.get((path, record_id), 0)
            if modifies.get(record_id, 0) != applied:
                violations.append(
                    f"{entity}#{record_id}: {modifies.get(record_id, 0)} "
                    f"modify audit event(s) for {applied} acknowledged "
                    "update(s)"
                )
            if record_id in acked:
                version = _home(gateway, entity, record_id).version
                if version != 1 + applied:
                    violations.append(
                        f"{entity}#{record_id}: version {version}, "
                        f"expected {1 + applied} (lost or phantom update)"
                    )
    return violations


def check_scorecard(gateway, entity: str, bounds: dict) -> list[str]:
    """The final live scorecard against a full rescan, line for line."""
    live = gateway.live_scorecard(entity, bounds=dict(bounds))
    rescan = gateway.rescan_scorecard(entity, bounds=dict(bounds))
    if live is None:
        return [f"{entity}: live scorecard unavailable"]
    if len(live) != len(rescan):
        return [f"{entity}: {len(live)} live line(s), {len(rescan)} rescanned"]
    violations = []
    for got, want in zip(live, rescan):
        same_score = (
            abs(got.score - want.score) <= 1e-9
            if want.characteristic in TOLERANT_LINES
            else got.score == want.score
        )
        if (got.characteristic != want.characteristic
                or got.evidence != want.evidence or not same_score):
            violations.append(f"{entity}: live {got} != rescan {want}")
    return violations


def check_restart(gateway, state) -> list[str]:
    """Restart every shard from its durable state; every acknowledged id
    must come back at its acknowledged version."""
    for index in range(len(gateway.shards)):
        gateway.restart_shard(index)
    violations = []
    expected_total = 0
    for path, ids in state.acked.items():
        entity = ENTITY_OF_PATH[path]
        expected_total += len(ids)
        for record_id in ids:
            try:
                stored = _home(gateway, entity, record_id)
            except KeyError:
                violations.append(f"{entity}#{record_id} lost on restart")
                continue
            version = 1 + state.updates_applied.get((path, record_id), 0)
            if stored.version != version:
                violations.append(
                    f"{entity}#{record_id}: version {stored.version} "
                    f"after restart, expected {version}"
                )
    if gateway.total_records() != expected_total:
        violations.append(
            f"{gateway.total_records()} record(s) after restart, "
            f"{expected_total} acknowledged"
        )
    return violations
