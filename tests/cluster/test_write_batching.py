"""Per-shard write batching: same outcomes as unbatched, fewer lock trips.

``ShardedGateway.submit_many`` coalesces same-shard creates into chunks
applied under a single shard-lock acquisition.  These tests pin the
contract: responses stay positional and status-identical to the unbatched
path, audit stays exactly-once, cached reads are invalidated before the
acknowledgement, backpressure and shutdown answer per-op 429/503, and a
duplicated batch task never double-applies.  The gateway's memoized
form→entity and user→clearance lookups ride along.
"""

import random

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    DUPLICATE,
    FaultPlan,
    LoadGenerator,
    READ_HEAVY_MIX,
    ResilienceConfig,
    ShardedGateway,
    verify_guarantees,
)
from repro.cluster.resilience import FaultSpec
from repro.runtime import audit as audit_events

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"


def make_gateway(**options) -> ShardedGateway:
    options.setdefault("shard_count", 4)
    options.setdefault("users", easychair.USERS)
    options.setdefault("max_queue_depth", 1024)
    return ShardedGateway.from_design(easychair.build_design(), **options)


def clean_payloads(count: int, seed: int = 7) -> list:
    rng = random.Random(seed)
    spec = LoadGenerator(seed=seed).spec
    return [spec.clean_payload(rng) for _ in range(count)]


def test_batched_responses_are_positional_and_status_identical():
    """payloads[i] is answered by responses[i], with unbatched statuses."""
    rng = random.Random(3)
    spec = LoadGenerator(seed=3).spec
    payloads = [
        spec.defective_payload(rng) if position % 3 == 0
        else spec.clean_payload(rng)
        for position in range(24)
    ]
    gateway = make_gateway()
    try:
        responses = gateway.submit_many(FORM, payloads, "pc_member_1")
        assert len(responses) == len(payloads)
        for position, response in enumerate(responses):
            if position % 3 == 0:
                assert response.status == 422, position
                assert response.body["dq_findings"]
            else:
                assert response.status == 201, position
        created = [r.body["id"] for r in responses if r.status == 201]
        assert len(created) == len(set(created))  # globally unique ids
        # every accepted record landed on the shard the router names
        for response in responses:
            if response.status == 201:
                assert response.body["shard"] == gateway.router.shard_for(
                    ENTITY, response.body["id"]
                )
        assert gateway.total_records() == len(created)
    finally:
        gateway.close()


def test_unauthorized_batch_is_refused_per_op():
    gateway = make_gateway()
    try:
        responses = gateway.submit_many(FORM, clean_payloads(6), "outsider")
        assert [r.status for r in responses] == [403] * 6
        assert gateway.total_records() == 0
    finally:
        gateway.close()


def test_batched_records_are_read_back_and_audited_exactly_once():
    gateway = make_gateway()
    try:
        responses = gateway.submit_many(
            FORM, clean_payloads(20), "pc_member_1"
        )
        created = {r.body["id"] for r in responses}
        assert len(created) == 20
        listing = gateway.list(ENTITY, "chair")
        assert {row["id"] for row in listing.body} == created
        store_events = [
            event
            for shard in gateway.shards
            for event in shard.audit.by_kind(audit_events.STORE)
        ]
        assert len(store_events) == 20  # one audit line per accepted write
    finally:
        gateway.close()


def test_batched_writes_invalidate_cached_reads_before_acknowledgement():
    gateway = make_gateway()
    try:
        gateway.submit_many(FORM, clean_payloads(4), "pc_member_1")
        first = gateway.list(ENTITY, "chair")
        again = gateway.list(ENTITY, "chair")
        assert len(again.body) == 4
        assert gateway.cache.stats.hits > 0  # second read was cached
        gateway.submit_many(FORM, clean_payloads(3, seed=9), "pc_member_1")
        fresh = gateway.list(ENTITY, "chair")
        assert len(fresh.body) == 7  # no stale body after the ack
        assert first.body != fresh.body
    finally:
        gateway.close()


def test_chunking_respects_write_batch_max_and_is_metered():
    gateway = make_gateway(shard_count=1, write_batch_max=4)
    try:
        responses = gateway.submit_many(
            FORM, clean_payloads(10), "pc_member_1"
        )
        assert all(r.status == 201 for r in responses)
        snapshot = gateway.metrics.snapshot()
        batching = snapshot["batching"]
        assert batching["operations"]["submit-batch"] == 10
        assert batching["chunks"]["submit-batch"] == 3  # 4 + 4 + 2
        assert batching["mean_ops_per_chunk"] == pytest.approx(10 / 3, 0.01)
    finally:
        gateway.close()


def test_batch_backpressure_answers_429_per_op():
    # depth 1: the first admitted chunk occupies the whole queue, so any
    # chunk bound for a second shard must be refused, op by op
    gateway = make_gateway(shard_count=2, max_queue_depth=1)
    try:
        responses = gateway.submit_many(
            FORM, clean_payloads(16), "pc_member_1"
        )
        statuses = {r.status for r in responses}
        assert statuses == {201, 429}
        refused = [r for r in responses if r.status == 429]
        assert all(r.headers.get("Retry-After") for r in refused)
        accepted = [r for r in responses if r.status == 201]
        assert gateway.total_records() == len(accepted)
        assert gateway.metrics.rejected_backpressure == len(refused)
    finally:
        gateway.close()


def test_closed_gateway_refuses_batches_per_op():
    gateway = make_gateway()
    gateway.close()
    responses = gateway.submit_many(FORM, clean_payloads(5), "pc_member_1")
    assert [r.status for r in responses] == [503] * 5


def test_empty_batch_is_a_no_op():
    gateway = make_gateway()
    try:
        assert gateway.submit_many(FORM, [], "pc_member_1") == []
        assert gateway.metrics.snapshot().get("batching") is None
    finally:
        gateway.close()


def test_duplicated_batch_tasks_apply_exactly_once():
    """Every dispatched batch task replays; none may double-apply."""
    gateway = make_gateway(
        fault_plan=FaultPlan([FaultSpec(DUPLICATE, None, 0, 1 << 30)]),
        resilience=ResilienceConfig(),
    )
    try:
        responses = gateway.submit_many(
            FORM, clean_payloads(40), "pc_member_1"
        )
        assert all(r.status == 201 for r in responses)
        assert gateway.total_records() == 40
        store_events = [
            event
            for shard in gateway.shards
            for event in shard.audit.by_kind(audit_events.STORE)
        ]
        assert len(store_events) == 40
    finally:
        gateway.close()


def test_guarantees_hold_after_a_batched_preload():
    gateway = make_gateway()
    try:
        responses = gateway.submit_many(
            FORM, clean_payloads(60), "pc_member_1"
        )
        preloaded = frozenset(r.body["id"] for r in responses)
        generator = LoadGenerator(seed=17, mix=READ_HEAVY_MIX)
        report = generator.run(gateway, count=200, threads=2)
        violations = verify_guarantees(gateway, report, ignore_ids=preloaded)
        assert violations == [], "\n".join(violations)
    finally:
        gateway.close()


# -- memoized gateway lookups ----------------------------------------------


def test_form_and_clearance_lookups_are_prefilled_at_construction():
    gateway = make_gateway()
    try:
        assert gateway._form_entities[FORM] == ENTITY
        assert gateway._user_levels["chair"] == 2
        assert gateway._user_levels["outsider"] == 0
        assert gateway._entity_of_form(FORM) == ENTITY
        assert gateway._clearance("chair") == 2
    finally:
        gateway.close()


def test_unknown_users_resolve_anonymous_and_are_never_cached():
    gateway = make_gateway()
    try:
        assert gateway._clearance("ghost") == 0
        assert "ghost" not in gateway._user_levels
        # late registration is absorbed lazily, then memoized
        for shard in gateway.shards:
            shard.add_user("late_hire", 2, ("pc",))
        assert gateway._clearance("late_hire") == 2
        assert gateway._user_levels["late_hire"] == 2
    finally:
        gateway.close()


def test_memoized_clearance_serves_the_cache_key():
    """A cleared and an uncleared reader never share a cached body."""
    gateway = make_gateway()
    try:
        gateway.submit_many(FORM, clean_payloads(6), "pc_member_1")
        cleared = gateway.list(ENTITY, "chair")
        uncleared = gateway.list(ENTITY, "outsider")
        assert len(cleared.body) == 6
        assert len(uncleared.body) == 0
        # repeat reads hit the cache and still differ per clearance
        assert len(gateway.list(ENTITY, "chair").body) == 6
        assert len(gateway.list(ENTITY, "outsider").body) == 0
    finally:
        gateway.close()


# -- lookups stay consistent with the full-scan oracle under chaos ---------


@pytest.mark.chaos
def test_find_by_and_clearance_index_match_oracles_after_chaos():
    """After a faulted mixed workload, every shard's ``find_by`` and
    clearance index answer exactly like the predicate scans."""
    from repro.cluster.loadgen import CHAOS_MIX

    seed = 11
    generator = LoadGenerator(seed=seed, mix=dict(CHAOS_MIX))
    plan = FaultPlan.seeded(seed, shard_count=3, horizon=700, start=20)
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=3, users=easychair.USERS,
        fault_plan=plan, resilience=ResilienceConfig(),
        max_queue_depth=1024,
    )
    try:
        rng = random.Random(seed)
        spec = generator.spec
        for _ in range(20):
            response = gateway.submit(
                spec.form, spec.clean_payload(rng), spec.cleared_users[0]
            )
            assert response.status == 201
        generator.run(gateway, count=300, threads=1)
        for shard in gateway.shards:
            store = shard.store.entity(ENTITY)
            assert store.fields  # dqengine declared them
            for field_name in store.fields:
                values = {
                    record.data.get(field_name) for record in store.all()
                }
                for value in values:
                    found = [
                        r.record_id for r in store.find_by(field_name, value)
                    ]
                    via_scan = [
                        r.record_id for r in store.query(
                            lambda data: data.get(field_name) == value
                        )
                    ]
                    assert found == via_scan, (field_name, value)
            for name, level, _roles in easychair.USERS:
                via_index = store.readable_rows(name, level)
                via_scan = [
                    {"id": s.record_id, "version": s.version, **s.data}
                    for s in store.select_snapshots(
                        lambda s: s.metadata.accessible_by(name, level)
                    )
                ]
                assert via_index == via_scan, name
    finally:
        gateway.close()
