"""Follower reads: 203 tagging, bounded staleness, confidentiality,
and scorecard parity.

Every read served from a replica must say so (203 + ``X-DQ-Degraded:
replica``), carry its actual lag and the configured staleness bound,
enforce the same confidentiality policy the primary would, and feed
``live_scorecard`` numbers that match a primary rescan exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.casestudy import easychair
from repro.cluster import LoadGenerator, ShardedGateway, easychair_spec
from repro.dq.streaming import scores_close

pytestmark = pytest.mark.replication

EXACT_LINES = {"Precision", "Traceability", "Confidentiality"}


def _gateway(staleness_bound: int = 16, operations: int = 40, seed: int = 5):
    spec = easychair_spec()
    generator = LoadGenerator(spec=spec, seed=seed)
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=3,
        users=easychair.USERS,
        replicas=1,
        staleness_bound=staleness_bound,
        vnodes=64,
    )
    generator.run(gateway, operations=generator.plan(operations), threads=1)
    return gateway, spec


def _any_record_id(gateway, entity: str) -> int:
    listing = gateway.list(entity, "chair")
    assert listing.ok and listing.body
    return listing.body[0]["id"]


# -- 203 tagging -----------------------------------------------------------


def test_follower_view_is_tagged_with_lag_and_bound():
    gateway, spec = _gateway()
    try:
        record_id = _any_record_id(gateway, spec.entity)
        response = gateway.view(spec.entity, record_id, "chair")
        assert response.status == 203
        assert response.headers["X-DQ-Degraded"] == "replica"
        assert int(response.headers["X-DQ-Replica-Lag"]) >= 0
        assert int(response.headers["X-DQ-Staleness-Bound"]) == 16
        assert response.body["id"] == record_id
    finally:
        gateway.close()


def test_follower_list_is_tagged_with_lag_and_bound():
    gateway, spec = _gateway()
    try:
        response = gateway.list(spec.entity, "chair")
        assert response.status == 203
        assert response.headers["X-DQ-Degraded"] == "replica"
        assert int(response.headers["X-DQ-Replica-Lag"]) >= 0
        assert int(response.headers["X-DQ-Staleness-Bound"]) == 16
        assert response.body
    finally:
        gateway.close()


def test_every_degraded_read_in_a_workload_carries_the_bound():
    # sweep a real mixed workload: any 203 the gateway ever returns
    # must carry all three replica headers — no silently stale reads
    gateway, spec = _gateway(operations=80)
    try:
        for record_id in range(1, 30):
            for user in ("chair", "pc_member_1"):
                response = gateway.view(spec.entity, record_id, user)
                if response.status != 203:
                    continue
                assert response.headers["X-DQ-Degraded"] == "replica"
                assert "X-DQ-Replica-Lag" in response.headers
                assert "X-DQ-Staleness-Bound" in response.headers
    finally:
        gateway.close()


# -- confidentiality -------------------------------------------------------


def test_follower_confidentiality_matches_the_primary():
    # the same accessibility check the primary's read path runs, asked
    # directly of the primary store — the follower-served answer must
    # never disclose more (or less) than the oracle
    gateway, spec = _gateway()
    try:
        checked = 0
        for record_id in range(1, 30):
            shard_index = gateway.router.shard_for(spec.entity, record_id)
            primary = gateway.shards[shard_index]
            try:
                stored = primary.store.entity(spec.entity).get(record_id)
            except KeyError:
                continue
            for user in spec.uncleared_users + spec.cleared_users:
                account = primary.users.get(user)
                allowed = stored.metadata.accessible_by(user, account.level)
                response = gateway.view(spec.entity, record_id, user)
                if allowed:
                    assert response.status == 203
                    assert response.body["id"] == record_id
                else:
                    assert response.status == 403
                    # an error envelope only — no record fields leak
                    assert set(response.body or {}) <= {"error"}
                checked += 1
        assert checked > 0
    finally:
        gateway.close()


def test_uncleared_list_on_followers_leaks_nothing():
    gateway, spec = _gateway()
    try:
        for user in spec.uncleared_users + spec.cleared_users:
            response = gateway.list(spec.entity, user)
            assert response.status in (200, 203)
            # body must be exactly what the primaries would disclose
            expected_ids = []
            for index in gateway.router.all_shards():
                primary = gateway.shards[index]
                account = primary.users.get(user)
                expected_ids.extend(
                    row["id"]
                    for row in primary.store.readable_by(
                        spec.entity, user, account.level
                    )
                )
            got_ids = sorted(row["id"] for row in response.body or [])
            assert got_ids == sorted(expected_ids)
    finally:
        gateway.close()


# -- scorecard parity ------------------------------------------------------


def test_follower_scorecard_matches_primary_rescan_oracle():
    # live_scorecard on the replicated gateway reads caught-up
    # followers; rescan_scorecard rescans the primaries — the two must
    # agree line for line
    gateway, spec = _gateway(operations=60)
    try:
        live = gateway.live_scorecard(
            spec.entity,
            required_fields=easychair.ALL_REVIEW_FIELDS,
            bounds=easychair.SCORE_BOUNDS,
            max_age=500,
        )
        oracle = gateway.rescan_scorecard(
            spec.entity,
            required_fields=easychair.ALL_REVIEW_FIELDS,
            bounds=easychair.SCORE_BOUNDS,
            max_age=500,
        )
        assert live is not None
        for live_line, oracle_line in zip(live, oracle):
            assert live_line.characteristic == oracle_line.characteristic
            assert live_line.evidence == oracle_line.evidence
            if live_line.characteristic in EXACT_LINES:
                assert live_line.score == oracle_line.score
            else:
                assert scores_close(live_line.score, oracle_line.score)
    finally:
        gateway.close()


# -- bounded staleness -----------------------------------------------------


def test_armed_lag_serves_stale_within_the_bound():
    gateway, spec = _gateway(staleness_bound=16)
    try:
        record_id = _any_record_id(gateway, spec.entity)
        shard_index = gateway.router.shard_for(spec.entity, record_id)
        # one clean read catches the follower up...
        fresh = gateway.view(spec.entity, record_id, "chair")
        assert fresh.status == 203
        stale_version = fresh.body["version"]
        # ...then a write advances the primary and a replica-lag fault
        # inhibits the next catch-up
        update = gateway.modify(
            spec.form,
            record_id,
            spec.update_payload(random.Random(1)),
            "chair",
            expected_version=stale_version,
        )
        assert update.ok, update.body
        gateway.inhibit_catch_up(shard_index)
        stale = gateway.view(spec.entity, record_id, "chair")
        assert stale.status == 203
        lag = int(stale.headers["X-DQ-Replica-Lag"])
        assert 0 < lag <= 16
        assert stale.body["version"] == stale_version
        assert gateway.stale_serves >= 1
        assert gateway.max_served_lag <= 16
        # the inhibit flag is one-shot: the next read catches up again
        current = gateway.view(spec.entity, record_id, "chair")
        assert current.body["version"] == stale_version + 1
        assert int(current.headers["X-DQ-Replica-Lag"]) == 0
    finally:
        gateway.close()


def test_lag_past_the_bound_forces_catch_up():
    gateway, spec = _gateway(staleness_bound=0)
    try:
        record_id = _any_record_id(gateway, spec.entity)
        shard_index = gateway.router.shard_for(spec.entity, record_id)
        fresh = gateway.view(spec.entity, record_id, "chair")
        update = gateway.modify(
            spec.form,
            record_id,
            spec.update_payload(random.Random(1)),
            "chair",
            expected_version=fresh.body["version"],
        )
        assert update.ok, update.body
        gateway.inhibit_catch_up(shard_index)
        # bound 0 means no staleness is tolerable: the armed lag must
        # be overridden by a forced catch-up before serving
        response = gateway.view(spec.entity, record_id, "chair")
        assert response.status == 203
        assert int(response.headers["X-DQ-Replica-Lag"]) == 0
        assert response.body["version"] == fresh.body["version"] + 1
        assert gateway.max_served_lag == 0
    finally:
        gateway.close()
