"""Cluster scorecards over a bounded field that spilled on one shard.

Past ``DEFAULT_SPILL_THRESHOLD`` distinct values a field stops counting
in-bounds values exactly, so that shard's locked reading reports
``None`` for the field and ``live_scorecard`` rescans the field on
every shard it reads.  That fallback must still agree with
``rescan_scorecard`` line for line — on the plain gateway and on the
replicated ring, where the live scorecard reads caught-up followers.
"""

from __future__ import annotations

import random

import pytest

from repro.casestudy import easychair
from repro.cluster import LoadGenerator, ShardedGateway
from repro.dq.streaming import DEFAULT_SPILL_THRESHOLD, scores_close

EXACT_LINES = {"Precision", "Traceability", "Confidentiality"}
SPILLED = "overall_evaluation"


def _spill_shard_zero(gateway, entity: str) -> None:
    """Load shard 0 alone with more distinct values of a bounded field
    than exact tracking keeps; most fall outside its bounds."""
    shard = gateway.shards[0]
    rng = random.Random(3)
    shard.store.store_many(
        entity,
        [
            {SPILLED: value, "reviewer_confidence": rng.randint(1, 5)}
            for value in range(-50, DEFAULT_SPILL_THRESHOLD + 50)
        ],
        user="chair",
        security_level=1,
    )
    shard.commit()


def _spilled(app, entity: str) -> bool:
    return app.store.entity(entity).measure_telemetry(
        lambda accumulator: accumulator.field(SPILLED).spilled
    )


def _assert_live_equals_rescan(gateway, entity: str) -> None:
    kwargs = dict(
        required_fields=easychair.ALL_REVIEW_FIELDS,
        bounds=easychair.SCORE_BOUNDS,
        max_age=500,
    )
    live = gateway.live_scorecard(entity, **kwargs)
    oracle = gateway.rescan_scorecard(entity, **kwargs)
    assert live is not None
    assert len(live) == len(oracle)
    for live_line, oracle_line in zip(live, oracle):
        assert live_line.characteristic == oracle_line.characteristic
        assert live_line.evidence == oracle_line.evidence
        if live_line.characteristic in EXACT_LINES:
            assert live_line.score == oracle_line.score
        else:
            assert scores_close(live_line.score, oracle_line.score)


def _drive(gateway, seed: int = 5):
    """Spread reviews over every shard, then run a seeded mix."""
    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    rng = random.Random(seed)
    for _ in range(24):
        gateway.submit(
            spec.form, spec.clean_payload(rng), spec.cleared_users[0]
        )
    generator.run(gateway, operations=generator.plan(40), threads=1)
    return spec.entity


def test_sharded_gateway_scorecard_rescans_a_field_spilled_on_one_shard():
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=3, users=easychair.USERS,
    )
    try:
        entity = _drive(gateway)
        _spill_shard_zero(gateway, entity)
        assert _spilled(gateway.shards[0], entity)
        assert not any(
            _spilled(shard, entity) for shard in gateway.shards[1:]
        )
        _assert_live_equals_rescan(gateway, entity)
    finally:
        gateway.close()


@pytest.mark.replication
def test_ring_follower_scorecard_rescans_a_field_spilled_on_one_shard():
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=3,
        users=easychair.USERS,
        replicas=1,
        vnodes=64,
    )
    try:
        entity = _drive(gateway)
        _spill_shard_zero(gateway, entity)
        _assert_live_equals_rescan(gateway, entity)
        # the scorecard above caught the followers up: shard 0's
        # follower spilled too, the others did not
        followers = [replicas.follower() for replicas in gateway.replica_sets]
        assert _spilled(followers[0], entity)
        assert not any(_spilled(app, entity) for app in followers[1:])
    finally:
        gateway.close()
