"""Follower catch-up through the recovery replay path.

The pinned contracts: a follower that replays its primary's acked tail
through :func:`repro.persistence.apply_op` lands in ``capture_state``
**byte-identical** state to the primary, over a tail holding every op
kind; a second ``LogTruncated`` during bootstrap cannot escape
``catch_up``, while unbounded pruning surfaces after bounded attempts;
and an explicit ``prune_to`` caps a ship buffer pinned by a follower
that never caught up, which then re-bootstraps equal to the primary.
"""

import random

import pytest

from repro.casestudy import easychair
from repro.cluster import easychair_spec
from repro.cluster.replication import (
    CATCHUP_ATTEMPTS,
    LogTruncated,
    ReplicaSet,
    ReplicationLog,
)
from repro.dq.metadata import Clock
from repro.persistence import apply_op, capture_state, encode_payload, op_tick
from repro.runtime import audit as audit_events
from repro.runtime.dqengine import build_app

pytestmark = pytest.mark.replication


def _make_app(persistence=None):
    app = build_app(
        easychair.build_design(), clock=Clock(), persistence=persistence
    )
    for name, level, roles in easychair.USERS:
        app.add_user(name, level, roles)
    return app


def _seed_primary(log, inserts=40, batches=2, batch_rows=8, seed=7):
    """A primary whose acked tail holds every op kind: inserts, both
    ``rows`` forms, metadata stamps, updates, retires and audits."""
    spec = easychair_spec()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(seed)
    stored = [
        entity.insert(spec.clean_payload(rng)) for _ in range(inserts)
    ]
    # plain rows op: an unstamped chunk, each row its full dict
    entity.insert_many([spec.clean_payload(rng) for _ in range(3)])
    for _ in range(batches):
        # stamped chunk: one by-form rows op with shared provenance
        chunk = primary.store.store_many(
            spec.entity,
            [spec.clean_payload(rng) for _ in range(batch_rows)],
            user="chair", security_level=1,
        )
        primary.audit.record_many(
            audit_events.STORE, "chair", spec.entity,
            [record.record_id for record in chunk],
        )
    # a stamped single insert (insert + meta ops) with grants
    primary.store.store(
        spec.entity, spec.clean_payload(rng), user="chair",
        security_level=2, available_to={"pc-member"},
    )
    entity.update(
        stored[0].record_id, {"detailed_comments": "revised"}
    )
    entity.delete(stored[2].record_id)
    primary.read(spec.entity, "chair")
    log.sync()
    return primary, spec


def _state(app) -> bytes:
    return encode_payload(capture_state(app))


def test_followers_replay_to_the_primary_state_byte_for_byte():
    log = ReplicationLog()
    primary, _spec = _seed_primary(log)
    tail = [op for _seq, op in log.ship(0)]
    assert {op["op"] for op in tail} >= {
        "insert", "rows", "meta", "update", "retire", "audit", "audits",
    }
    rows_forms = {op.get("by") is None for op in tail if op["op"] == "rows"}
    assert rows_forms == {True, False}  # plain and stamped rows both ship

    replicas = ReplicaSet(_make_app, log, count=2)
    replicas.catch_up()
    assert _state(replicas.follower(0)) == _state(primary)
    assert _state(replicas.follower(1)) == _state(primary)


# -- bounded bootstrap retry ------------------------------------------------


class _PruningLog(ReplicationLog):
    """Advances its own base right before each ship — the race where an
    external ``prune_to`` outruns a bootstrapping follower."""

    def __init__(self, truncations: int):
        super().__init__()
        self._remaining = truncations

    def ship(self, after_seq):
        if self._remaining > 0:
            self._remaining -= 1
            raise LogTruncated("pruned again while bootstrapping")
        return super().ship(after_seq)


def test_second_truncation_is_absorbed_by_the_retry():
    log = _PruningLog(truncations=CATCHUP_ATTEMPTS - 1)
    primary, _spec = _seed_primary(log, inserts=8, batches=0)
    replicas = ReplicaSet(_make_app, log, count=1)
    replicas.catch_up()  # must not raise
    assert _state(replicas.follower(0)) == _state(primary)


def test_unbounded_pruning_surfaces_after_bounded_attempts():
    log = _PruningLog(truncations=10 ** 9)
    _seed_primary(log, inserts=8, batches=0)
    replicas = ReplicaSet(_make_app, log, count=1)
    with pytest.raises(LogTruncated, match="could not outrun"):
        replicas.catch_up()


# -- prune_to and the never-caught-up follower ------------------------------


def test_prune_to_caps_a_buffer_pinned_by_a_lagging_follower():
    spec = easychair_spec()
    log = ReplicationLog()
    primary = _make_app(log)
    entity = primary.store.entity(spec.entity)
    rng = random.Random(11)
    replicas = ReplicaSet(_make_app, log, count=2)

    def shippable() -> int:
        return len(log.ship(log.base_seq))

    # follower 1 never catches up: catch_up prunes behind min(applied),
    # which that follower pins at 0 — the buffer grows without bound
    sizes = []
    for _round in range(3):
        for _ in range(12):
            entity.insert(spec.clean_payload(rng))
        log.sync()
        follower = replicas.followers[0]
        for seq, op in replicas._ship_tail(0):
            apply_op(follower, op)
            follower.clock.advance_to(op_tick(op))
            replicas._applied[0] = seq
        sizes.append(shippable())
    assert sizes[0] < sizes[1] < sizes[2]  # monotone growth while pinned

    # the operator caps it at the acked watermark
    log.prune_to(log.acked_seq)
    assert shippable() == 0

    # the starved follower re-bootstraps off the lead on next catch-up
    replicas.catch_up()
    assert _state(replicas.follower(1)) == _state(primary)
